"""A scripted TCP endpoint posing as one peer of a live swarm (test helper).

The fake registers with a :class:`LiveLoggingServer` like a real peer
(HELLO/WELCOME on a control connection, a listener for inbound pulls) but
answers every inbound frame with whatever the test's *reply* callback
returns — so a test can serve polluted, malformed, or oversized frames.
Malformed block-path frames are raw bytes (:func:`raw_block`): the honest
encoder refuses to write them.
"""

import asyncio
import struct

import numpy as np

from repro.coding.block import CodedBlock, SegmentDescriptor
from repro.live import framing, ports, wire
from repro.live.transport import FramedConnection


async def until(predicate, what, tries=1000):
    """Poll *predicate* every 10 ms; fail (not hang) if it never holds."""
    for _ in range(tries):
        if predicate():
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"never happened: {what}")


def wire_block(params, segment_id, coefficients, **segment_overrides):
    """A PULL-BLOCK ``(header, payload)`` pair with the given coefficients."""
    fields = dict(
        segment_id=segment_id,
        source_peer=0,
        size=params.segment_size,
        injected_at=0.0,
    )
    fields.update(segment_overrides)
    block = CodedBlock(
        segment=SegmentDescriptor(**fields),
        coefficients=np.asarray(coefficients, dtype=np.uint8),
        payload=np.zeros(params.payload_bytes, dtype=np.uint8),
        created_at=0.0,
    )
    return wire.block_to_wire(wire.MSG_PULL_BLOCK, block, "", slot=0)


def raw_frame(head, payload=b""):
    """Frame bytes around an arbitrary *head*, validated by nobody."""
    lengths = struct.pack(">II", len(head), len(payload))
    return framing.MAGIC + lengths + head + payload


def raw_head(kind, **fields):
    """A block-path binary header packed straight from *fields*."""
    code, layout, names = framing.BINARY_HEADERS[kind]
    return layout.pack(code, *[fields[name] for name in names])


def raw_block(
    params, coefficients, kind=wire.MSG_PULL_BLOCK, row=None, **overrides
):
    """A whole block frame whose header fields may be anything the binary
    layout can hold (negative sizes, NaN timestamps, non-ASCII digests)."""
    fields = dict(
        segment_id=7, source_peer=0, size=params.segment_size,
        injected_at=0.0, generation=0, created_at=0.0, polluted=False,
        digest=b"", slot=0,
    )
    fields.update(overrides)
    if row is None:
        row = bytes(coefficients) + bytes(params.payload_bytes)
    return raw_frame(raw_head(kind, **fields), row)


class FakePeer:
    """One scripted peer: *reply(frame)* -> ``(header, payload)``, raw
    frame bytes, or None."""

    def __init__(self, server, slot, reply):
        self.server = server
        self.slot = slot
        self.reply = reply
        #: inbound frames answered so far, by type.
        self.served = {}
        self.control = None
        self._listener = None
        self._writers = []

    async def start(self, **hello_overrides):
        """Listen, then register with HELLO; returns the server's answer
        (None when the server hung up instead of welcoming)."""
        self._listener, port = await ports.start_server(self._handle)
        self.control = await FramedConnection.open(
            "127.0.0.1", self.server.port
        )
        hello = {
            "type": wire.MSG_HELLO,
            "slot": self.slot,
            "host": "127.0.0.1",
            "port": port,
        }
        hello.update(hello_overrides)
        await self.control.send(
            {k: v for k, v in hello.items() if v is not None}
        )
        return await asyncio.wait_for(self.control.read(), 5.0)

    async def advertise(self):
        """Tell the registry this peer's buffer is non-empty."""
        await self.control.send(
            {"type": wire.MSG_STATUS, "slot": self.slot, "nonempty": True}
        )
        for _ in range(200):
            if self.slot in self.server.nonempty:
                return
            await asyncio.sleep(0.01)
        raise AssertionError("server never saw the STATUS frame")

    async def _handle(self, reader, writer):
        self._writers.append(writer)
        conn = FramedConnection(reader, writer)
        try:
            while True:
                frame = await conn.read()
                if frame is None:
                    return
                self.served[frame.type] = self.served.get(frame.type, 0) + 1
                answer = self.reply(frame)
                if isinstance(answer, bytes):
                    writer.write(answer)
                    await writer.drain()
                elif answer is not None:
                    await conn.send(*answer)
        except (ConnectionError, OSError):
            pass

    async def close(self):
        if self.control is not None:
            await self.control.close()
        for writer in self._writers:
            await ports.close_writer(writer)
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
