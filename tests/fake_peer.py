"""A scripted TCP endpoint posing as one peer of a live swarm (test helper).

The fake registers with a :class:`LiveLoggingServer` like a real peer
(HELLO/WELCOME on a control connection, a listener for inbound pulls) but
answers every inbound frame with whatever the test's *reply* callback
returns — so a test can serve polluted, malformed, or oversized frames.
"""

import asyncio

import numpy as np

from repro.coding.block import CodedBlock, SegmentDescriptor
from repro.live import ports, wire
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
    return wire.block_to_wire(wire.MSG_PULL_BLOCK, block, "")


class FakePeer:
    """One scripted peer: *reply(frame)* -> ``(header, payload)`` or None."""

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
                if answer is not None:
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
