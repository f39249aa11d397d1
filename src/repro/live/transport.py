"""Framed TCP connections and the process's outbound connection cache.

:class:`FramedConnection` wraps one asyncio stream pair with the frame
codec and a write lock, so concurrent tasks can share a connection without
interleaving frames; :meth:`FramedConnection.request` additionally holds
the lock across a send+receive pair for strict request/response exchanges
(OFFER -> OFFER-REPLY, PULL -> PULL-BLOCK).

:class:`ConnectionCache` is an LRU of outbound data-plane links keyed by
the destination listener's ``(host, port)``.  Links belong to the process,
not to a protocol role: every :class:`LivePeer` on an event loop leases
``GOSSIP_CACHE`` links of that loop's one pool (descriptors stay O(N), not
an O(N^2) clique); the collector bounds its cache by its registered peers.
Gossip targets are drawn uniformly, so there are no hot pairs to keep warm:
a private 4-link cache hits 4/(N-1) of its draws (3 % at N = 128, 0.4 % at
1000) and pays connect + accept + handler task + two closes for the rest;
K hosted peers sharing 4K links hit min(1, 4K/(N-1)) of theirs.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Mapping, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.live import ports
from repro.live.framing import Frame, FrameError, read_frame, write_frame


class FramedConnection:
    """One framed TCP stream with serialized writes and request pairing."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self.frames_received = 0

    @classmethod
    async def open(
        cls, host: str, port: int, attempts: int = ports.DEFAULT_ATTEMPTS
    ) -> "FramedConnection":
        """Connect with the shared bounded-retry helper."""
        reader, writer = await ports.connect(host, port, attempts=attempts)
        return cls(reader, writer)

    @property
    def is_closing(self) -> bool:
        """True once the underlying transport is going away."""
        return self._writer.is_closing()

    async def send(
        self, header: Mapping[str, Any], payload: bytes = b""
    ) -> None:
        """Send one frame (writes from concurrent tasks never interleave)."""
        async with self._lock:
            await write_frame(self._writer, header, payload)

    async def read(self) -> Optional[Frame]:
        """Read the next frame; ``None`` on clean EOF."""
        frame = await read_frame(self._reader)
        if frame is not None:
            self.frames_received += 1
        return frame

    async def request(
        self, header: Mapping[str, Any], payload: bytes = b""
    ) -> Frame:
        """Send one frame and read its reply atomically.

        The connection lock spans the exchange, so concurrent requesters
        cannot pair their request with someone else's response.  EOF in
        place of a reply raises :class:`ConnectionResetError` (the caller
        treats it like any dead connection).
        """
        async with self._lock:
            await write_frame(self._writer, header, payload)
            frame = await read_frame(self._reader)
            if frame is None:
                raise ConnectionResetError(
                    "connection closed while awaiting a reply"
                )
            self.frames_received += 1
            return frame

    async def close(self) -> None:
        """Close the transport (idempotent, absorbs teardown races)."""
        await ports.close_writer(self._writer)


#: A listener's ``(host, port)``: what an outbound link is keyed by.
Address = Tuple[str, int]


class ConnectionCache:
    """LRU of outbound framed connections, keyed by listener address;
    ``limit`` moves with its owner's budget (leases, registrations) and
    every :meth:`get` enforces the value of the moment."""

    def __init__(self) -> None:
        self.limit = 0
        self._links: "OrderedDict[Address, FramedConnection]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._links)

    @classmethod
    def lease(cls, share: int) -> "ConnectionCache":
        """Lease *share* links of the running loop's pool (made on demand)."""
        pool = _POOLS.setdefault(asyncio.get_running_loop(), cls())
        pool.limit += share
        return pool

    async def release(self, share: int) -> None:
        """Hand a lease back; the last one out closes every link."""
        self.limit -= share
        await self.trim()

    async def trim(self) -> None:
        """Close least recently used links until ``limit`` are left."""
        while len(self._links) > self.limit:
            _, evicted = self._links.popitem(last=False)
            await evicted.close()

    async def get(self, addr: Address) -> FramedConnection:
        """Return a live link to the listener at *addr*, dialing if needed."""
        if self.limit < 1:
            raise ConnectionError("connection cache has no budget")
        conn = self._links.get(addr)
        spare: Optional[FramedConnection] = None
        if conn is None or conn.is_closing:
            spare = await FramedConnection.open(*addr, attempts=2)
            # Look again: a concurrent get may have cached its own dial to
            # this listener meanwhile.  Keep that link and close ours.
            conn = self._links.get(addr)
            if conn is None or conn.is_closing:
                self._links[addr] = spare
                conn, spare = spare, conn
        self._links.move_to_end(addr)
        if spare is not None:
            await spare.close()
        await self.trim()
        return conn

    async def drop(
        self, addr: Address, conn: Optional[FramedConnection] = None
    ) -> None:
        """Discard the link to *addr*; given the *conn* that failed, only
        if that is still the cached one (a neighbour may have re-dialed)."""
        cached = self._links.get(addr)
        if cached is not None and (conn is None or cached is conn):
            del self._links[addr]
            await cached.close()


#: Each running event loop's one outbound pool (it goes with its loop).
_POOLS: "WeakKeyDictionary[asyncio.AbstractEventLoop, ConnectionCache]"
_POOLS = WeakKeyDictionary()

