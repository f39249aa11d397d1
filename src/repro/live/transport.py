"""Framed TCP connections, connection caching, and the fault-plan mapping.

:class:`FramedConnection` wraps one asyncio stream pair with the frame
codec and a write lock, so concurrent tasks can share a connection without
interleaving frames; :meth:`FramedConnection.request` additionally holds
the lock across a send+receive pair for strict request/response exchanges
(OFFER -> OFFER-REPLY, PULL -> PULL-BLOCK).

:class:`ConnectionCache` is a small LRU of outbound connections.  A
thousand-peer single-box swarm cannot afford a persistent clique (O(N^2)
sockets); with a per-peer cache of a few entries the file-descriptor count
stays linear in N while hot gossip pairs still reuse their connection.

The same :class:`FaultPlan` drives simulation and live runs.  The live
peers and collector ask the simulator's own
:class:`repro.faults.injector.FaultVerdicts` for every decision (built
only for a non-null plan; docs/PROTOCOL.md, "Where each rule is stated")
and realize the verdicts netem-style, at the transport:

=====================  ====================================================
FaultPlan channel      live transport behavior
=====================  ====================================================
gossip_loss_rate       receiver drops the BLOCK frame after transfer
pull_loss_rate         collector discards the PULL-BLOCK reply in flight
pollution_fraction     polluter peers zero the GF(256) coefficient header
                       of every block they emit (detectably junk)
outage_*               collector pull clocks blackhole (pause + catch-up)
burst_rate/fraction    server RESETs a random peer cohort: buffers wiped,
                       connections torn down mid-stream
=====================  ====================================================

The polluter set is sampled from the dedicated swarm-wide
:data:`POLLUTER_STREAM` substream, so every process of a live swarm —
peers and servers alike — derives the *same* set from the root seed alone.
(The event simulator draws its set from its own ``"faults"`` substream, so
the sets are equal in size and law but not slot-for-slot identical across
engines.)
"""

from __future__ import annotations

import asyncio
import random
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Mapping, Optional, Tuple

from repro.coding.block import CodedBlock
from repro.live import ports
from repro.live.framing import Frame, FrameError, read_frame, write_frame
from repro.sim.rng import sample_cohort


class FramedConnection:
    """One framed TCP stream with serialized writes and request pairing."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self.frames_sent = 0
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
            self.frames_sent += 1

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
            self.frames_sent += 1
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

    def __repr__(self) -> str:
        return f"FramedConnection({ports.describe_endpoint(self._writer)})"


#: Factory used by the cache to open a missing connection.
ConnectionFactory = Callable[[int], Awaitable[FramedConnection]]


class ConnectionCache:
    """LRU cache of outbound framed connections, keyed by peer slot."""

    def __init__(self, factory: ConnectionFactory, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"cache limit must be >= 1, got {limit}")
        self._factory = factory
        self._limit = limit
        self._connections: "OrderedDict[int, FramedConnection]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._connections)

    async def get(self, slot: int) -> FramedConnection:
        """Return a live cached connection to *slot*, opening if needed."""
        conn = self._connections.get(slot)
        if conn is not None:
            if not conn.is_closing:
                self._connections.move_to_end(slot)
                return conn
            del self._connections[slot]
            await conn.close()
        conn = await self._factory(slot)
        self._connections[slot] = conn
        if len(self._connections) > self._limit:
            _, evicted = self._connections.popitem(last=False)
            await evicted.close()
        return conn

    async def drop(self, slot: int) -> None:
        """Discard the cached connection to *slot* (it died mid-use)."""
        conn = self._connections.pop(slot, None)
        if conn is not None:
            await conn.close()

    async def close_all(self) -> None:
        """Tear down every cached connection."""
        connections = list(self._connections.values())
        self._connections.clear()
        for conn in connections:
            await conn.close()


#: Substream names shared by every process of a swarm, so each samples the
#: identical polluter set / burst cohort sequence from the same root seed.
POLLUTER_STREAM = "live:polluters"
BURST_STREAM = "live:bursts"
#: Substream the supervisor draws peer-process fault cohorts from, so the
#: processes SIGKILLed by a given plan are a pure function of the root seed.
PROCESS_STREAM = "live:process-faults"


def sample_process_cohort(
    rng: random.Random, fraction: float, n_procs: int
) -> Tuple[int, ...]:
    """Draw the peer-process cohort one process fault hits.

    Sized like every other population share (at least one process, at most
    all), so a live ``kill-peers`` event and its simulated churn-burst twin
    remove the same population share.
    """
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    return tuple(sample_cohort(rng, fraction, n_procs))


def detects_pollution(block: CodedBlock) -> bool:
    """Collector-side pollution detection: an all-zero coefficient header.

    This is the *real* detection the simulator's RLNC mode models — a
    zeroed header can never be innovative under GF(2^8) rank arithmetic —
    done cheaply before the decoder is touched.  The wire ``polluted`` tag
    is carried for accounting cross-checks but is deliberately not trusted.
    """
    return block.coefficients is not None and not block.coefficients.any()
