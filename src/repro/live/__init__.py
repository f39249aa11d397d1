"""Live deployment runtime: the protocol over real asyncio TCP sockets.

Where :mod:`repro.sim` *simulates* the paper's indirect collection
protocol, this package *runs* it: every peer is an asyncio task (or a
standalone process) speaking length-prefixed framed JSON+bytes over TCP,
the GF(256) kernels of :mod:`repro.coding` encode/recode/decode real
payload bytes on the wire, and the logging servers decode and
hash-verify what they collect.  ``Parameters`` and ``FaultPlan`` are
reused verbatim — the simulator's own fault verdicts are realized
netem-style at the transport (:mod:`repro.live.transport`) — so any
simulated operating point can be replayed live and cross-validated
(:mod:`repro.live.crossval`).

Module map:

- :mod:`repro.live.framing` — sans-IO frame codec + async stream helpers
- :mod:`repro.live.wire` — message catalog, block/params serialization
- :mod:`repro.live.ports` — port-0 binding and bounded-retry connects
- :mod:`repro.live.clock` — wall-to-sim time mapping, Poisson schedules
- :mod:`repro.live.transport` — framed connections, LRU cache, fault mapping
- :mod:`repro.live.peer` / :mod:`repro.live.server` — the two node roles
- :mod:`repro.live.harness` — single-box swarm orchestration
- :mod:`repro.live.livemetrics` — sim-axis measurement + aggregation
- :mod:`repro.live.crossval` — sim-vs-live tolerance comparison
- :mod:`repro.live.cli` — ``repro live serve|peer|swarm``
"""

from repro.live.clock import LiveClock, PoissonSchedule
from repro.live.crossval import CrossValReport, compare_reports
from repro.live.framing import (
    Frame,
    FrameDecoder,
    FrameError,
    FrameGarbage,
    FrameTooLarge,
    FrameTruncated,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.live.harness import live_cell, run_swarm, validate_live_params
from repro.live.livemetrics import aggregate_report
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.live.transport import FramedConnection

__all__ = [
    "CrossValReport",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "FrameGarbage",
    "FrameTooLarge",
    "FrameTruncated",
    "FramedConnection",
    "LiveClock",
    "LiveLoggingServer",
    "LivePeer",
    "PoissonSchedule",
    "aggregate_report",
    "compare_reports",
    "encode_frame",
    "live_cell",
    "read_frame",
    "run_swarm",
    "validate_live_params",
    "write_frame",
]
