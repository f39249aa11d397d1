"""Live deployment runtime: the protocol over real asyncio TCP sockets.

Where :mod:`repro.sim` *simulates* the paper's indirect collection
protocol, this package *runs* it: every peer is an asyncio task (or a
standalone process) speaking length-prefixed framed header+bytes over TCP,
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

Everything else is imported from its module.
"""

from repro.live.crossval import compare_reports
from repro.live.harness import live_cell, run_swarm
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer

__all__ = [
    "LiveLoggingServer", "LivePeer", "compare_reports", "live_cell",
    "run_swarm",
]
