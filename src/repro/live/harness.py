"""Single-box swarm orchestration: run a live session end to end.

:func:`run_swarm` stands up one :class:`LiveLoggingServer` and ``N``
in-process :class:`LivePeer` tasks on loopback TCP, runs the protocol for
``warmup + duration`` simulated units, and returns a MetricsReport-shaped
dict (:func:`repro.live.livemetrics.aggregate_report`).  The same
machinery scales from the 8-peer test swarms to the 1000-peer E-LIVE
experiment: peers are cheap tasks, sockets are the only real resource (per
peer one listener, both ends of one control link and of <= 2 data links).

:func:`live_cell` is the synchronous entry point shaped exactly like
:func:`repro.experiments.base.simulate_cell`, so experiment task grids can
mix simulated and live cells freely.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.params import Parameters
from repro.live.clock import LiveClock
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.live.server import START_DELAY as START_DELAY  # re-export
from repro.live.wire import validate_live_params as validate_live_params

#: Peers started concurrently per batch (bounds the connect storm).
START_BATCH = 64

#: Wall-clock ceiling for all peers to register.
JOIN_TIMEOUT = 120.0


async def run_swarm(
    params: Parameters,
    seed: int,
    warmup: float,
    duration: float,
    time_scale: float = 1.0,
    host: str = "127.0.0.1",
) -> Dict[str, Any]:
    """Run one complete live session; returns the aggregated report.

    *warmup* and *duration* are in simulated time units, like the
    simulator's cells: the swarm runs for ``warmup`` units to reach
    steady state, MARK resets every counter, and the report covers the
    following ``duration`` units (:meth:`LiveLoggingServer.measure`).
    Raises unless every peer reported.
    """
    validate_live_params(params)
    if warmup < 0 or duration <= 0:
        raise ValueError(
            f"need warmup >= 0 and duration > 0, got {warmup}, {duration}"
        )
    clock = LiveClock(time_scale)
    server = LiveLoggingServer(
        params, seed, clock=clock, host=host
    )
    await server.start()
    peers: List[LivePeer] = []
    wall_start = time.monotonic()
    try:
        for slot in range(params.n_peers):
            peers.append(
                LivePeer(
                    slot, params, seed, host, server.port,
                    clock=clock, listen_host=host,
                )
            )
        for base in range(0, len(peers), START_BATCH):
            batch = peers[base : base + START_BATCH]
            await asyncio.gather(*(peer.start() for peer in batch))
        await server.wait_for_peers(params.n_peers, timeout=JOIN_TIMEOUT)
        report = await server.measure(warmup, duration)
        assert report is not None  # no stop event: the window completes
        if report["peers_reporting"] != params.n_peers:
            raise RuntimeError(
                f"only {report['peers_reporting']} of {params.n_peers} "
                f"peers reported their window metrics"
            )
        report["wall_seconds"] = time.monotonic() - wall_start
        return report
    finally:
        await asyncio.gather(
            *(peer.close() for peer in peers), return_exceptions=True
        )
        await server.close()


def live_cell(
    params: Parameters,
    seed: int,
    warmup: float,
    duration: float,
    time_scale: float = 1.0,
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Synchronous live cell shaped like ``simulate_cell``.

    With *metrics* the report is filtered down to those keys (missing keys
    map to ``None``), which is exactly the contract experiment task grids
    rely on.
    """
    report = asyncio.run(
        run_swarm(params, seed, warmup, duration, time_scale)
    )
    if metrics is None:
        return report
    return {name: report.get(name) for name in metrics}
