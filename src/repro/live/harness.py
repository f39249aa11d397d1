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

from repro.core.params import MODE_RLNC, Parameters
from repro.live.clock import LiveClock
from repro.live.livemetrics import aggregate_report
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer

#: Peers started concurrently per batch (bounds the connect storm).
START_BATCH = 64

#: Wall-clock ceiling for all peers to register.
JOIN_TIMEOUT = 120.0

#: Wall-clock lead time between broadcasting START and the clock epoch.
START_DELAY = 0.5


def validate_live_params(params: Parameters, supervised: bool = False) -> None:
    """Reject configurations the live runtime cannot execute faithfully.

    *supervised* marks a multi-process run under
    :class:`repro.live.supervisor.LiveSupervisor`: only there can
    ``process_faults`` be delivered (as real signals); a single-process
    swarm has no processes to kill, so such plans are rejected.
    """
    if params.mode != MODE_RLNC or params.payload_bytes <= 0:
        raise ValueError(
            "live swarms move real bytes: set mode='rlnc' and "
            "payload_bytes > 0"
        )
    if params.has_adversary:
        raise ValueError("live swarms do not run adversary plans")
    if (
        not supervised
        and params.faults is not None
        and params.faults.process_faults
    ):
        raise ValueError(
            "process_faults need real processes to signal: run with "
            "--supervised (repro live swarm) or run_supervised_swarm()"
        )
    if params.pull_policy != "random":
        raise ValueError(
            f"live swarms implement the paper's random pull policy only, "
            f"got {params.pull_policy!r}"
        )
    if params.gossip_latency != 0.0:
        raise ValueError(
            "gossip_latency is a simulator knob; live transfers take real "
            "network time"
        )


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
    following ``duration`` units.
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
        await server.begin(START_DELAY)
        await asyncio.sleep(START_DELAY + clock.wall_interval(warmup))
        await server.mark()
        mark_at = clock.now()
        await asyncio.sleep(clock.wall_interval(duration))
        await server.stop_protocol()
        stop_at = clock.now()
        window = stop_at - mark_at
        peer_summaries = [
            await server.request_metrics(slot)
            for slot in range(params.n_peers)
        ]
        frames = sum(
            record.conn.frames_received for record in server.peers.values()
        )
        report = aggregate_report(
            params,
            window,
            server.stats.summary(stop_at, window),
            peer_summaries,
            extras={
                "time_scale": time_scale,
                "wall_seconds": time.monotonic() - wall_start,
                "control_frames": frames,
                "engine": "live",
            },
        )
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
