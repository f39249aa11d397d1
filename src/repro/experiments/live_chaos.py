"""E-LIVE-CHAOS — crash tolerance of the live swarm under process faults.

E-LIVE establishes that the live runtime and the event simulator agree in
steady state.  This experiment establishes that the agreement *survives
crashes*: a supervised multi-process swarm (``repro live swarm
--supervised``) is subjected to the process-level fault plane — the
logging-server process SIGKILLed mid-measurement-window, then a cohort of
peer processes SIGKILLed — and is compared against the event simulator
executing the *same* :class:`~repro.faults.plan.FaultPlan` through its
fault injector.

What the fault path exercises, end to end:

- the server's decode-state **checkpoint journal** — the SIGKILL lands
  between checkpoint writes, the supervised respawn restores the decoder
  pool bit-for-bit (the restore path *raises* on any rank mismatch, so a
  completed run is itself the zero-rank-lost proof) and resumes the same
  collection window on the restored clock epoch;
- peer **reconnect/resume** — every peer re-registers against the
  restarted server under the unified backoff policy and replays its
  buffer state;
- the **supervisor's restart budget** — chaos kills are indistinguishable
  from crashes to the monitor tasks.

Verdict: the faulted live run's steady-state metrics (throughput,
efficiency, occupancy, block-delay mean and p95) must stay within the
widened chaos tolerance bands of the simulator's faulted prediction, all
decoded segments must hash-verify, and the fault plane must actually have
fired (>= 1 server kill survived, >= 1 peer-cohort kill survived).
Bands are wider than E-LIVE's (:data:`CHAOS_TOLERANCES`) because both
estimates come from short faulted windows and the live outage length is
real wall time (respawn backoff) rather than a configured constant.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, Optional, Tuple

from repro.experiments.base import (
    ExperimentPlan,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    budget_for,
    preset_shape,
    simulate_cell,
    require_event_engine,
)
from repro.experiments.live import ENGINES, Twins, operating_point, twin_plan
from repro.faults.plan import FaultPlan
from repro.live.crossval import verification_note
from repro.live.supervisor import supervised_cell

#: The operating point: E-LIVE's low-load corner at one segment size.
SEGMENT_SIZE = 2

#: Widened sim-vs-live bands for faulted short windows (see module doc).
CHAOS_TOLERANCES: Dict[str, float] = {
    "normalized_throughput": 0.25,
    "efficiency": 0.25,
    "mean_buffer_occupancy": 0.35,
    "mean_block_delay": 0.60,
    "p95_block_delay": 0.75,
}

CROSSVAL_METRICS = tuple(CHAOS_TOLERANCES) + ("outage_time",)
LIVE_METRICS = CROSSVAL_METRICS + (
    "hash_verified",
    "hash_failures",
    "server_restarts",
    "restored_rank",
    "checkpoint_writes",
    "peer_proc_restarts",
    "process_faults_executed",
)

#: Swarm shape per quality: peers, peer processes, warmup, duration,
#: time scale.  Both engines run the SAME windows here — the fault onsets
#: are absolute sim times, so the outage must land at the same place in
#: the measurement window on both sides.
CHAOS_SHAPE: Dict[str, Tuple[int, int, float, float, float]] = {
    "fast": (200, 4, 6.0, 18.0, 1.0),
    "full": (200, 8, 8.0, 24.0, 1.0),
}

#: The campaign: SIGKILL the collector at t=10 (mid-window), then SIGKILL
#: a quarter of the peer processes at t=16.  The simulator charges the
#: server kill as an outage of restart_latency sim units; the live side
#: pays the real respawn+restore+reconnect time.
KILL_SERVER_AT = 10.0
KILL_PEERS_AT = 16.0
KILL_PEERS_FRACTION = 0.25
RESTART_LATENCY = 2.0

CONDITIONS = ("base", "fault")


def _chaos_plan() -> FaultPlan:
    return FaultPlan(
        process_faults=(
            ("kill-server", KILL_SERVER_AT, 0.0, 0.0),
            ("kill-peers", KILL_PEERS_AT, 0.0, KILL_PEERS_FRACTION),
        ),
        process_restart_latency=RESTART_LATENCY,
    )


def plan_live_chaos(
    quality: str = QUALITY_FAST,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """E-LIVE-CHAOS as a task grid: one cell per (engine, condition, seed).

    Live cells run a complete supervised multi-process swarm inside the
    task, so they monopolize the box while they run; the grid stays small
    (2 live cells per seed) by design.
    """
    budget = budget or budget_for(quality)
    require_event_engine(budget, "live-chaos")
    shape, override = preset_shape(quality, budget, CHAOS_SHAPE)
    n_peers, peer_procs, warmup, duration, time_scale = shape
    if override is not None:
        n_peers = override
        peer_procs = min(peer_procs, n_peers)
    points = [
        (condition, operating_point(
            n_peers, budget.n_servers, SEGMENT_SIZE,
            _chaos_plan() if condition == "fault" else None,
        ))
        for condition in CONDITIONS
    ]

    def fold(twins: Twins) -> SeriesResult:
        result = SeriesResult(
            name="live_chaos",
            title=(
                "E-LIVE-CHAOS — crash-tolerant live swarm under process "
                f"faults (N={n_peers}, procs={peer_procs}, "
                f"s={SEGMENT_SIZE}, kill-server@{KILL_SERVER_AT:g}, "
                f"kill-peers@{KILL_PEERS_AT:g}x{KILL_PEERS_FRACTION:g}, "
                f"time_scale={time_scale:g})"
            ),
            x_name="faulted",
            x_values=[float(i) for i, _ in enumerate(CONDITIONS)],
        )
        bands = ", ".join(
            f"{m}<={t:.0%}" for m, t in CHAOS_TOLERANCES.items()
        )
        verdicts = twins.crossval(
            result, CROSSVAL_METRICS, CHAOS_TOLERANCES, f" [bands: {bands}]"
        )

        # Outage-induced delay degradation, engine by engine.
        for metric in ("mean_block_delay", "normalized_throughput"):
            for engine in ENGINES:
                base = twins.mean(engine, "base", metric)
                fault = twins.mean(engine, "fault", metric)
                if not (math.isnan(base) or math.isnan(fault)):
                    result.add_note(
                        f"{engine} {metric} degradation: "
                        f"{base:.4f} -> {fault:.4f} "
                        f"({fault - base:+.4f})"
                    )

        restarts = twins.live_sum("server_restarts", ["fault"])
        peer_kills = sum(
            1
            for seed in twins.seeds
            for executed in [
                twins.payloads[f"live:fault:seed={seed}"][
                    "process_faults_executed"
                ]
            ]
            if executed
            for event in executed
            if event.get("kind") == "kill-peers"
        )
        restored = twins.live_sum("restored_rank", ["fault"])
        failures = twins.live_sum("hash_failures")
        verified = twins.live_sum("hash_verified")
        result.add_note(
            f"fault plane: {restarts} server SIGKILL(s) survived "
            f"(decoder pool restored with {restored} rank unit(s), "
            f"zero rank lost — the restore path raises on mismatch), "
            f"{peer_kills} peer-cohort kill(s) executed"
        )
        result.add_note(verification_note(verified, failures))
        passed = (
            all(report.agrees for report in verdicts)
            and failures == 0
            and verified > 0
            and restarts >= 1
            and peer_kills >= 1
        )
        result.add_note(
            "E-LIVE-CHAOS PASSED" if passed else "E-LIVE-CHAOS FAILED"
        )
        return result

    return twin_plan(
        "live_chaos", points, budget.seeds,
        sim=partial(
            simulate_cell, warmup=warmup, duration=duration,
            metrics=CROSSVAL_METRICS,
        ),
        live=partial(
            supervised_cell, warmup=warmup, duration=duration,
            time_scale=time_scale, peer_procs=peer_procs,
            metrics=LIVE_METRICS,
        ),
        fold=fold,
    )
