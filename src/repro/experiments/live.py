"""E-LIVE — sim-vs-live cross-validation of the deployment runtime.

The live runtime (:mod:`repro.live`) claims to execute the *same*
protocol the event engine simulates — same ``Parameters``, same GF(256)
kernels, same fault semantics — just over real TCP sockets instead of an
event queue.  E-LIVE makes the claim falsifiable: for each segment size
at one operating point it runs

- the **event-exact simulator** over the budget's seeds (long windows:
  simulated time is cheap), and
- a **real single-box swarm** — every peer an asyncio task with its own
  listener, every block moved and recoded on the wire, every completed
  segment decode-verified against the source digest — over the same
  seeds (shorter windows: wall-clock time is paid 1:1),

then compares steady-state metrics within the stated tolerance bands
(:mod:`repro.live.crossval`).  The merged result carries one verdict note
per segment size plus the overall PASS/FAIL, so ``results/live.json``
is a self-contained cross-validation artifact.

Expected shape: every compared metric inside its band; hash failures
zero everywhere (end-to-end RLNC decode correctness on the wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import MODE_RLNC, Parameters
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeedMeans,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    preset_shape,
    simulate_cell,
    require_event_engine,
)
from repro.faults.plan import FaultPlan
from repro.live.crossval import (
    DEFAULT_TOLERANCES,
    CrossValReport,
    compare_reports,
    verdict_note,
    verification_note,
)
from repro.live.harness import live_cell

#: The two engines of a sim-twin/live pair, in task and series order.
ENGINES = ("sim", "live")

#: One engine's cell: ``cell(params, seed=n)`` returns its payload.
TwinCell = Callable[..., Mapping[str, object]]


@dataclass(frozen=True)
class Twins(SeedMeans):
    """The payloads of a sim-twin/live grid, read by engine and point."""

    points: Sequence[str]

    def mean(self, engine: str, point: str, metric: str) -> float:
        """Seed mean of *metric* on *engine* at *point*."""
        return self(f"{engine}:{point}", metric)

    def live_sum(
        self, metric: str, points: Optional[Sequence[str]] = None
    ) -> int:
        """Total of a live-only counter over *points* (default: all)."""
        return sum(
            int(value)
            for point in (self.points if points is None else points)
            for seed in self.seeds
            for value in [self.payloads[f"live:{point}:seed={seed}"][metric]]
            if value is not None
        )

    def crossval(
        self,
        result: SeriesResult,
        metrics: Sequence[str],
        tolerances: Mapping[str, float],
        band_note: str = "",
    ) -> List[CrossValReport]:
        """Add one series per metric x engine, then one verdict note per
        point comparing the engines within *tolerances*; return the
        verdicts."""
        for metric in metrics:
            for engine in ENGINES:
                result.add_series(f"{engine} {metric}", [
                    self.mean(engine, point, metric) for point in self.points
                ])
        verdicts = [
            compare_reports(
                *(
                    {m: self.mean(engine, point, m) for m in tolerances}
                    for engine in ENGINES
                ),
                tolerances=tolerances,
            )
            for point in self.points
        ]
        for point, report in zip(self.points, verdicts):
            result.add_note(verdict_note(point, report) + band_note)
        return verdicts


def twin_plan(
    experiment: str,
    points: Sequence[Tuple[str, Parameters]],
    seeds: Sequence[int],
    sim: TwinCell,
    live: TwinCell,
    fold: Callable[[Twins], SeriesResult],
) -> ExperimentPlan:
    """A sim-twin/live grid: per ``(point, params)`` and seed, the task
    ``sim:{point}:seed={n}`` then ``live:{point}:seed={n}``; the merge
    hands *fold* the :class:`Twins` of the payloads."""
    tasks = [
        SimTask(
            task_id=f"{engine}:{point}:seed={seed}",
            thunk=partial(cell, params, seed=seed),
        )
        for point, params in points
        for seed in seeds
        for engine, cell in zip(ENGINES, (sim, live))
    ]
    labels = [point for point, _ in points]

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        return fold(Twins(payloads, seeds, labels))

    return ExperimentPlan(experiment, tasks, merge)

#: The operating point (per-peer rates; the Fig. 3 family's low-load
#: corner, where a live swarm reaches steady state in seconds).
ARRIVAL_RATE = 0.25
GOSSIP_RATE = 1.0
DELETION_RATE = 0.25
CAPACITY = 1.0

#: Real payload bytes per block on the wire.
PAYLOAD_BYTES = 64

#: Segment sizes cross-validated.
SEGMENT_SIZES = (1, 2, 4)

#: Cross-validated metrics: the crossval tolerance table's keys.  Live
#: cells additionally report the end-to-end verification counters
#: (which the simulator, moving no real bytes, cannot produce).
CROSSVAL_METRICS = tuple(DEFAULT_TOLERANCES)
LIVE_METRICS = CROSSVAL_METRICS + ("hash_verified", "hash_failures")

#: Live-swarm shape per quality preset: peers, sim-units of warmup and
#: measurement, and the wall<->sim time scale.  The event-sim twin uses
#: SIM_WARMUP/SIM_DURATION instead — simulated units are cheap, so the
#: sim side buys its estimator variance down with longer windows.
LIVE_SHAPE: Dict[str, Tuple[int, float, float, float]] = {
    "fast": (64, 15.0, 30.0, 2.0),
    # time_scale 0.25: a 1000-peer swarm saturates one event loop at
    # 0.5 sim-units/s — the loop falls behind its Poisson schedules and
    # throughput reads low.  Slowing the clock restores fidelity
    # (worst per-metric deviation drops from ~43% to ~3%).
    "full": (1000, 12.0, 24.0, 0.25),
}

SIM_WARMUP = 40.0
SIM_DURATION = 120.0


def operating_point(
    n_peers: int,
    n_servers: int,
    segment_size: int,
    faults: Optional[FaultPlan] = None,
) -> Parameters:
    """The RLNC session both live experiments run at this corner."""
    return Parameters(
        n_peers=n_peers,
        arrival_rate=ARRIVAL_RATE,
        gossip_rate=GOSSIP_RATE,
        deletion_rate=DELETION_RATE,
        normalized_capacity=CAPACITY,
        segment_size=segment_size,
        n_servers=n_servers,
        mode=MODE_RLNC,
        payload_bytes=PAYLOAD_BYTES,
        faults=faults,
    )


def plan_live(
    quality: str = QUALITY_FAST,
    segment_sizes: Sequence[int] = SEGMENT_SIZES,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """E-LIVE as a task grid: one cell per (engine, s, seed).

    Live cells run a complete TCP swarm inside the task (via
    ``asyncio.run``), so they are single-process tasks like any other —
    the parallel runner can shard the grid, though live cells saturate
    one box's event loop each.
    """
    budget = budget or budget_for(quality)
    require_event_engine(budget, "live")
    shape, override = preset_shape(quality, budget, LIVE_SHAPE)
    n_peers, live_warmup, live_duration, time_scale = shape
    if override is not None:
        n_peers = override

    points = [
        (f"s={s}", operating_point(n_peers, budget.n_servers, s))
        for s in segment_sizes
    ]

    def fold(twins: Twins) -> SeriesResult:
        result = SeriesResult(
            name="live",
            title=(
                "E-LIVE — sim-vs-live cross-validation "
                f"(N={n_peers}, lambda={ARRIVAL_RATE:g}, "
                f"mu={GOSSIP_RATE:g}, gamma={DELETION_RATE:g}, "
                f"c={CAPACITY:g}, payload={PAYLOAD_BYTES}B, "
                f"time_scale={time_scale:g})"
            ),
            x_name="s",
            x_values=[float(s) for s in segment_sizes],
        )
        verdicts = twins.crossval(
            result, CROSSVAL_METRICS, DEFAULT_TOLERANCES
        )
        failures = twins.live_sum("hash_failures")
        result.add_note(
            verification_note(twins.live_sum("hash_verified"), failures)
        )
        if all(report.agrees for report in verdicts) and failures == 0:
            result.add_note("CROSS-VALIDATION PASSED")
        else:
            result.add_note("CROSS-VALIDATION FAILED")
        return result

    return twin_plan(
        "live", points, budget.seeds,
        sim=partial(
            simulate_cell, warmup=SIM_WARMUP, duration=SIM_DURATION,
            metrics=CROSSVAL_METRICS,
        ),
        live=partial(
            live_cell, warmup=live_warmup, duration=live_duration,
            time_scale=time_scale, metrics=LIVE_METRICS,
        ),
        fold=fold,
    )
