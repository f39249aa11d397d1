"""E-TRANS — the flash crowd at the fluid limit versus the event simulator.

Not a numbered figure in the paper, but the quantitative form of its
central promise (abstract: "a 'buffering' zone and a 'smoothing' factor"):
drive the ODE model of Sec. 3 with the time-varying flash-crowd demand and
compare the resulting trajectories against the finite-N event simulation.

Reported on a shared time grid:

- ``demand`` — offered load λ(t) per peer,
- ``fluid occupancy`` / ``sim occupancy`` — buffered blocks per peer,
- ``fluid intake`` / ``sim intake`` — useful server pulls per peer per
  unit time.

Expected shape: occupancy swells through the burst (the buffering zone)
and drains afterwards, while intake moves far less than demand (the
smoothing factor), staying near the capacity line ``c`` until the backlog
is cleared — and the fluid and event-level curves track each other.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.analysis.transient import TransientCollectionODE
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    require_event_engine,
)
from repro.stats.workload import FlashCrowdWorkload

BASE_RATE = 4.0
BURST_MULTIPLIER = 5.0
BURST_START, BURST_END = 10.0, 15.0
GOSSIP_RATE = 8.0
DELETION_RATE = 0.5
CAPACITY = 5.0
SEGMENT_SIZE = 8
HORIZON = 40.0


def _workload() -> FlashCrowdWorkload:
    return FlashCrowdWorkload(
        base_rate=BASE_RATE,
        burst_start=BURST_START,
        burst_end=BURST_END,
        multiplier=BURST_MULTIPLIER,
    )


def plan_transient(
    quality: str = QUALITY_FAST,
    budget: Optional[SimBudget] = None,
    n_samples: int = 9,
    seed: int = 1,
) -> ExperimentPlan:
    """The flash-crowd comparison as a (single-task) grid.

    The event simulation samples its phases sequentially against one
    shared system, so it is indivisible — one task carries the whole
    phase sweep; the fluid model and demand curve are deterministic and
    computed in the merge step.
    """
    budget = budget or budget_for(quality)
    require_event_engine(budget, "transient")
    sample_times = np.linspace(HORIZON / n_samples, HORIZON, n_samples)

    def run_phases() -> Payload:
        params = Parameters(
            n_peers=budget.n_peers,
            arrival_rate=BASE_RATE,
            gossip_rate=GOSSIP_RATE,
            deletion_rate=DELETION_RATE,
            normalized_capacity=CAPACITY,
            segment_size=SEGMENT_SIZE,
            n_servers=budget.n_servers,
        )
        system = CollectionSystem(params, seed=seed, workload=_workload())
        sim_occupancy: List[float] = []
        sim_intake: List[float] = []
        previous = 0.0
        for t in sample_times:
            report = system.run_phase(float(t - previous))
            previous = float(t)
            sim_occupancy.append(report.mean_buffer_occupancy)
            sim_intake.append(report.throughput / budget.n_peers)
        return {"sim_occupancy": sim_occupancy, "sim_intake": sim_intake}

    tasks = [SimTask(task_id=f"phases:seed={seed}", thunk=run_phases)]

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        phases = payloads[f"phases:seed={seed}"]

        model = TransientCollectionODE(
            workload=_workload(),
            gossip_rate=GOSSIP_RATE,
            deletion_rate=DELETION_RATE,
            segment_size=SEGMENT_SIZE,
            normalized_capacity=CAPACITY,
        )
        trajectory = model.simulate(HORIZON, n_points=160)

        def fluid_at(series: np.ndarray, t: float) -> float:
            return float(np.interp(t, trajectory.times, series))

        result = SeriesResult(
            name="transient",
            title=(
                "Flash crowd at the fluid limit vs event simulation "
                f"(x{BURST_MULTIPLIER:g} burst on "
                f"[{BURST_START:g},{BURST_END:g}), "
                f"c={CAPACITY:g}, s={SEGMENT_SIZE})"
            ),
            x_name="t",
            x_values=[float(t) for t in sample_times],
        )
        result.add_series(
            "demand", [_workload().rate(t - 1e-9) for t in sample_times]
        )
        result.add_series(
            "fluid occupancy",
            [fluid_at(trajectory.occupancy, t) for t in sample_times],
        )
        result.add_series(
            "sim occupancy", [float(v) for v in phases["sim_occupancy"]]
        )
        result.add_series(
            "fluid intake",
            [fluid_at(trajectory.collection_rate, t) for t in sample_times],
        )
        result.add_series(
            "sim intake", [float(v) for v in phases["sim_intake"]]
        )
        result.add_note(
            "occupancy = buffered blocks per peer; intake = useful server "
            "pulls per peer per unit time (capacity line c = "
            f"{CAPACITY:g}); sim values are per-interval averages"
        )
        result.add_note(
            "shape target: occupancy swells through the burst and drains "
            "after (buffering zone); intake swings far less than demand "
            "(smoothing) and the fluid and event curves track each other"
        )
        return result

    return ExperimentPlan("transient", tasks, merge)
