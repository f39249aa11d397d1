"""E-T1 — Theorem 1: storage overhead and buffer occupancy validation.

Theorem 1 states that in steady state the average number of buffered coded
blocks per peer is ``rho = (1 - z0) mu/gamma + lambda/gamma`` regardless of
the segment size, with gossip-attributable overhead ``(1 - z0) mu/gamma``
bounded by ``mu/gamma`` — the knob the operator turns to budget peer memory
(the paper keeps ``mu/gamma`` under 20 in its simulations).

This experiment sweeps segment size and compares three independent values
of occupancy and the empty-peer fraction:

- ``closed form`` — the fixed point z0 = exp(-(1-z0) mu/gamma - lambda/gamma),
- ``ODE`` — the steady state of Eq. (7),
- ``sim`` — the time-averaged measurement from the protocol simulator.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.ode import CollectionODE
from repro.analysis.theorems import theorem1_storage
from repro.core.params import Parameters
from repro.experiments.base import (
    ExperimentPlan,
    QUALITY_FAST,
    SeedMeans,
    SeriesResult,
    SimBudget,
    add_seed_series,
    budget_for,
    sweep,
)
from repro.experiments.fig3 import ARRIVAL_RATE, DELETION_RATE, GOSSIP_RATE

SEGMENT_SIZES = {
    "fast": (1, 5, 20),
    "full": (1, 2, 5, 10, 20, 40),
}
#: any c works for Theorem 1 (collection does not change buffering); use a
#: mid-range value so the same runs double as a throughput sanity check.
CAPACITY = 8.0

#: Simulated series: label -> metric.
SIM_SERIES = {
    "sim rho": "mean_buffer_occupancy",
    "sim z0": "empty_peer_fraction",
    "sim overhead": "storage_overhead",
}


def plan_theorem1(
    quality: str = QUALITY_FAST,
    segment_sizes: Optional[Sequence[int]] = None,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """Theorem 1 validation as a task grid: one cell per (s, seed)."""
    if segment_sizes is None:
        segment_sizes = SEGMENT_SIZES["full" if quality == "full" else "fast"]
    budget = budget or budget_for(quality)
    cells = [
        (f"s={s}", Parameters(
            n_peers=budget.n_peers,
            arrival_rate=ARRIVAL_RATE,
            gossip_rate=GOSSIP_RATE,
            deletion_rate=DELETION_RATE,
            normalized_capacity=CAPACITY,
            segment_size=s,
            n_servers=budget.n_servers,
        ))
        for s in segment_sizes
    ]

    def fold(mean: SeedMeans) -> SeriesResult:
        closed = theorem1_storage(ARRIVAL_RATE, GOSSIP_RATE, DELETION_RATE)
        result = SeriesResult(
            name="theorem1",
            title=(
                "Theorem 1 — buffer occupancy rho and storage overhead "
                f"(lambda={ARRIVAL_RATE:g}, mu={GOSSIP_RATE:g}, "
                f"gamma={DELETION_RATE:g}; bound mu/gamma="
                f"{GOSSIP_RATE / DELETION_RATE:g})"
            ),
            x_name="s",
            x_values=[float(s) for s in segment_sizes],
        )
        n_points = len(segment_sizes)
        result.add_series("closed-form rho", [closed.occupancy] * n_points)
        result.add_series("closed-form z0", [closed.z0] * n_points)

        ode_rho, ode_z0 = [], []
        for s in segment_sizes:
            model = CollectionODE(
                ARRIVAL_RATE, GOSSIP_RATE, DELETION_RATE, s, CAPACITY
            )
            z, _ = model.steady_z()
            degrees = range(len(z))
            ode_rho.append(float(sum(i * z[i] for i in degrees)))
            ode_z0.append(float(z[0]))
        result.add_series("ODE rho", ode_rho)
        result.add_series("ODE z0", ode_z0)

        add_seed_series(
            result, mean, SIM_SERIES, [f"s={s}" for s in segment_sizes]
        )
        result.add_note(
            "Theorem 1 claims rho is independent of s and overhead < "
            f"mu/gamma = {GOSSIP_RATE / DELETION_RATE:g}"
        )
        return result

    return sweep("theorem1", budget, cells, tuple(SIM_SERIES.values()), fold)
