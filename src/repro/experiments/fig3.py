"""E-FIG3 — Fig. 3: session throughput as a function of segment size s.

Paper setting: ``lambda = 20, mu = 10, gamma = 1``; the y-axis is the
session throughput normalized by the aggregate demand ``N * lambda``; one
curve per normalized server capacity ``c``, each approaching its dashed
capacity line ``c / lambda`` as ``s`` grows.

Reproduced series per ``c``:

- ``analytic`` — Theorem 2 on the ODE steady state (the closed form for
  s = 1, which the tests verify agrees with the ODE),
- ``sim`` — the event-driven protocol simulator,
- ``capacity`` — the dashed line ``c / lambda``.

Expected shape: throughput increases monotonically with ``s`` toward the
capacity line, saturating around ``s = 20..30``; the relative gap to
capacity is widest for the largest ``c`` (the paper's closing observation
for this figure).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.analysis.theorems import analyze
from repro.core.params import Parameters
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    seed_mean,
    seed_cells,
)

#: Paper parameters for Fig. 3.
ARRIVAL_RATE = 20.0
GOSSIP_RATE = 10.0
DELETION_RATE = 1.0

SEGMENT_SIZES = {
    "fast": (1, 2, 5, 10, 20, 30),
    "full": (1, 2, 5, 10, 20, 30, 50),
}
CAPACITIES = (4.0, 8.0, 12.0)

METRICS = ("normalized_throughput",)


def segment_grid(
    budget: SimBudget,
    capacities: Sequence[float],
    segment_sizes: Sequence[int],
    metrics: Sequence[str],
) -> List[SimTask]:
    """One simulation per (c, s, seed) at the paper's Fig. 3 rates: the task
    grid Figs. 3, 5 and 6 share, each reading its own *metrics*."""
    tasks = []
    for c in capacities:
        for s in segment_sizes:
            params = Parameters(
                n_peers=budget.n_peers,
                arrival_rate=ARRIVAL_RATE,
                gossip_rate=GOSSIP_RATE,
                deletion_rate=DELETION_RATE,
                normalized_capacity=c,
                segment_size=s,
                n_servers=budget.n_servers,
            )
            tasks.extend(seed_cells(budget, f"c={c:g}:s={s}", params, metrics))
    return tasks


def plan_fig3(
    quality: str = QUALITY_FAST,
    segment_sizes: Optional[Sequence[int]] = None,
    capacities: Sequence[float] = CAPACITIES,
    budget: Optional[SimBudget] = None,
    include_simulation: bool = True,
) -> ExperimentPlan:
    """Fig. 3 as a task grid: one cell per (c, s, seed) simulation."""
    if segment_sizes is None:
        segment_sizes = SEGMENT_SIZES["full" if quality == "full" else "fast"]
    budget = budget or budget_for(quality)
    x_values = [float(s) for s in segment_sizes]

    tasks = (
        segment_grid(budget, capacities, segment_sizes, METRICS)
        if include_simulation else []
    )

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        result = SeriesResult(
            name="fig3",
            title=(
                "Fig. 3 — normalized session throughput vs segment size s "
                f"(lambda={ARRIVAL_RATE:g}, mu={GOSSIP_RATE:g}, "
                f"gamma={DELETION_RATE:g})"
            ),
            x_name="s",
            x_values=x_values,
        )
        for c in capacities:
            analytic = []
            for s in segment_sizes:
                point = analyze(ARRIVAL_RATE, GOSSIP_RATE, DELETION_RATE, s, c)
                analytic.append(point.throughput.normalized_throughput)
            result.add_series(f"analytic c={c:g}", analytic)
            if include_simulation:
                simulated = [
                    seed_mean(
                        payloads, f"c={c:g}:s={s}", budget.seeds,
                        "normalized_throughput",
                    )
                    for s in segment_sizes
                ]
                result.add_series(f"sim c={c:g}", simulated)
            capacity_line = min(c / ARRIVAL_RATE, 1.0)
            result.add_series(
                f"capacity c={c:g}", [capacity_line] * len(x_values)
            )
        result.add_note(
            "shape target: throughput rises with s toward each capacity "
            "line, saturating by s~20-30; the gap is widest for the "
            "largest c"
        )
        return result

    return ExperimentPlan("fig3", tasks, merge)
