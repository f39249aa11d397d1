"""E-FIG5 — Fig. 5: average block delivery delay T for different s.

Paper setting: ``lambda = 20, mu = 10, gamma = 1``.  Block delay is the
delivery delay of a segment divided by the segment size (Theorem 3).

Reproduced series per capacity ``c``:

- ``analytic`` — Theorem 3's Little's-law expression
  ``T(s) = sum w_i / lambda - sum m_i^s / (lambda sigma)`` on the ODE steady
  state.  Faithfulness note: the expression is derived assuming blocks are
  eventually reconstructed; in heavy-loss corners (small s, small c) it can
  go slightly negative — we report it as computed and flag such points.
- ``sim`` — mean over segments actually completed in the measurement
  window of ``(completion time - injection time) / s``.

Expected shape: delay peaks at a small coded segment size (paper: around
s = 5) and decreases again for large s; the paper's conclusion combines
this with Fig. 3 into the recommendation ``s in [20, 40]``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.analysis.theorems import analyze
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    budget_for,
    seed_mean,
)
from repro.experiments.fig3 import (
    ARRIVAL_RATE,
    CAPACITIES,
    DELETION_RATE,
    GOSSIP_RATE,
    SEGMENT_SIZES,
    segment_grid,
)

METRICS = ("mean_block_delay",)


def plan_fig5(
    quality: str = QUALITY_FAST,
    segment_sizes: Optional[Sequence[int]] = None,
    capacities: Sequence[float] = CAPACITIES,
    budget: Optional[SimBudget] = None,
    include_simulation: bool = True,
) -> ExperimentPlan:
    """Fig. 5 as a task grid: one cell per (c, s, seed) simulation."""
    if segment_sizes is None:
        segment_sizes = SEGMENT_SIZES["full" if quality == "full" else "fast"]
    budget = budget or budget_for(quality)

    tasks = (
        segment_grid(budget, capacities, segment_sizes, METRICS)
        if include_simulation else []
    )

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        result = SeriesResult(
            name="fig5",
            title=(
                "Fig. 5 — average block delivery delay T(s) "
                f"(lambda={ARRIVAL_RATE:g}, mu={GOSSIP_RATE:g}, "
                f"gamma={DELETION_RATE:g})"
            ),
            x_name="s",
            x_values=[float(s) for s in segment_sizes],
        )
        negative_flagged = False
        for c in capacities:
            analytic = []
            for s in segment_sizes:
                point = analyze(ARRIVAL_RATE, GOSSIP_RATE, DELETION_RATE, s, c)
                delay = point.delay.block_delay
                if delay < 0:
                    negative_flagged = True
                analytic.append(delay)
            result.add_series(f"analytic c={c:g}", analytic)
            if include_simulation:
                simulated = [
                    seed_mean(
                        payloads, f"c={c:g}:s={s}", budget.seeds,
                        "mean_block_delay",
                    )
                    for s in segment_sizes
                ]
                result.add_series(f"sim c={c:g}", simulated)
        if negative_flagged:
            result.add_note(
                "negative analytic delays mark heavy-loss corners where "
                "Theorem 3's eventually-reconstructed assumption fails; the "
                "simulated (observed) delay is the physical value there"
            )
        result.add_note(
            "shape target: delay peaks at a small coded s (paper: ~5) and "
            "decreases for large s"
        )
        return result

    return ExperimentPlan("fig5", tasks, merge)
