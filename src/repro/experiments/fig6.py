"""E-FIG6 — Fig. 6: data saved in each peer for future delivery.

Paper setting: ``lambda = 20, mu = 10, gamma = 1``.  The quantity is
Theorem 4's ``S / N = s * sum_{i >= s} (w_i - m_i^s)`` — the average number
of original blocks per peer that are decodable from network-buffered coded
blocks but have not been reconstructed by the servers yet.  This is the
"buffering zone": data the servers can still pull later, when demand falls.

Reproduced series per capacity ``c``: ``analytic`` (Theorem 4 on the ODE
steady state) and ``sim`` (exact time-average of the
decodable-but-unreconstructed population).

Expected shape: the saved amount *decreases* with s — total buffered data
is s-independent (Theorem 1) while throughput grows with s (Theorem 2), so
more of the buffered data is already reconstructed; yet it stays positive
at every s, the guaranteed delayed-delivery reserve the paper emphasizes.
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

METRICS = ("saved_blocks_per_peer",)


def plan_fig6(
    quality: str = QUALITY_FAST,
    segment_sizes: Optional[Sequence[int]] = None,
    capacities: Sequence[float] = CAPACITIES,
    budget: Optional[SimBudget] = None,
    include_simulation: bool = True,
) -> ExperimentPlan:
    """Fig. 6 as a task grid: one cell per (c, s, seed) simulation."""
    if segment_sizes is None:
        segment_sizes = SEGMENT_SIZES["full" if quality == "full" else "fast"]
    budget = budget or budget_for(quality)

    tasks = (
        segment_grid(budget, capacities, segment_sizes, METRICS)
        if include_simulation else []
    )

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        result = SeriesResult(
            name="fig6",
            title=(
                "Fig. 6 — original blocks per peer saved for future "
                f"delivery (lambda={ARRIVAL_RATE:g}, mu={GOSSIP_RATE:g}, "
                f"gamma={DELETION_RATE:g})"
            ),
            x_name="s",
            x_values=[float(s) for s in segment_sizes],
        )
        for c in capacities:
            analytic = []
            for s in segment_sizes:
                point = analyze(ARRIVAL_RATE, GOSSIP_RATE, DELETION_RATE, s, c)
                analytic.append(point.saved.saved_blocks_per_peer)
            result.add_series(f"analytic c={c:g}", analytic)
            if include_simulation:
                simulated = [
                    seed_mean(
                        payloads, f"c={c:g}:s={s}", budget.seeds,
                        "saved_blocks_per_peer",
                    )
                    for s in segment_sizes
                ]
                result.add_series(f"sim c={c:g}", simulated)
        result.add_note(
            "shape target: saved data decreases with s (throughput rises "
            "while total buffering is s-independent) but stays positive — "
            "the guaranteed delayed-delivery reserve"
        )
        return result

    return ExperimentPlan("fig6", tasks, merge)
