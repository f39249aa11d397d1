"""E-FIG3, E-FIG5, E-FIG6 — the paper's (c, s) segment-size sweep.

Figs. 3, 5 and 6 share one setting, ``lambda = 20, mu = 10, gamma = 1``,
and one grid: a simulation per (normalized server capacity ``c``, segment
size ``s``, seed).  Each figure reads its own metric from those runs and
sets it beside its own Theorem on the ODE steady state; per ``c`` the
reproduced series are

- ``analytic`` — the figure's Theorem evaluated by
  :func:`repro.analysis.theorems.analyze`,
- ``sim`` — the event-driven protocol simulator's seed mean,

plus, for Fig. 3 only, the dashed capacity line ``c / lambda``.  Each
:class:`SegmentFigure` entry below states its figure's paper mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from repro.analysis.theorems import AnalyticalPoint, analyze
from repro.core.params import Parameters
from repro.experiments.base import (
    ExperimentPlan,
    QUALITY_FAST,
    SeedMeans,
    SeriesResult,
    SimBudget,
    budget_for,
    sweep,
)

#: Paper parameters for Figs. 3, 5 and 6.
ARRIVAL_RATE = 20.0
GOSSIP_RATE = 10.0
DELETION_RATE = 1.0

SEGMENT_SIZES = {
    "fast": (1, 2, 5, 10, 20, 30),
    "full": (1, 2, 5, 10, 20, 30, 50),
}
CAPACITIES = (4.0, 8.0, 12.0)


@dataclass(frozen=True)
class SegmentFigure:
    """One figure over the (c, s) grid.

    ``theorem`` reads the analytic value off ``analyze(...)``;
    ``negative_note`` is added (before ``note``) when an analytic value
    is negative; ``capacity_line`` adds the ``c / lambda`` series.
    """

    name: str
    title: str
    metric: str
    theorem: Callable[[AnalyticalPoint], float]
    note: str
    negative_note: Optional[str] = None
    capacity_line: bool = False


# Fig. 3 — the y-axis is session throughput normalized by the aggregate
# demand N * lambda; one curve per c, each approaching its dashed capacity
# line c / lambda as s grows.  ``analytic`` is Theorem 2 (the closed form
# for s = 1, which the tests verify agrees with the ODE).  Expected shape:
# throughput increases monotonically with s toward the capacity line,
# saturating around s = 20..30; the relative gap to capacity is widest for
# the largest c (the paper's closing observation for this figure).
FIG3 = SegmentFigure(
    name="fig3",
    title="Fig. 3 — normalized session throughput vs segment size s",
    metric="normalized_throughput",
    theorem=lambda point: point.throughput.normalized_throughput,
    note=(
        "shape target: throughput rises with s toward each capacity "
        "line, saturating by s~20-30; the gap is widest for the "
        "largest c"
    ),
    capacity_line=True,
)

# Fig. 5 — block delay is the delivery delay of a segment divided by the
# segment size.  ``analytic`` is Theorem 3's Little's-law expression
# T(s) = sum w_i / lambda - sum m_i^s / (lambda sigma); ``sim`` is the
# mean over segments completed in the measurement window of
# (completion time - injection time) / s.  Faithfulness note: Theorem 3
# assumes blocks are eventually reconstructed; in heavy-loss corners
# (small s, small c) it can go slightly negative — reported as computed
# and flagged.  Expected shape: delay peaks at a small coded segment size
# (paper: around s = 5) and decreases again for large s; the paper's
# conclusion combines this with Fig. 3 into the recommendation
# s in [20, 40].
FIG5 = SegmentFigure(
    name="fig5",
    title="Fig. 5 — average block delivery delay T(s)",
    metric="mean_block_delay",
    theorem=lambda point: point.delay.block_delay,
    note=(
        "shape target: delay peaks at a small coded s (paper: ~5) and "
        "decreases for large s"
    ),
    negative_note=(
        "negative analytic delays mark heavy-loss corners where "
        "Theorem 3's eventually-reconstructed assumption fails; the "
        "simulated (observed) delay is the physical value there"
    ),
)

# Fig. 6 — data saved in each peer for future delivery: Theorem 4's
# S / N = s * sum_{i >= s} (w_i - m_i^s), the average number of original
# blocks per peer decodable from network-buffered coded blocks but not yet
# reconstructed by the servers (the "buffering zone" servers can still
# pull when demand falls); ``sim`` is the exact time-average of that
# population.  Expected shape: the saved amount decreases with s — total
# buffered data is s-independent (Theorem 1) while throughput grows with s
# (Theorem 2) — yet stays positive at every s, the guaranteed
# delayed-delivery reserve the paper emphasizes.
FIG6 = SegmentFigure(
    name="fig6",
    title="Fig. 6 — original blocks per peer saved for future delivery",
    metric="saved_blocks_per_peer",
    theorem=lambda point: point.saved.saved_blocks_per_peer,
    note=(
        "shape target: saved data decreases with s (throughput rises "
        "while total buffering is s-independent) but stays positive — "
        "the guaranteed delayed-delivery reserve"
    ),
)


def plan_segment_figure(
    figure: SegmentFigure,
    quality: str = QUALITY_FAST,
    segment_sizes: Optional[Sequence[int]] = None,
    capacities: Sequence[float] = CAPACITIES,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """*figure* as a task grid: one cell per (c, s, seed) simulation."""
    if segment_sizes is None:
        segment_sizes = SEGMENT_SIZES["full" if quality == "full" else "fast"]
    budget = budget or budget_for(quality)
    cells = [
        (f"c={c:g}:s={s}", Parameters(
            n_peers=budget.n_peers,
            arrival_rate=ARRIVAL_RATE,
            gossip_rate=GOSSIP_RATE,
            deletion_rate=DELETION_RATE,
            normalized_capacity=c,
            segment_size=s,
            n_servers=budget.n_servers,
        ))
        for c in capacities
        for s in segment_sizes
    ]

    def fold(mean: SeedMeans) -> SeriesResult:
        result = SeriesResult(
            name=figure.name,
            title=(
                f"{figure.title} (lambda={ARRIVAL_RATE:g}, "
                f"mu={GOSSIP_RATE:g}, gamma={DELETION_RATE:g})"
            ),
            x_name="s",
            x_values=[float(s) for s in segment_sizes],
        )
        negative = False
        for c in capacities:
            analytic = [
                figure.theorem(
                    analyze(ARRIVAL_RATE, GOSSIP_RATE, DELETION_RATE, s, c)
                )
                for s in segment_sizes
            ]
            negative = negative or any(value < 0 for value in analytic)
            result.add_series(f"analytic c={c:g}", analytic)
            result.add_series(
                f"sim c={c:g}",
                [mean(f"c={c:g}:s={s}", figure.metric) for s in segment_sizes],
            )
            if figure.capacity_line:
                result.add_series(
                    f"capacity c={c:g}",
                    [min(c / ARRIVAL_RATE, 1.0)] * len(segment_sizes),
                )
        if negative and figure.negative_note:
            result.add_note(figure.negative_note)
        result.add_note(figure.note)
        return result

    return sweep(figure.name, budget, cells, (figure.metric,), fold)


#: The three figures' builders (``quality``, ``segment_sizes``,
#: ``capacities`` and ``budget`` keywords).
plan_fig3 = partial(plan_segment_figure, FIG3)
plan_fig5 = partial(plan_segment_figure, FIG5)
plan_fig6 = partial(plan_segment_figure, FIG6)
