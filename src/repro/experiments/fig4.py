"""E-FIG4 — Fig. 4: session throughput vs peer bandwidth mu under churn.

Paper setting: ``lambda = 8, gamma = 1``; peer dynamics follow the
replacement model with exponential lifetimes of mean ``L``; the y-axis is
again throughput normalized by ``N * lambda``.

The figure's message has two regimes:

- **ample servers** (``c = 8 = lambda``): buffering is unnecessary; under
  severe churn, larger segments and more gossip *hurt* (segments become
  undecodable when holders abort) — the dashed churn curves fall below the
  static ones and degrade as ``s`` and ``mu`` grow;
- **scarce servers** (``c = 2``, ``c/lambda = 0.25``): the servers cannot
  keep up anyway, so added redundancy helps data survive until pulled —
  throughput *benefits* from larger ``s`` and larger ``mu`` even under
  churn.

Reproduced series: for each scenario (c, s) one static curve and one
churned curve (L = 5), swept over mu.  Simulation only: the paper's ODEs do
not model churn, so this figure is simulation-driven there as well.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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

#: Paper parameters for Fig. 4.
ARRIVAL_RATE = 8.0
DELETION_RATE = 1.0
#: Churn severity: mean peer lifetime (units of 1/gamma).
CHURN_LIFETIME = 5.0

MU_VALUES = {
    "fast": (2.0, 6.0, 10.0, 16.0),
    "full": (2.0, 6.0, 10.0, 14.0, 20.0),
}

#: (c, s) scenario grid: ample vs scarce capacity, no coding vs heavy coding.
SCENARIOS = ((8.0, 1), (8.0, 30), (2.0, 1), (2.0, 30))

REGIMES = ("static", "churn")


def plan_fig4(
    quality: str = QUALITY_FAST,
    mu_values: Optional[Sequence[float]] = None,
    scenarios: Sequence[Tuple[float, int]] = SCENARIOS,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """Fig. 4 as a task grid: one cell per (c, s, regime, mu, seed)."""
    if mu_values is None:
        mu_values = MU_VALUES["full" if quality == "full" else "fast"]
    budget = budget or budget_for(quality)
    cells = [
        (f"c={c:g}:s={s}:{regime}:mu={mu:g}", Parameters(
            n_peers=budget.n_peers,
            arrival_rate=ARRIVAL_RATE,
            gossip_rate=mu,
            deletion_rate=DELETION_RATE,
            normalized_capacity=c,
            segment_size=s,
            n_servers=budget.n_servers,
            mean_lifetime=CHURN_LIFETIME if regime == "churn" else None,
        ))
        for c, s in scenarios
        for regime in REGIMES
        for mu in mu_values
    ]

    def fold(mean: SeedMeans) -> SeriesResult:
        result = SeriesResult(
            name="fig4",
            title=(
                "Fig. 4 — normalized session throughput vs mu "
                f"(lambda={ARRIVAL_RATE:g}, gamma={DELETION_RATE:g}, "
                f"churn lifetime L={CHURN_LIFETIME:g})"
            ),
            x_name="mu",
            x_values=[float(mu) for mu in mu_values],
        )
        for c, s in scenarios:
            for regime in REGIMES:
                result.add_series(f"c={c:g} s={s} {regime}", [
                    mean(
                        f"c={c:g}:s={s}:{regime}:mu={mu:g}",
                        "normalized_throughput",
                    )
                    for mu in mu_values
                ])
        result.add_note(
            "shape target: with ample capacity (c=lambda=8) churn+large s "
            "degrades throughput; with scarce capacity (c=2) larger s and "
            "mu help even under churn"
        )
        return result

    return sweep("fig4", budget, cells, ("normalized_throughput",), fold)
