"""E-ADVERSARY: graceful degradation under Byzantine peers, with defenses.

E-ROBUST stresses the protocol with *passive* faults; this family stresses
it with peers that misbehave *strategically* (see :mod:`repro.adversary`):
liars that bait server pulls and serve junk, free-riders that hoard,
polluters that target the least-replicated segments, and sybil bursts that
convert slots into adversarial identities through the churn model.  The
grid sweeps adversary fraction x strategy x defenses on/off and reports,
per (strategy, defense arm), against the honest baseline of the same arm:

- **delivery ratio** — normalized goodput over the honest baseline's
  (1.0 = no degradation);
- **delay inflation** — mean per-block delivery delay over the honest
  baseline's (1.0 = no slowdown);
- **junk ratio** — junk blocks served per server pull (the bandwidth the
  adversary burns);

plus defense-quality notes: false-quarantine counts on every defended cell
and, per strategy, the fraction of the lost headroom the defenses
(pull-source scoring + advertisement discounting, both on in the "on" arm)
claw back at adversary fractions >= 0.2.  Recovery is computed on goodput
and on *collection delay per delivered original block* (measurement window
over delivered blocks, i.e. 1/goodput): the survivor-only ``mean_block_delay``
is reported as a curve but is biased exactly where degradation is worst —
under a total collapse no segment completes, so the survivors' mean delay
is undefined while the per-block collection delay correctly diverges (and
a defense that restores completion recovers that headroom in full).

All cells — including the baselines — run under the eDonkey-shaped
:class:`repro.stats.workload.TraceWorkload` (diurnal base x heavy-tailed
sessions), so the degradation ratios are measured on the workload the
motivation section argues actually matters, and the workload realization
is identical across cells (fixed trace seed) so ratios compare like with
like.

Free-riders are the honest-blocks edge case: they serve *clean* blocks
when pulled, so the pull-scoring defense has nothing to convict them of —
their damage (lost replication) and its defense-resistance are reported
as-is rather than hidden.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.adversary.plan import AdversaryPlan
from repro.core.params import Parameters
from repro.experiments.base import (
    ExperimentPlan,
    QUALITY_FAST,
    SeedMeans,
    SeriesResult,
    SimBudget,
    budget_for,
    require_event_engine,
    sweep,
)
from repro.experiments.robustness import add_degradation
from repro.stats.workload import TraceWorkload

#: The four Byzantine strategies, swept one at a time.
STRATEGIES = ("liars", "freeriders", "polluters", "sybils")
#: Defense arms: every cell runs once per arm against a same-arm baseline.
DEFENSE_ARMS = ("off", "on")
#: Default adversary-fraction sweep (0.0 rides the shared baselines).
DEFAULT_FRACTIONS = (0.0, 0.1, 0.2, 0.35, 0.5)

#: Fixed knobs for the non-swept part of each strategy.
LIAR_INFLATION = 8.0
SYBIL_RATE = 0.5
#: Finite churn so sybil identities are eventually replaced (the strategy
#: rides the churn model by construction).
MEAN_LIFETIME = 12.0
#: Frozen workload realization shared by every cell.
TRACE_SEED = 0
#: Operating point: gossip bandwidth is kept scarce (mu close to lambda)
#: so replication is a real resource — the regime where free-riding has
#: something to drain; c < mu preserves the Theorem 2 assumption.
ARRIVAL_RATE = 4.0
GOSSIP_RATE = 4.0
CAPACITY = 2.0
SEGMENT_SIZE = 4

WANTED = (
    "normalized_goodput",
    "mean_block_delay",
    "pulls",
    "junk_blocks_served",
    "pulls_captured",
    "gossip_suppressed",
    "pulls_quarantine_rejected",
    "slots_quarantined",
    "false_quarantines",
    "sybil_conversions",
)


def plan_for(strategy: str, fraction: float) -> AdversaryPlan:
    """Build the :class:`AdversaryPlan` of one (strategy, fraction) cell."""
    if fraction == 0.0:
        return AdversaryPlan()
    if strategy == "liars":
        return AdversaryPlan(
            liar_fraction=fraction, liar_inflation=LIAR_INFLATION
        )
    if strategy == "freeriders":
        return AdversaryPlan(freerider_fraction=fraction)
    if strategy == "polluters":
        return AdversaryPlan(polluter_fraction=fraction)
    if strategy == "sybils":
        return AdversaryPlan(sybil_rate=SYBIL_RATE, sybil_fraction=fraction)
    raise ValueError(f"unknown adversary strategy {strategy!r}")


def _base_params(
    budget: SimBudget, plan: AdversaryPlan, defended: bool
) -> Parameters:
    return Parameters(
        n_peers=budget.n_peers,
        arrival_rate=ARRIVAL_RATE,
        gossip_rate=GOSSIP_RATE,
        deletion_rate=1.0,
        normalized_capacity=CAPACITY,
        segment_size=SEGMENT_SIZE,
        n_servers=budget.n_servers,
        mean_lifetime=MEAN_LIFETIME,
        adversary=None if plan.is_null else plan,
        pull_scoring=defended,
        advert_discounting=defended,
    )


def _workload(budget: SimBudget) -> TraceWorkload:
    """The shared eDonkey-shaped trace, sized to cover the whole run."""
    return TraceWorkload(
        base_rate=ARRIVAL_RATE,
        amplitude=0.6,
        period=24.0,
        session_rate=0.25,
        mean_session=4.0,
        boost_per_session=0.5,
        peak_boost=1.0,
        horizon=budget.warmup + budget.duration + 1.0,
        seed=TRACE_SEED,
    )


def _recovery(base: float, off: float, on: float) -> float:
    """Fraction of the headroom lost (base - off) that the defenses win
    back (on - off); NaN when there was no loss to recover."""
    lost = base - off
    if not lost or math.isnan(lost) or math.isnan(on):
        return math.nan
    return (on - off) / lost


def _collection_time(goodput: float) -> float:
    """Collection delay per delivered original block: 1/goodput.

    Diverges (inf) when nothing is delivered — the honest accounting of a
    total collapse, where the survivor-only mean delay is just undefined.
    """
    if math.isnan(goodput):
        return math.nan
    if goodput <= 0.0:
        return math.inf
    return 1.0 / goodput


def _time_recovery(base: float, off: float, on: float) -> float:
    """Recovery on the collection-time axis (headroom *grows* downward).

    ``(t_off - t_on) / (t_off - t_base)``; as the undefended arm's
    collection time diverges this tends to 1.0 for any finite defended
    time — restored delivery recovers the whole (unbounded) delay loss —
    and to 0.0 when the defended arm is equally collapsed.
    """
    t_base = _collection_time(base)
    t_off = _collection_time(off)
    t_on = _collection_time(on)
    if math.isnan(t_base) or math.isnan(t_off) or math.isnan(t_on):
        return math.nan
    if math.isinf(t_off):
        return 0.0 if math.isinf(t_on) else 1.0
    lost = t_off - t_base
    if not lost:
        return math.nan
    return (t_off - t_on) / lost


def _nanmean(values: Sequence[float]) -> float:
    """Mean of the non-NaN *values*; NaN when there are none."""
    kept = [v for v in values if not math.isnan(v)]
    return math.fsum(kept) / len(kept) if kept else math.nan


def plan_adversary(
    quality: str = QUALITY_FAST,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    budget: Optional[SimBudget] = None,
) -> ExperimentPlan:
    """E-ADVERSARY as a task grid.

    One honest baseline per (defense arm, seed) — the defended baseline
    doubles as the zero-false-positive check — plus one cell per
    (strategy, fraction > 0, defense arm, seed).
    """
    budget = budget or budget_for(quality)
    require_event_engine(budget, "adversary")
    base = {arm: f"baseline:defense={arm}" for arm in DEFENSE_ARMS}

    def prefix(strategy: str, fraction: float, arm: str) -> str:
        if fraction == 0.0:
            return base[arm]
        return f"{strategy}:fraction={fraction:g}:defense={arm}"

    cells = [
        (base[arm], _base_params(budget, AdversaryPlan(), arm == "on"))
        for arm in DEFENSE_ARMS
    ] + [
        (prefix(strategy, fraction, arm),
         _base_params(budget, plan_for(strategy, fraction), arm == "on"))
        for strategy in STRATEGIES
        for fraction in fractions
        if fraction != 0.0
        for arm in DEFENSE_ARMS
    ]

    def fold(mean: SeedMeans) -> SeriesResult:
        result = SeriesResult(
            name="adversary",
            title="Adversary — Byzantine strategies: delivery ratio, delay "
            "inflation, and junk ratio vs honest baseline, defenses "
            "off/on (lambda=4, mu=4, gamma=1, c=2, s=4, trace workload)",
            x_name="fraction",
            x_values=[float(f) for f in fractions],
        )
        result.add_note(
            "honest baselines (defenses off/on): normalized goodput "
            f"{mean(base['off'], 'normalized_goodput'):.4f}/"
            f"{mean(base['on'], 'normalized_goodput'):.4f}, mean block delay "
            f"{mean(base['off'], 'mean_block_delay'):.4f}/"
            f"{mean(base['on'], 'mean_block_delay'):.4f}"
        )
        false_quarantines = mean(base["on"], "false_quarantines")
        base_goodput = mean(base["off"], "normalized_goodput")
        recovery_notes: List[str] = []
        for strategy in STRATEGIES:
            for arm in DEFENSE_ARMS:
                prefixes = [prefix(strategy, f, arm) for f in fractions]
                tag = f"{strategy} [defenses {arm}]"
                add_degradation(result, mean, base[arm], prefixes, tag)
                junk = []
                for cell in prefixes:
                    pulls = mean(cell, "pulls")
                    junk.append(
                        mean(cell, "junk_blocks_served") / pulls
                        if pulls
                        else math.nan
                    )
                result.add_series(f"junk ratio: {tag}", junk)
                if arm == "on":
                    for fraction, cell in zip(fractions, prefixes):
                        if fraction > 0.0:
                            false_quarantines += mean(
                                cell, "false_quarantines"
                            )
            # Defense recovery at the acceptance fractions (>= 0.2): how
            # much of the goodput loss and the per-block collection-delay
            # inflation the defended arm claws back against the undefended
            # honest baseline.
            goodput_rec, delay_rec = [], []
            for fraction in fractions:
                if fraction < 0.2:
                    continue
                off, on = (
                    mean(prefix(strategy, fraction, arm), "normalized_goodput")
                    for arm in DEFENSE_ARMS
                )
                goodput_rec.append(_recovery(base_goodput, off, on))
                delay_rec.append(_time_recovery(base_goodput, off, on))
            recovery_notes.append(
                f"{strategy}: goodput recovery {_nanmean(goodput_rec):.2f}, "
                f"collection-delay recovery {_nanmean(delay_rec):.2f}"
            )
        result.add_note(
            "defense recovery at fractions >= 0.2 (1.0 = full headroom "
            "recovered, 0 = none; collection delay = window per delivered "
            "original block): " + "; ".join(recovery_notes)
        )
        result.add_note(
            f"false quarantines across every defended cell: "
            f"{false_quarantines:g} (honest identities wrongly quarantined; "
            "must be 0 at default thresholds)"
        )
        result.add_note(
            "expected: liars collapse goodput via captured pulls and are "
            "the defenses' best case (scoring quarantines them, discounting "
            "removes their attraction); polluters burn pulls until scored "
            "out; free-riders serve clean blocks so scoring cannot convict "
            "them — their (milder) replication damage stands; sybils are "
            "liars with identity churn, so defenses must re-learn each "
            "burst"
        )
        return result

    return sweep("adversary", budget, cells, WANTED, fold, _workload(budget))
