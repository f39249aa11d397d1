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
from typing import Dict, List, Mapping, Optional, Sequence

from repro.adversary.plan import AdversaryPlan
from repro.core.params import Parameters
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    QUALITY_FAST,
    SeriesResult,
    SimBudget,
    budget_for,
    seed_mean,
    seed_cells,
    require_event_engine,
)
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


def _ratio(value: float, baseline: float) -> float:
    if not baseline or math.isnan(value) or math.isnan(baseline):
        return math.nan
    return value / baseline


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
    workload = _workload(budget)

    tasks = []
    for arm in DEFENSE_ARMS:
        params = _base_params(budget, AdversaryPlan(), defended=arm == "on")
        tasks.extend(seed_cells(
            budget, f"baseline:defense={arm}", params, WANTED, workload,
        ))
    for strategy in STRATEGIES:
        for fraction in fractions:
            if fraction == 0.0:
                continue
            plan = plan_for(strategy, fraction)
            for arm in DEFENSE_ARMS:
                params = _base_params(budget, plan, defended=arm == "on")
                prefix = f"{strategy}:fraction={fraction:g}:defense={arm}"
                tasks.extend(seed_cells(
                    budget, prefix, params, WANTED, workload,
                ))

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        result = SeriesResult(
            name="adversary",
            title="Adversary — Byzantine strategies: delivery ratio, delay "
            "inflation, and junk ratio vs honest baseline, defenses "
            "off/on (lambda=4, mu=4, gamma=1, c=2, s=4, trace workload)",
            x_name="fraction",
            x_values=[float(f) for f in fractions],
        )
        base: Dict[str, Dict[str, float]] = {}
        for arm in DEFENSE_ARMS:
            base[arm] = {
                name: seed_mean(
                    payloads, f"baseline:defense={arm}", budget.seeds, name
                )
                for name in WANTED
            }
        result.add_note(
            "honest baselines (defenses off/on): normalized goodput "
            f"{base['off']['normalized_goodput']:.4f}/"
            f"{base['on']['normalized_goodput']:.4f}, mean block delay "
            f"{base['off']['mean_block_delay']:.4f}/"
            f"{base['on']['mean_block_delay']:.4f}"
        )
        false_quarantines = base["on"]["false_quarantines"]

        def cell(strategy: str, fraction: float, arm: str) -> Dict[str, float]:
            if fraction == 0.0:
                return base[arm]
            prefix = f"{strategy}:fraction={fraction:g}:defense={arm}"
            return {
                name: seed_mean(payloads, prefix, budget.seeds, name)
                for name in WANTED
            }

        recovery_notes: List[str] = []
        for strategy in STRATEGIES:
            for arm in DEFENSE_ARMS:
                delivery, inflation, junk = [], [], []
                for fraction in fractions:
                    metrics = cell(strategy, fraction, arm)
                    delivery.append(_ratio(
                        metrics["normalized_goodput"],
                        base[arm]["normalized_goodput"],
                    ))
                    inflation.append(_ratio(
                        metrics["mean_block_delay"],
                        base[arm]["mean_block_delay"],
                    ))
                    pulls = metrics["pulls"]
                    junk.append(
                        metrics["junk_blocks_served"] / pulls
                        if pulls
                        else math.nan
                    )
                    if arm == "on" and fraction > 0.0:
                        false_quarantines += metrics["false_quarantines"]
                tag = f"{strategy} [defenses {arm}]"
                result.add_series(f"delivery ratio: {tag}", delivery)
                result.add_series(f"delay inflation: {tag}", inflation)
                result.add_series(f"junk ratio: {tag}", junk)
            # Defense recovery at the acceptance fractions (>= 0.2): how
            # much of the goodput loss and the per-block collection-delay
            # inflation the defended arm claws back against the undefended
            # honest baseline.
            goodput_rec, delay_rec = [], []
            for fraction in fractions:
                if fraction < 0.2:
                    continue
                off = cell(strategy, fraction, "off")
                on = cell(strategy, fraction, "on")
                goodput_rec.append(_recovery(
                    base["off"]["normalized_goodput"],
                    off["normalized_goodput"],
                    on["normalized_goodput"],
                ))
                delay_rec.append(_time_recovery(
                    base["off"]["normalized_goodput"],
                    off["normalized_goodput"],
                    on["normalized_goodput"],
                ))
            goodput_values = [v for v in goodput_rec if not math.isnan(v)]
            delay_values = [v for v in delay_rec if not math.isnan(v)]
            mean_goodput = (
                math.fsum(goodput_values) / len(goodput_values)
                if goodput_values
                else math.nan
            )
            mean_delay = (
                math.fsum(delay_values) / len(delay_values)
                if delay_values
                else math.nan
            )
            recovery_notes.append(
                f"{strategy}: goodput recovery {mean_goodput:.2f}, "
                f"collection-delay recovery {mean_delay:.2f}"
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

    return ExperimentPlan("adversary", tasks, merge)
