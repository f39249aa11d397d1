"""Declarative adversary configuration: who misbehaves, and how.

An :class:`AdversaryPlan` is the Byzantine counterpart of
:class:`repro.faults.plan.FaultPlan`: a frozen bundle of *strategic*
misbehavior knobs the collection system threads into its hot paths through
an :class:`repro.adversary.injector.AdversaryInjector`.  Where the fault
plan models passive failures (links drop, servers crash, peers churn), the
adversary plan models peers that follow the protocol's letter while
violating its spirit — the behaviors the eDonkey measurement studies
document at deployed scale:

- **liars** — advertise inflated buffer rank/degree so the servers' pull
  selection gravitates toward them, then serve junk blocks;
- **free-riders** — accept gossiped blocks but never gossip anything,
  draining replication from the swarm while consuming its bandwidth;
- **strategic polluters** — corrupt their emissions like the fault
  channel's polluters, but target the *lowest-degree* segments, attacking
  exactly the segments with the least redundancy to spare;
- **sybil bursts** — Poisson-timed events that convert a random fraction
  of peer slots into fresh adversarial identities, riding the churn
  replacement model (a sybil identity behaves as liar + free-rider until
  natural churn replaces it).

All knobs default to "off"; a default-constructed plan is *null* and the
injector built from it is never constructed at all — a run with a null
plan is event-for-event identical to a run with no plan (the null-plan
property test in ``tests/test_adversary.py`` asserts exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.util.validation import (
    require_in_range,
    require_nonnegative,
    require_probability,
)

#: Strategic polluter segment-targeting rules.
TARGET_LOW_DEGREE = "low-degree"
TARGET_UNIFORM = "uniform"
VALID_TARGETING = (TARGET_LOW_DEGREE, TARGET_UNIFORM)


@dataclass(frozen=True)
class AdversaryPlan:
    """Complete Byzantine-behavior configuration for one session."""

    #: fraction of peer slots that lie about their buffers to attract pulls
    #: and then serve junk.
    liar_fraction: float = 0.0
    #: advertisement inflation factor A >= 1: a pull is captured by some
    #: liar with probability A*k / (A*k + (N - k)) where k counts the
    #: currently advertising adversaries (liars plus active sybils).
    liar_inflation: float = 8.0
    #: fraction of peer slots that accept blocks but never gossip.
    freerider_fraction: float = 0.0
    #: fraction of peer slots that corrupt every block they emit.
    polluter_fraction: float = 0.0
    #: which segments strategic polluters spread junk into:
    #: ``"low-degree"`` targets the held segment with the least network
    #: redundancy; ``"uniform"`` keeps the protocol's own selection rule.
    polluter_targeting: str = TARGET_LOW_DEGREE
    #: Poisson rate of sybil-burst events (correlated adversarial joins).
    sybil_rate: float = 0.0
    #: fraction of peer slots converted to sybil identities per burst.
    sybil_fraction: float = 0.0

    def __post_init__(self) -> None:
        require_probability("liar_fraction", self.liar_fraction)
        require_in_range("liar_inflation", self.liar_inflation, low=1.0)
        require_probability("freerider_fraction", self.freerider_fraction)
        require_probability("polluter_fraction", self.polluter_fraction)
        require_nonnegative("sybil_rate", self.sybil_rate)
        require_probability("sybil_fraction", self.sybil_fraction)
        if self.polluter_targeting not in VALID_TARGETING:
            raise ValueError(
                f"polluter_targeting must be one of {VALID_TARGETING}, "
                f"got {self.polluter_targeting!r}"
            )
        total = (
            self.liar_fraction
            + self.freerider_fraction
            + self.polluter_fraction
        )
        if total > 1.0:
            raise ValueError(
                "liar_fraction + freerider_fraction + polluter_fraction must "
                f"be <= 1 (roles are disjoint slot sets), got {total!r}"
            )
        if self.sybil_rate > 0 and self.sybil_fraction <= 0:
            raise ValueError(
                "sybil bursts need sybil_fraction > 0 when sybil_rate > 0"
            )

    # -- derived ---------------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when every adversarial strategy is disabled."""
        return (
            self.liar_fraction == 0.0
            and self.freerider_fraction == 0.0
            and self.polluter_fraction == 0.0
            and self.sybil_rate == 0.0
        )

    @property
    def static_fraction(self) -> float:
        """Fraction of slots adversarial from t=0 (excludes sybil churn)."""
        return (
            self.liar_fraction
            + self.freerider_fraction
            + self.polluter_fraction
        )

    def describe(self) -> str:
        """One-line human-readable summary of the active strategies."""
        parts: List[str] = []
        if self.liar_fraction:
            parts.append(
                f"liars={self.liar_fraction:g}x{self.liar_inflation:g}"
            )
        if self.freerider_fraction:
            parts.append(f"freeriders={self.freerider_fraction:g}")
        if self.polluter_fraction:
            parts.append(
                f"polluters={self.polluter_fraction:g}"
                f"({self.polluter_targeting})"
            )
        if self.sybil_rate:
            parts.append(
                f"sybils(rate={self.sybil_rate:g},"
                f"frac={self.sybil_fraction:g})"
            )
        return " ".join(parts) if parts else "no adversaries"
