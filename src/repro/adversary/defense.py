"""Server-side defenses: pull-source scoring and advertisement discounting.

The servers cannot inspect a peer's buffer, but they *can* remember what
each identity delivered.  :class:`PullSourceScorer` keeps a per-identity
exponentially weighted moving average of "useful rank delivered" over the
pulls the servers issued to it:

- a block the decoder accepts as innovative scores **1.0**,
- a clean but redundant block scores **0.5** (honest peers serve these
  constantly — redundancy is the protocol's cost, not a crime),
- a detected junk block scores **0.0**.

Two defenses read the same score, each independently toggleable through
:class:`repro.core.params.Parameters`:

- **pull-source scoring** (``pull_scoring``) — identities whose score
  falls below ``threshold`` after at least ``min_pulls``
  observations are quarantined: the server re-draws its pull target.
  Every ``probation_interval``-th rejected attempt is let through as a
  probe, so an identity that starts behaving (or was wrongly demoted under
  fault-channel pollution) can climb back out.
- **advertisement discounting** (``advert_discounting``) — the liar
  capture model (see :mod:`repro.adversary.injector`) multiplies its
  capture acceptance by the target's :meth:`PullSourceScorer.trust`, so an
  identity that has served junk loses exactly the inflated attraction it
  was exploiting.

Identity is ``(slot, generation)``: churn replacing a peer resets its
score, mirroring how a real deployment can only score the identity it
talks to, not the physical machine behind it.  The scorer is fully
deterministic — it draws no randomness — so enabling it perturbs no RNG
substream.

Honest-path safety at default thresholds: with no adversaries and no
fault-channel pollution every recorded outcome is useful or redundant, so
a score is a convex combination of values >= 0.5 and can never cross the
default threshold of 0.25 — zero false quarantines, which the property
test asserts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.util.validation import (
    require_in_range,
    require_positive_int,
    require_probability,
)

#: Outcome labels for one scored pull.
OUTCOME_USEFUL = "useful"
OUTCOME_REDUNDANT = "redundant"
OUTCOME_JUNK = "junk"

#: Useful-rank value of each outcome (the EWMA input).
OUTCOME_VALUES: Dict[str, float] = {
    OUTCOME_USEFUL: 1.0,
    OUTCOME_REDUNDANT: 0.5,
    OUTCOME_JUNK: 0.0,
}


class SourceScore:
    """Mutable per-identity scoring state."""

    __slots__ = ("generation", "score", "pulls", "quarantined", "denied")

    def __init__(self, generation: int) -> None:
        self.generation = generation
        #: EWMA of useful-rank delivered; starts at full benefit of doubt.
        self.score = 1.0
        #: scored pulls observed for this identity.
        self.pulls = 0
        self.quarantined = False
        #: rejected draws since quarantine (drives the probation probe).
        self.denied = 0


class PullSourceScorer:
    """Per-identity EWMA of useful-rank-delivered, with quarantine.

    Args:
        alpha: EWMA step size in (0, 1]; larger forgets faster.
        threshold: quarantine when the score falls below this value.
        min_pulls: observations required before quarantine may trigger
            (a single unlucky redundant pull must not demote anyone).
        probation_interval: every Nth rejected draw against a quarantined
            identity is admitted as a probe so scores can recover.
        quarantine: when False the scorer only tracks trust (the
            advertisement-discounting-only configuration) and
            :meth:`admit` always returns True.
    """

    def __init__(
        self,
        alpha: float = 0.25,
        threshold: float = 0.25,
        min_pulls: int = 8,
        probation_interval: int = 64,
        quarantine: bool = True,
    ) -> None:
        require_probability("alpha", alpha)
        if alpha == 0.0:
            raise ValueError("alpha must be > 0, got 0.0 (score would freeze)")
        require_in_range("threshold", threshold, low=0.0, high=1.0)
        require_positive_int("min_pulls", min_pulls)
        require_positive_int("probation_interval", probation_interval)
        self.alpha = alpha
        self.threshold = threshold
        self.min_pulls = min_pulls
        self.probation_interval = probation_interval
        self.quarantine_enabled = quarantine
        self._scores: Dict[int, SourceScore] = {}
        #: lifetime quarantine transitions (an identity counts once).
        self.quarantines = 0

    def _score_for(self, slot: int, generation: int) -> SourceScore:
        """The identity's state; a new generation is a fresh identity."""
        state = self._scores.get(slot)
        if state is None or state.generation != generation:
            state = SourceScore(generation)
            self._scores[slot] = state
        return state

    # -- the scoring hot path ---------------------------------------------------

    def record(self, slot: int, generation: int, outcome: str) -> bool:
        """Fold one pull outcome into the identity's score.

        Returns True exactly when this observation newly quarantined the
        identity (so the caller can count/trace the transition once).
        """
        value = OUTCOME_VALUES.get(outcome)
        if value is None:
            raise ValueError(
                f"outcome must be one of {sorted(OUTCOME_VALUES)}, "
                f"got {outcome!r}"
            )
        state = self._score_for(slot, generation)
        state.pulls += 1
        state.score += self.alpha * (value - state.score)
        if not self.quarantine_enabled or state.quarantined:
            # Already quarantined identities can only *leave* via probation
            # probes lifting the score back over the threshold.
            if state.quarantined and state.score >= self.threshold:
                state.quarantined = False
                state.denied = 0
            return False
        if state.pulls >= self.min_pulls and state.score < self.threshold:
            state.quarantined = True
            state.denied = 0
            self.quarantines += 1
            return True
        return False

    def admit(self, slot: int, generation: int) -> bool:
        """Should the server pull from this identity right now?

        Non-quarantined identities are always admitted.  Quarantined ones
        are rejected, except that every ``probation_interval``-th rejection
        is converted into an admitted probe.
        """
        if not self.quarantine_enabled:
            return True
        state = self._scores.get(slot)
        if state is None or state.generation != generation:
            return True
        if not state.quarantined:
            return True
        state.denied += 1
        return state.denied % self.probation_interval == 0

    def trust(self, slot: int, generation: int) -> float:
        """Trust weight in [0, 1] for advertisement discounting.

        Unknown or barely observed identities get full trust (the servers
        have no evidence yet); scored identities get their EWMA.
        """
        state = self._scores.get(slot)
        if state is None or state.generation != generation:
            return 1.0
        if state.pulls < self.min_pulls:
            return 1.0
        return state.score

    # -- diagnostics ------------------------------------------------------------

    def is_quarantined(self, slot: int, generation: int) -> bool:
        """True when the identity is currently quarantined."""
        state = self._scores.get(slot)
        return (
            state is not None
            and state.generation == generation
            and state.quarantined
        )

    def quarantined_identities(self) -> List[Tuple[int, int]]:
        """Currently quarantined (slot, generation) pairs, sorted."""
        return sorted(
            (slot, state.generation)
            for slot, state in self._scores.items()
            if state.quarantined
        )

    def tracked_identities(self) -> int:
        """Identities with at least one scored pull."""
        return sum(1 for state in self._scores.values() if state.pulls > 0)
