"""Vectorized fault/adversary decisions for the fast engine.

:class:`FastFaultMasks` and :class:`FastAdversaryMasks` extend the scalar
statements of the rules — :class:`repro.faults.injector.FaultVerdicts` and
:class:`repro.adversary.injector.AdversaryRoles` — with what is genuinely
batch: per-transfer loss and capture decisions over a vector of uniforms,
boolean slot masks, and the outage timeline clipped to the run's horizon.
*Who* misbehaves and *how many* a burst hits are inherited, drawn from the
same-named ``random.Random`` substreams as the event engine's injectors,
so a same-seed fast run and event run pick the same slots; *when* the
servers are down is the inherited timeline (docs/PROTOCOL.md, "Where each
rule is stated").

A scalar injector decides ``u < p`` per transfer; the mask methods decide
the identical predicate over a vector of uniforms (property-tested by
replaying one uniform stream, ``tests/test_fastsim_masks.py``).

Zero knobs are inert exactly as for the scalar classes: every query
short-circuits on the plan knob *before* touching any RNG, so a null
channel consumes no randomness (the zero-knob table test calls each
decision method below, same as the inherited ones, with its knob off).
"""

from __future__ import annotations

import random
from itertools import takewhile
from typing import FrozenSet, Optional, Tuple

import numpy as np

from repro.adversary.injector import AdversaryRoles
from repro.adversary.plan import TARGET_LOW_DEGREE, AdversaryPlan
from repro.faults.injector import FaultVerdicts
from repro.faults.plan import FaultPlan


class FastFaultMasks(FaultVerdicts):
    """Batch fault-channel decisions over one :class:`FaultPlan`.

    Args:
        plan: The fault configuration.
        py_rng: Dedicated ``random.Random`` substream for everything
            inherited (polluter set, burst slots, renewal outage gaps).
        np_rng: Dedicated numpy substream for the vectorized per-transfer
            loss draws.
        n_slots: Number of peer slots.
    """

    def __init__(
        self,
        plan: FaultPlan,
        py_rng: random.Random,
        np_rng: np.random.Generator,
        n_slots: int,
    ) -> None:
        super().__init__(plan, n_slots, py_rng, py_rng)
        self._np_rng = np_rng

    def polluter_mask(self) -> np.ndarray:
        """Boolean slot mask of the configured polluters."""
        mask = np.zeros(self._n_slots, dtype=bool)
        if self.polluters:
            mask[np.fromiter(self.polluters, dtype=np.int64)] = True
        return mask

    # -- hot-path queries (zero-knob cases must not touch the RNG) ----------

    def gossip_loss_mask(self, count: int) -> Optional[np.ndarray]:
        """Per-transfer loss decisions for *count* gossip deliveries.

        Returns None (no transfer lost, no RNG touched) when the knob is
        off — the vector form of ``p > 0.0 and rng.random() < p``.
        """
        p = self.plan.gossip_loss_rate
        if p > 0.0:
            return self._np_rng.random(count) < p
        return None

    def pull_loss_mask(self, count: int) -> Optional[np.ndarray]:
        """Per-pull transfer-loss decisions for *count* server pulls."""
        p = self.plan.pull_loss_rate
        if p > 0.0:
            return self._np_rng.random(count) < p
        return None

    # -- outage event support -----------------------------------------------

    def outage_timeline(self, horizon: float) -> Tuple[Tuple[float, float], ...]:
        """The shared outage timeline (:meth:`FaultVerdicts.outages`),
        drawn up front and clipped to ``[0, horizon]``."""
        windows = takewhile(
            lambda window: window[0] < horizon, self.outages(self._rng)
        )
        return tuple((start, min(end, horizon)) for start, end in windows)


class FastAdversaryMasks(AdversaryRoles):
    """Batch adversary decisions over one :class:`AdversaryPlan`.

    Sybil conversions are identity-scoped and live in the system's role
    arrays (cleared on churn), not here.
    """

    def __init__(
        self,
        plan: AdversaryPlan,
        py_rng: random.Random,
        np_rng: np.random.Generator,
        n_slots: int,
    ) -> None:
        super().__init__(plan, n_slots, py_rng)
        self._np_rng = np_rng

    def role_mask(self, slots: FrozenSet[int]) -> np.ndarray:
        """Boolean slot mask of one role set."""
        mask = np.zeros(self._n_slots, dtype=bool)
        if slots:
            mask[np.fromiter(slots, dtype=np.int64)] = True
        return mask

    @property
    def targets_low_degree(self) -> bool:
        """True when strategic polluters steer at low-degree segments."""
        return (
            bool(self.polluters)
            and self.plan.polluter_targeting == TARGET_LOW_DEGREE
        )

    # -- liar advertisement capture -----------------------------------------

    def capture_mask(self, count: int, attractor_count: int) -> Optional[np.ndarray]:
        """Per-pull capture decisions; None when nobody advertises."""
        p = self.capture_probability(attractor_count)
        if p > 0.0:
            return self._np_rng.random(count) < p
        return None

    def capture_attractors(
        self, count: int, attractors: np.ndarray
    ) -> np.ndarray:
        """Uniformly sample the capturing slot for *count* captured pulls."""
        picks = self._np_rng.integers(0, len(attractors), size=count)
        return attractors[picks]
