"""Runtime adversary execution: the machinery behind an :class:`AdversaryPlan`.

:class:`AdversaryRoles` is the one statement of who plays which role and
of the capture/sybil arithmetic, under both simulators (the fast engine's
masks inherit it).  The :class:`AdversaryInjector` extends it into the
single object the collection system consults on its adversary-relevant hot
paths (gossip emission, server pull targeting) and the owner of the
sybil-burst clock.  It follows the same design rules as
:class:`repro.faults.injector.FaultInjector`:

- **Own randomness.**  Every adversarial draw comes from the dedicated
  ``"adversary"`` RNG substream, so enabling a strategy never perturbs the
  draws of injection, gossip, server, TTL, churn, or fault clocks.
- **Bitwise neutral at zero.**  A null plan constructs no injector at
  all (the system guards every hook on ``None``), and each query
  short-circuits before touching the RNG when its strategy is off.
- **Hooks, not references.**  Sybil bursts act through an injected
  kill-slots callback and read replacement generations through an injected
  accessor, so the injector is testable standalone and never imports the
  core layer.

Role assignment is by *slot* (like the fault channel's polluters): the
static liar/free-rider/polluter sets are disjoint slot sets sampled once at
construction and persist across churn generations.  Sybil conversions are
by *identity*: a burst force-departs slots through the churn model and
marks each replacement ``(slot, generation)`` as adversarial; when natural
churn replaces that generation, the slot reverts to honest.  An active
sybil behaves as liar + free-rider.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.adversary.plan import TARGET_LOW_DEGREE, AdversaryPlan
from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import cohort_size, exponential, sample_cohort
from repro.sim.trace import Tracer


class AdversaryRoles:
    """Role slot sets and set-size arithmetic of one :class:`AdversaryPlan`.

    Args:
        plan: The adversary configuration.
        n_slots: Number of peer slots (role sampling, capture arithmetic).
        rng: Dedicated ``random.Random`` substream; the role permutation
            is drawn from it once, here, and sybil cohorts later.
    """

    def __init__(
        self, plan: AdversaryPlan, n_slots: int, rng: random.Random
    ) -> None:
        self.plan = plan
        self._n_slots = n_slots
        self._rng = rng
        liars, freeriders, polluters = self._sample_roles()
        #: static role slot sets, disjoint by construction.
        self.liars: FrozenSet[int] = liars
        self.freeriders: FrozenSet[int] = freeriders
        self.polluters: FrozenSet[int] = polluters

    def _sample_roles(
        self,
    ) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        """Draw the disjoint liar/free-rider/polluter slot sets.

        One ``sample(range(n), n)`` permutation carved into consecutive
        prefixes, each sized by :func:`cohort_size` and capped at what the
        earlier roles left over.
        """
        plan = self.plan
        n = self._n_slots
        if plan.static_fraction <= 0.0:
            return frozenset(), frozenset(), frozenset()
        order = self._rng.sample(range(n), n)
        counts = []
        remaining = n
        for fraction in (
            plan.liar_fraction,
            plan.freerider_fraction,
            plan.polluter_fraction,
        ):
            count = 0
            if fraction > 0.0:
                count = min(remaining, cohort_size(fraction, n))
            counts.append(count)
            remaining -= count
        liar_end = counts[0]
        freerider_end = liar_end + counts[1]
        polluter_end = freerider_end + counts[2]
        return (
            frozenset(order[:liar_end]),
            frozenset(order[liar_end:freerider_end]),
            frozenset(order[freerider_end:polluter_end]),
        )

    def capture_probability(self, attractor_count: int) -> float:
        """P(one pull is captured) given *attractor_count* advertisers.

        With ``k`` advertising adversaries each inflating its apparent
        buffer by factor ``A``, a rank-weighted target selection lands on
        some adversary with probability ``A*k / (A*k + (N - k))``.
        """
        k = attractor_count
        if k <= 0:
            return 0.0
        weight = self.plan.liar_inflation * k
        honest = self._n_slots - k
        return weight / (weight + honest)

    def sybil_burst_size(self) -> int:
        """Slots converted per burst event (at least one, at most all)."""
        return cohort_size(self.plan.sybil_fraction, self._n_slots)

    def sybil_slots(self) -> List[int]:
        """Draw the slots one sybil burst converts."""
        return sample_cohort(
            self._rng, self.plan.sybil_fraction, self._n_slots
        )


class AdversaryInjector(AdversaryRoles):
    """Executes one :class:`AdversaryPlan` against a running simulation.

    Args:
        plan: The adversary configuration (must be non-null).
        sim: The simulation engine (sybil bursts are scheduled on it).
        rng: Dedicated ``random.Random`` substream for adversarial draws.
        n_slots: Number of peer slots (role sampling, capture arithmetic).
        metrics: Collector for degradation accounting.
        tracer: Optional tracer (the system emits the sybil events).
    """

    def __init__(
        self,
        plan: AdversaryPlan,
        sim: Simulator,
        rng: random.Random,
        n_slots: int,
        metrics: MetricsCollector,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(plan, n_slots, rng)
        self._sim = sim
        self._metrics = metrics
        self._tracer = tracer
        #: pre-sorted liar slots for deterministic capture choice.
        self._liar_list: Tuple[int, ...] = tuple(sorted(self.liars))
        #: active sybil identities: slot -> adversarial generation.
        self._sybils: Dict[int, int] = {}
        #: the slots advertising inflated buffers: the liars, then the sorted
        #: non-liar sybil slots; rebuilt when the marks change, not per pull.
        self._attractors: Tuple[int, ...] = self._liar_list
        self._handles: List[EventHandle] = []
        self._started = False
        # hooks bound by the system before start()
        self._kill_slots: Optional[Callable[[Sequence[int]], None]] = None
        self._get_generation: Optional[Callable[[int], int]] = None
        #: lifetime tallies (diagnostics; metrics hold windowed counts).
        self.sybil_bursts_fired = 0
        self.sybil_conversions = 0

    # -- lifecycle -------------------------------------------------------------

    def bind(
        self,
        kill_slots: Callable[[Sequence[int]], None],
        get_generation: Callable[[int], int],
    ) -> None:
        """Attach the system hooks sybil bursts act through."""
        self._kill_slots = kill_slots
        self._get_generation = get_generation

    def start(self) -> None:
        """Arm the sybil-burst clock (no-op when the strategy is off)."""
        if self._started:
            raise RuntimeError("adversary injector already started")
        self._started = True
        if self.plan.sybil_rate > 0:
            if self._kill_slots is None or self._get_generation is None:
                raise RuntimeError("bind() must be called before start()")
            self._arm_next_sybil_burst()

    def stop(self) -> None:
        """Cancel every pending sybil burst (teardown for repeated runs)."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    # -- hot-path queries (off strategies must not touch the RNG) ----------------

    def is_sybil(self, slot: int, generation: int) -> bool:
        """True when this identity is an active sybil conversion."""
        return bool(self._sybils) and self._sybils.get(slot) == generation

    def suppress_gossip(self, slot: int, generation: int) -> bool:
        """True when the peer free-rides (gossips nothing)."""
        if not self.freeriders and not self._sybils:
            return False
        return slot in self.freeriders or self.is_sybil(slot, generation)

    def targets_low_degree(self, slot: int) -> bool:
        """True when *slot* is a strategic polluter steering its emissions
        at the least-replicated segment it holds."""
        if not self.polluters:
            return False
        return (
            self.plan.polluter_targeting == TARGET_LOW_DEGREE
            and slot in self.polluters
        )

    def pollutes_gossip(self, slot: int) -> bool:
        """True when *slot* corrupts the block it is about to gossip."""
        return bool(self.polluters) and slot in self.polluters

    def serves_junk(self, slot: int, generation: int) -> bool:
        """True when a server pull from this identity yields a junk block.

        Liars and active sybils bait-and-switch; polluters corrupt every
        emission.  Free-riders serve honest blocks — hoarding, not lying.
        """
        if not self.liars and not self.polluters and not self._sybils:
            return False
        return (
            slot in self.liars
            or slot in self.polluters
            or self.is_sybil(slot, generation)
        )

    def is_adversarial(self, slot: int, generation: int) -> bool:
        """True when this identity plays any adversarial role."""
        return (
            slot in self.liars
            or slot in self.freeriders
            or slot in self.polluters
            or self.is_sybil(slot, generation)
        )

    # -- liar advertisement capture ----------------------------------------------

    def _rebuild_attractors(self) -> None:
        self._attractors = self._liar_list + tuple(
            slot for slot in sorted(self._sybils) if slot not in self.liars
        )

    def slot_replaced(self, slot: int) -> None:
        """The system replaced *slot*'s occupant (natural churn, a burst or
        a sybil kill): a sybil mark on the departed identity is stale."""
        if slot in self._sybils:
            del self._sybils[slot]
            self._rebuild_attractors()

    def capture_pull(self) -> Optional[int]:
        """Decide whether an advertising adversary captures one pull.

        The pull lands on an advertising adversary with
        :meth:`capture_probability`; the captured slot is then uniform
        among them.  Returns the capturing slot, or None when the pull
        proceeds through the honest selection path.  Runs with no liars
        and no sybils return None without touching the RNG.
        """
        attractors = self._attractors
        k = len(attractors)
        if k == 0:
            return None
        if self._rng.random() >= self.capture_probability(k):
            return None
        return attractors[self._rng.randrange(k)]

    def accept_capture(self, trust: float) -> bool:
        """Advertisement discounting: a capture survives with prob *trust*."""
        if trust >= 1.0:
            return True
        return trust > 0.0 and self._rng.random() < trust

    # -- sybil bursts ------------------------------------------------------------

    def active_sybil_count(self) -> int:
        """Sybil marks whose identity still holds its slot."""
        get_generation = self._get_generation
        if get_generation is None:
            return len(self._sybils)
        return sum(
            get_generation(slot) == generation
            for slot, generation in self._sybils.items()
        )

    def _arm_next_sybil_burst(self) -> None:
        gap = exponential(self._rng, self.plan.sybil_rate)
        self._handles.append(self._sim.schedule(gap, self._fire_sybil_burst))

    def _fire_sybil_burst(self) -> None:
        slots = self.sybil_slots()
        self.sybil_bursts_fired += 1
        assert self._kill_slots is not None  # start() enforces bind()
        assert self._get_generation is not None
        # The kill hook rides the churn replacement model: each slot's
        # occupant departs and a fresh identity joins; we mark exactly that
        # replacement generation as the adversarial identity.
        self._kill_slots(slots)
        for slot in slots:
            self._sybils[slot] = self._get_generation(slot)
        self._rebuild_attractors()
        self.sybil_conversions += len(slots)
        self._arm_next_sybil_burst()
