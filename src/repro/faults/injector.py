"""Runtime fault injection: the machinery behind a :class:`FaultPlan`.

:class:`FaultVerdicts` is the one statement of the plan under every
engine: its per-event decisions — who pollutes, which transfer is lost,
how large a burst or a catch-up is — and its *timeline*, the lazy
per-channel iterators of when each outage window, renewal burst and
``kill-peers`` cohort falls due.  The event simulator drives both through
:class:`FaultInjector`, which schedules each channel's next event on the
engine; the live collector constructs it directly and sleeps until each
onset; the fast engine's masks inherit it and clip the outage timeline to
the run's horizon.  Design rules:

- **Own randomness.**  Verdicts draw only from the RNG substreams they are
  handed, so enabling a fault channel never perturbs the draws of
  injection, gossip, server, TTL or churn clocks.  A timeline gap is drawn
  only when its consumer asks for the next event, so every draw stays in
  the order the consumer acts in.
- **Bitwise neutral at zero.**  The engines build a verdict object only
  for a non-null plan, every query short-circuits before touching the RNG
  when its own knob is off, and a timeline whose rate is zero draws
  nothing — a system built with ``FaultPlan()`` replays the exact event
  sequence of a system built with no plan at all (the zero-knob table
  test has one row per query).
- **Hooks, not references.**  The injector manipulates the system through
  three injected callbacks (pause servers, resume servers, kill slots), so
  it is testable standalone and the system stays the owner of its state.
"""

from __future__ import annotations

import random
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.coding.block import CodedBlock, corrupt_block
from repro.faults.plan import PROC_KILL_PEERS, FaultPlan
from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import cohort_size, exponential, sample_cohort
from repro.sim.trace import KIND_OUTAGE, KIND_RECOVER, Tracer

#: Substream names shared by every process of a live swarm, so each derives
#: the identical polluter set / burst cohort sequence from the root seed.
#: (The simulators draw theirs from the ``"faults"`` substream: equal in
#: size and law, not slot for slot.)
POLLUTER_STREAM = "live:polluters"
BURST_STREAM = "live:bursts"
#: Substream the supervisor draws peer-process fault cohorts from, so the
#: processes SIGKILLed by a given plan are a pure function of the root seed.
PROCESS_STREAM = "live:process-faults"

#: An outage window: absolute ``(start, end)`` simulated times.
Window = Tuple[float, float]
#: A cohort event: its absolute onset and the population share it hits.
Cohort = Tuple[float, float]


def sample_process_cohort(
    rng: random.Random, fraction: float, n_procs: int
) -> Tuple[int, ...]:
    """Draw the peer-process cohort one process fault hits.

    Sized like every other population share (at least one process, at most
    all), so a live ``kill-peers`` event and its simulated churn-burst twin
    remove the same population share.
    """
    if n_procs < 1:
        raise ValueError(f"n_procs must be >= 1, got {n_procs}")
    return tuple(sample_cohort(rng, fraction, n_procs))


class PollutableHolding(Protocol):
    """What the pollution channel needs to know about a peer's holding."""

    @property
    def polluted_count(self) -> int:
        """Number of polluted blocks currently in the holding."""
        ...


class FaultVerdicts:
    """The per-event decisions of one :class:`FaultPlan`.

    Args:
        plan: The fault configuration.
        n_slots: Number of peer slots (polluter sampling, burst sizing).
        polluter_rng: Stream the polluter set is sampled from, once, here.
            Processes of one live swarm pass the same swarm-wide substream
            so each derives the same set; the simulators pass *rng*.
        rng: Dedicated substream for the per-transfer loss draws.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_slots: int,
        polluter_rng: random.Random,
        rng: random.Random,
    ) -> None:
        self.plan = plan
        self._n_slots = n_slots
        self._rng = rng
        self.polluters: FrozenSet[int] = self._sample_polluters(polluter_rng)

    def _sample_polluters(self, rng: random.Random) -> FrozenSet[int]:
        fraction = self.plan.pollution_fraction
        if fraction <= 0.0:
            return frozenset()
        return frozenset(sample_cohort(rng, fraction, self._n_slots))

    # -- hot-path queries (zero-knob cases must not touch the RNG) --------------

    def drop_gossip(self) -> bool:
        """Decide whether one in-flight gossip transfer is lost."""
        p = self.plan.gossip_loss_rate
        return p > 0.0 and self._rng.random() < p

    def drop_pull(self) -> bool:
        """Decide whether one server pull's block transfer is lost."""
        p = self.plan.pull_loss_rate
        return p > 0.0 and self._rng.random() < p

    def is_polluter(self, slot: int) -> bool:
        """True when the peer slot is a configured polluter."""
        return slot in self.polluters

    def pollutes(self, slot: int, holding: PollutableHolding) -> bool:
        """True when an emission from *holding* at *slot* is corrupted.

        A block is polluted if its emitter is a polluter slot, or if the
        holding it is re-encoded from already contains polluted blocks —
        any linear combination touching junk is junk, which is what makes
        pollution spread and why end-to-end detection matters.
        """
        if not self.polluters:
            return False
        return slot in self.polluters or holding.polluted_count > 0

    def maybe_pollute(
        self, slot: int, holding: PollutableHolding, block: CodedBlock
    ) -> bool:
        """Corrupt *block* in place when its emission is polluted.

        Returns True when the block was corrupted.  Zero-knob runs take the
        ``not self.polluters`` short-circuit inside :meth:`pollutes` and do
        no work at all.
        """
        if self.pollutes(slot, holding):
            corrupt_block(block)
            return True
        return False

    # -- event sizing -------------------------------------------------------------

    def burst_size(self) -> int:
        """Slots killed per burst event (at least one, at most all)."""
        return cohort_size(self.plan.burst_fraction, self._n_slots)

    def cohort(self, rng: random.Random, fraction: float) -> List[int]:
        """Draw the slots one correlated departure (a burst or a
        ``kill-peers`` cohort of *fraction*) kills."""
        return sample_cohort(rng, fraction, self._n_slots)

    def catchup_pulls(self, downtime: float, per_server_rate: float) -> int:
        """Immediate pulls one server fires when an outage ends.

        One per pull it would have issued during *downtime*, capped at
        ``catchup_limit`` (a real server rate-limits its recovery).
        """
        return min(int(downtime * per_server_rate), self.plan.catchup_limit)

    # -- the fault timeline (each gap drawn when its event is asked for) -----

    def outages(
        self, rng: random.Random, process_faults: bool = True
    ) -> Iterator[Window]:
        """Server downtime windows in onset order, from time 0.

        First the deterministic windows — ``outage_windows``, merged with
        the ``kill-server``/``stop-server`` downtimes unless
        *process_faults* is False (the live supervisor delivers those as
        real signals) — then the renewal process: an Exp(``outage_rate``)
        gap after each recovery, then ``outage_duration`` down.  The plan
        refuses to combine the two, so at most one part yields anything.
        """
        plan = self.plan
        windows = plan.outage_windows
        if process_faults:
            windows = tuple(sorted(windows + plan.server_process_windows))
        yield from windows
        end = 0.0
        while plan.outage_rate > 0.0:
            start = end + exponential(rng, plan.outage_rate)
            end = start + plan.outage_duration
            yield start, end

    def bursts(self, rng: random.Random) -> Iterator[Cohort]:
        """Renewal bursts: an Exp(``burst_rate``) gap after each onset."""
        plan = self.plan
        at = 0.0
        while plan.burst_rate > 0.0:
            at += exponential(rng, plan.burst_rate)
            yield at, plan.burst_fraction

    def peer_kills(self) -> Iterator[Cohort]:
        """The scheduled ``kill-peers`` cohorts, in onset order.

        The simulators model each as a correlated departure burst;
        ``stop-peers`` has no simulator analogue (a frozen peer still
        holds TCP state) and is deliberately absent.
        """
        for kind, at, _duration, fraction in self.plan.process_faults:
            if kind == PROC_KILL_PEERS:
                yield at, fraction


class FaultInjector(FaultVerdicts):
    """Drives one :class:`FaultPlan`'s timeline on a running simulation.

    Each channel — outages, renewal bursts, ``kill-peers`` cohorts — keeps
    one pending event: when it fires, the injector acts, then takes the
    channel's next event and schedules it at its absolute time.

    Args:
        plan: The fault configuration.
        sim: The simulation engine (fault events are scheduled on it).
        rng: Dedicated ``random.Random`` substream for all fault draws.
        n_slots: Number of peer slots (polluter sampling, burst sizing).
        metrics: Collector for degradation accounting (``servers_down``).
        tracer: Optional tracer for outage/recovery events.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        rng: random.Random,
        n_slots: int,
        metrics: MetricsCollector,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(plan, n_slots, rng, rng)
        self._sim = sim
        self._metrics = metrics
        self._tracer = tracer
        self._down_since: Optional[float] = None
        #: the one pending event of each channel
        self._pending: Dict[str, EventHandle] = {}
        self._started = False
        # hooks bound by the system before start()
        self._pause_servers: Optional[Callable[[], None]] = None
        self._resume_servers: Optional[Callable[[float], None]] = None
        self._kill_slots: Optional[Callable[[Sequence[int]], None]] = None
        #: lifetime fault-event tallies (diagnostics; metrics hold the
        #: windowed counterparts)
        self.outages_started = 0
        self.bursts_fired = 0

    # -- lifecycle -------------------------------------------------------------

    def bind(
        self,
        pause_servers: Callable[[], None],
        resume_servers: Callable[[float], None],
        kill_slots: Callable[[Sequence[int]], None],
    ) -> None:
        """Attach the system hooks the fault events act through."""
        self._pause_servers = pause_servers
        self._resume_servers = resume_servers
        self._kill_slots = kill_slots

    def start(self) -> None:
        """Schedule each channel's first event (empty channels draw nothing)."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        plan = self.plan
        clocked = (
            plan.has_outages or plan.burst_rate > 0 or plan.has_process_faults
        )
        if clocked and self._kill_slots is None:
            raise RuntimeError("bind() must be called before start()")
        self._next_outage(self.outages(self._rng))
        self._next_cohort("kill-peers", self.peer_kills())
        self._next_cohort("bursts", self.bursts(self._rng))

    def stop(self) -> None:
        """Cancel every pending fault event (teardown for repeated runs)."""
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()

    @property
    def servers_down(self) -> bool:
        """True while an outage window is in effect."""
        return self._down_since is not None

    # -- outages ------------------------------------------------------------------

    def _next_outage(self, windows: Iterator[Window]) -> None:
        window = next(windows, None)
        if window is not None:
            start, end = window
            self._pending["outages"] = self._sim.schedule_at(
                start, partial(self._begin_outage, end, windows)
            )

    def _begin_outage(self, end: float, windows: Iterator[Window]) -> None:
        now = self._sim.now
        self._down_since = now
        self.outages_started += 1
        self._metrics.servers_down.update(now, 1.0)
        if self._tracer is not None:
            self._tracer.record(now, KIND_OUTAGE)
        assert self._pause_servers is not None  # start() enforces bind()
        self._pause_servers()
        self._pending["outages"] = self._sim.schedule_at(
            end, partial(self._end_outage, windows)
        )

    def _end_outage(self, windows: Iterator[Window]) -> None:
        now = self._sim.now
        assert self._down_since is not None  # scheduled by _begin_outage
        elapsed = now - self._down_since
        self._down_since = None
        self._metrics.servers_down.update(now, 0.0)
        if self._tracer is not None:
            self._tracer.record(now, KIND_RECOVER, downtime=elapsed)
        assert self._resume_servers is not None  # start() enforces bind()
        self._resume_servers(elapsed)
        self._next_outage(windows)

    # -- correlated departures (renewal bursts and kill-peers cohorts) -------------

    def _next_cohort(self, channel: str, cohorts: Iterator[Cohort]) -> None:
        cohort = next(cohorts, None)
        if cohort is not None:
            at, fraction = cohort
            self._pending[channel] = self._sim.schedule_at(
                at, partial(self._fire_cohort, channel, cohorts, fraction)
            )

    def _fire_cohort(
        self, channel: str, cohorts: Iterator[Cohort], fraction: float
    ) -> None:
        slots = self.cohort(self._rng, fraction)
        self.bursts_fired += 1
        assert self._kill_slots is not None  # start() enforces bind()
        self._kill_slots(slots)
        self._next_cohort(channel, cohorts)
