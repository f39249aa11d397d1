"""Runtime fault injection: the machinery behind a :class:`FaultPlan`.

:class:`FaultVerdicts` is the one statement of the plan's per-event
decisions — who pollutes, which transfer is lost, how large a burst or a
catch-up is — under every engine: the event simulator consults it through
:class:`FaultInjector`, which extends it with the fault *event* clocks
(outage onsets/recoveries, correlated churn bursts); the live runtime
constructs it directly; the fast engine's masks inherit its set and size
arithmetic.  Design rules:

- **Own randomness.**  Verdicts draw only from the RNG substreams they are
  handed, so enabling a fault channel never perturbs the draws of
  injection, gossip, server, TTL or churn clocks.
- **Bitwise neutral at zero.**  The engines build a verdict object only
  for a non-null plan, every query short-circuits before touching the RNG
  when its own knob is off, and ``start()`` arms no clock whose rate is
  zero — a system built with ``FaultPlan()`` replays the exact event
  sequence of a system built with no plan at all (the zero-knob table
  test has one row per query).
- **Hooks, not references.**  The injector manipulates the system through
  three injected callbacks (pause servers, resume servers, kill slots), so
  it is testable standalone and the system stays the owner of its state.
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, List, Optional, Protocol, Sequence

from repro.coding.block import CodedBlock
from repro.faults.plan import PROC_KILL_PEERS, FaultPlan
from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import cohort_size, exponential, sample_cohort
from repro.sim.trace import KIND_OUTAGE, KIND_RECOVER, Tracer


def corrupt_block(block: CodedBlock) -> CodedBlock:
    """Mark *block* as polluted, invalidating its coefficient header.

    In RLNC mode the coefficient vector is zeroed — a detectably invalid
    header that GF(2^8) rank arithmetic can never count as innovative, so
    the server-side decoder rejects the block for free.  In abstract mode
    the ``polluted`` tag alone carries the information (the tagged-block
    approximation of the same detection).  Returns the block for chaining.
    """
    block.polluted = True
    if block.coefficients is not None:
        block.coefficients.fill(0)
    return block


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

    def burst_slots(self, rng: random.Random) -> List[int]:
        """Draw the slots one correlated-departure burst kills."""
        return sample_cohort(rng, self.plan.burst_fraction, self._n_slots)

    def catchup_pulls(self, downtime: float, per_server_rate: float) -> int:
        """Immediate pulls one server fires when an outage ends.

        One per pull it would have issued during *downtime*, capped at
        ``catchup_limit`` (a real server rate-limits its recovery).
        """
        return min(int(downtime * per_server_rate), self.plan.catchup_limit)


class FaultInjector(FaultVerdicts):
    """Executes one :class:`FaultPlan` against a running simulation.

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
        self._down = False
        self._down_since = 0.0
        self._handles: List[EventHandle] = []
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
        """Arm the outage and burst clocks (no-op channels schedule nothing)."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        plan = self.plan
        if plan.has_outages and self._pause_servers is None:
            raise RuntimeError("bind() must be called before start()")
        if plan.burst_rate > 0 and self._kill_slots is None:
            raise RuntimeError("bind() must be called before start()")
        if plan.has_process_faults and any(
            kind == PROC_KILL_PEERS for kind, *_ in plan.process_faults
        ) and self._kill_slots is None:
            raise RuntimeError("bind() must be called before start()")
        for start, end in plan.outage_windows:
            self._handles.append(
                self._sim.schedule_at(start, self._begin_outage)
            )
            self._handles.append(self._sim.schedule_at(end, self._end_outage))
        # Server process faults are downtime windows of the supervised
        # restart latency (kill) or the SIGSTOP hold (stop); a peer-process
        # kill is a scheduled correlated burst.  stop-peers has no
        # simulator analogue (a frozen peer still holds TCP state) and is
        # deliberately a no-op here.
        for start, end in plan.server_process_windows:
            self._handles.append(
                self._sim.schedule_at(start, self._begin_outage)
            )
            self._handles.append(self._sim.schedule_at(end, self._end_outage))
        for kind, at, _duration, fraction in plan.process_faults:
            if kind == PROC_KILL_PEERS:
                self._handles.append(
                    self._sim.schedule_at(
                        at, self._make_process_burst(fraction)
                    )
                )
        if plan.outage_rate > 0:
            self._arm_next_outage()
        if plan.burst_rate > 0:
            self._arm_next_burst()

    def stop(self) -> None:
        """Cancel every pending fault event (teardown for repeated runs)."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    @property
    def servers_down(self) -> bool:
        """True while an outage window is in effect."""
        return self._down

    # -- outage machinery --------------------------------------------------------

    def _arm_next_outage(self) -> None:
        gap = exponential(self._rng, self.plan.outage_rate)
        self._handles.append(self._sim.schedule(gap, self._begin_outage))

    def _begin_outage(self) -> None:
        if self._down:
            return
        now = self._sim.now
        self._down = True
        self._down_since = now
        self.outages_started += 1
        self._metrics.servers_down.update(now, 1.0)
        if self._tracer is not None:
            self._tracer.record(now, KIND_OUTAGE)
        assert self._pause_servers is not None  # start() enforces bind()
        self._pause_servers()
        if self.plan.outage_rate > 0:
            self._handles.append(
                self._sim.schedule(self.plan.outage_duration, self._end_outage)
            )

    def _end_outage(self) -> None:
        if not self._down:
            return
        now = self._sim.now
        self._down = False
        elapsed = now - self._down_since
        self._metrics.servers_down.update(now, 0.0)
        if self._tracer is not None:
            self._tracer.record(now, KIND_RECOVER, downtime=elapsed)
        assert self._resume_servers is not None  # start() enforces bind()
        self._resume_servers(elapsed)
        if self.plan.outage_rate > 0:
            self._arm_next_outage()

    # -- correlated churn bursts ---------------------------------------------------

    def _arm_next_burst(self) -> None:
        gap = exponential(self._rng, self.plan.burst_rate)
        self._handles.append(self._sim.schedule(gap, self._fire_burst))

    def _fire_burst(self) -> None:
        slots = self.burst_slots(self._rng)
        self.bursts_fired += 1
        assert self._kill_slots is not None  # start() enforces bind()
        self._kill_slots(slots)
        self._arm_next_burst()

    # -- process faults ----------------------------------------------------------

    def _make_process_burst(self, fraction: float) -> Callable[[], None]:
        """One scheduled kill-peers event as a correlated departure burst."""

        def fire() -> None:
            slots = sample_cohort(self._rng, fraction, self._n_slots)
            self.bursts_fired += 1
            assert self._kill_slots is not None  # start() enforces bind()
            self._kill_slots(slots)

        return fire
