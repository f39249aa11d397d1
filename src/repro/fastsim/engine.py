"""The two fast-engine steppers: tau-leaping and exact aggregate clocks.

Both steppers drive the *same* batch kernels on
:class:`~repro.fastsim.system.FastCollectionSystem`; they differ only in
how channel event counts and times are produced:

- :class:`TauLeapStepper` advances in fixed steps of ``tau`` simulated
  time units.  Each channel fires ``Poisson(rate·tau)`` times per step
  (rates are constant except TTL, which is re-read per step from the
  current block population — an O(tau) rate lag, the method's only bias
  alongside within-step ordering).  Event times inside a step are
  jittered U(t0, t1), which is exact for a Poisson process conditional
  on the count.
- :class:`ExactStepper` is a Gillespie-style aggregate-clock simulation
  on the event engine's :class:`~repro.sim.engine.Simulator`: one
  :class:`~repro.sim.engine.PoissonProcess` per channel at the channel's
  *total* rate, firing the kernels with ``count == 1`` at exact event
  times.  The fixed-rate channels ride the non-cancellable
  (handle-free) path; the TTL clock is re-rated to γ·K after every event
  by memorylessness, and the pull clock pauses across server outages.

Server outages are shared logic: the system materializes the outage
timeline up front, the steppers replay its boundaries (exact
``servers_down`` integration and catch-up bursts at recovery instants).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.fastsim.system import (
    CHECK_EVERY_EVENTS,
    CHECK_EVERY_STEPS,
    STATS_STRIDE,
    FastCollectionSystem,
)
from repro.sim.engine import PoissonProcess, Simulator

#: (time, is_recovery, downtime) — a flattened outage boundary.
_Boundary = Tuple[float, bool, float]


def _boundaries(
    windows: Tuple[Tuple[float, float], ...],
) -> List[_Boundary]:
    events: List[_Boundary] = []
    for start, end in windows:
        events.append((start, False, 0.0))
        events.append((end, True, end - start))
    events.sort(key=lambda b: b[0])
    return events


def _poisson(rng: np.random.Generator, mean: float) -> int:
    """One Poisson count; a disabled channel must not touch its RNG."""
    if mean > 0.0:
        return int(rng.poisson(mean))
    return 0


class TauLeapStepper:
    """Fixed-step tau-leaping driver over the batch kernels."""

    def __init__(self, system: FastCollectionSystem, tau: float) -> None:
        if tau <= 0.0:
            raise ValueError(f"tau must be > 0 for tau-leaping, got {tau!r}")
        self.system = system
        self.tau = tau
        self._steps = 0
        self._boundaries = _boundaries(system.outage_windows)
        self._next_boundary = 0
        self._down = False

    def run_until(self, end_time: float) -> None:
        system = self.system
        state = system.state
        rates = system.channel_rates()
        gamma = rates.ttl_per_block
        while system.now < end_time:
            t0 = system.now
            t1 = min(t0 + self.tau, end_time)
            dt = t1 - t0
            up_dt = self._advance_outages(t0, t1)
            applied = 0
            count = _poisson(system._inj_rng, rates.injection * dt)
            system.kernel_inject(count, t0, t1)
            applied += count
            count = _poisson(system._gossip_rng, rates.gossip * dt)
            system.kernel_gossip(count, t0, t1)
            applied += count
            count = _poisson(system._srv_rng, rates.pull * up_dt)
            system.kernel_pull(count, t0, t1)
            applied += count
            count = _poisson(system._ttl_rng, gamma * state.n_blocks * dt)
            system.kernel_ttl(count, t0, t1)
            applied += count
            count = _poisson(system._churn_rng, rates.churn * dt)
            system.kernel_churn(count, t0, t1)
            applied += count
            if system.fault_masks is not None and rates.burst > 0.0:
                bursts = _poisson(
                    system.fault_masks._np_rng, rates.burst * dt
                )
                for _ in range(bursts):
                    system.kernel_fault_burst()
                applied += bursts
            if system.adversary_masks is not None and rates.sybil > 0.0:
                bursts = _poisson(
                    system.adversary_masks._np_rng, rates.sybil * dt
                )
                for _ in range(bursts):
                    system.kernel_sybil_burst()
                applied += bursts
            system.events_applied += applied
            system.now = t1
            self._steps += 1
            system.push_averages(
                t1, segments=self._steps % STATS_STRIDE == 0
            )
            if state.should_compact():
                state.compact_segments()
            if self._steps % CHECK_EVERY_STEPS == 0:
                system.consistency_check()

    def _advance_outages(self, t0: float, t1: float) -> float:
        """Replay outage boundaries inside ``(t0, t1]``; return the up time."""
        system = self.system
        up = 0.0
        cursor = t0
        while (
            self._next_boundary < len(self._boundaries)
            and self._boundaries[self._next_boundary][0] <= t1
        ):
            at, is_recovery, downtime = self._boundaries[self._next_boundary]
            span = max(at - cursor, 0.0)
            if not self._down:
                up += span
            cursor = max(cursor, at)
            if is_recovery:
                catchup = system.end_outage(at, downtime)
                self._down = False
                if catchup:
                    system.kernel_pull(catchup, at, at)
                    system.events_applied += catchup
            else:
                system.begin_outage(at)
                self._down = True
            self._next_boundary += 1
        if not self._down:
            up += t1 - cursor
        return up


class ExactStepper:
    """Aggregate-clock exact driver on the event engine's simulator."""

    def __init__(self, system: FastCollectionSystem) -> None:
        self.system = system
        self.sim = Simulator()
        rates = system.channel_rates()
        gamma = rates.ttl_per_block
        self._gamma = gamma
        self._ttl_rate = 0.0
        self._events = 0
        seeds = system.seeds

        def clock(
            name: str,
            rate: float,
            kernel: Callable[[int, float, float], None],
            cancellable: bool = False,
        ) -> Optional[PoissonProcess]:
            if rate <= 0.0:
                return None
            return PoissonProcess(
                self.sim,
                seeds.python(f"fast:clock:{name}"),
                rate,
                self._fire(kernel),
                cancellable=cancellable,
            )

        clock("injection", rates.injection, system.kernel_inject)
        clock("gossip", rates.gossip, system.kernel_gossip)
        # pausable for outages, hence cancellable (set_rate/stop/start).
        self._pull_clock = clock(
            "pull", rates.pull, system.kernel_pull, cancellable=True
        )
        clock("churn", rates.churn, system.kernel_churn)
        if system.fault_masks is not None and rates.burst > 0.0:
            PoissonProcess(
                self.sim,
                seeds.python("fast:clock:burst"),
                rates.burst,
                self._fire_burst(system.kernel_fault_burst),
                cancellable=False,
            )
        if system.adversary_masks is not None and rates.sybil > 0.0:
            PoissonProcess(
                self.sim,
                seeds.python("fast:clock:sybil"),
                rates.sybil,
                self._fire_burst(system.kernel_sybil_burst),
                cancellable=False,
            )
        # TTL: rate tracks γ·K, so it must stay re-ratable.
        self._ttl_clock = PoissonProcess(
            self.sim,
            seeds.python("fast:clock:ttl"),
            0.0,
            self._fire(system.kernel_ttl),
            cancellable=True,
        )
        for start, end in system.outage_windows:
            self.sim.schedule_call_at(start, self._outage_begin, start)
            self.sim.schedule_call_at(end, self._outage_end, end, end - start)

    def _fire(
        self, kernel: Callable[[int, float, float], None]
    ) -> Callable[[], None]:
        def action() -> None:
            now = self.sim.now
            self.system.now = now
            kernel(1, now, now)
            self.system.events_applied += 1
            self._after_event(now)

        return action

    def _fire_burst(self, kernel: Callable[[], None]) -> Callable[[], None]:
        def action() -> None:
            now = self.sim.now
            self.system.now = now
            kernel()
            self.system.events_applied += 1
            self._after_event(now)

        return action

    def _after_event(self, now: float) -> None:
        system = self.system
        state = system.state
        # memorylessness: re-rating the TTL clock to γ·K after a population
        # change is exact; unchanged K skips the re-draw.
        ttl_rate = self._gamma * state.n_blocks
        if ttl_rate != self._ttl_rate:
            self._ttl_clock.set_rate(ttl_rate)
            self._ttl_rate = ttl_rate
        system.push_averages(now, segments=True)
        if state.should_compact():
            state.compact_segments()
        self._events += 1
        if self._events % CHECK_EVERY_EVENTS == 0:
            system.consistency_check()

    def _outage_begin(self, at: float) -> None:
        self.system.now = at
        self.system.begin_outage(at)
        if self._pull_clock is not None:
            self._pull_clock.stop()

    def _outage_end(self, at: float, downtime: float) -> None:
        self.system.now = at
        catchup = self.system.end_outage(at, downtime)
        if self._pull_clock is not None:
            self._pull_clock.start()
        if catchup:
            self.system.kernel_pull(catchup, at, at)
            self.system.events_applied += catchup
            self._after_event(at)

    def run_until(self, end_time: float) -> None:
        self.sim.run_until(end_time)
        self.system.now = end_time
