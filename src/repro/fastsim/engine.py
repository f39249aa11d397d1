"""The fast-engine stepper: tau-leaping over the batch kernels.

:class:`TauLeapStepper` drives the batch kernels of
:class:`~repro.fastsim.system.FastCollectionSystem` in fixed steps of
``tau`` simulated time units.  Each channel fires ``Poisson(rate·tau)``
times per step (rates are constant except TTL, which is re-read per step
from the current block population — an O(tau) rate lag, the method's only
bias alongside within-step ordering).  Event times inside a step are
jittered U(t0, t1), which is exact for a Poisson process conditional on
the count.  The exact finite-N simulator of the same model is the event
engine (:class:`repro.core.system.CollectionSystem`); the step is checked
by refinement in ``tests/test_fastsim.py``.

Server outages: the system materializes the outage timeline up front and
the stepper replays its boundaries (exact ``servers_down`` integration
and catch-up bursts at recovery instants).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.fastsim.system import (
    CHECK_EVERY_STEPS,
    STATS_STRIDE,
    FastCollectionSystem,
)

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
