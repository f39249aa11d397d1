"""Wall-clock <-> simulated-time mapping for the live runtime.

The simulator's ``Parameters`` express every rate in *simulated time
units*; the live runtime executes them against the wall clock through one
linear map::

    sim_now = (wall_now - t0) * time_scale

``time_scale`` is simulated time units per wall-clock second: 2.0 runs the
protocol twice as fast as unit rates, 0.5 at half speed.  Every event
timestamp, TTL deadline, and metric window in the live runtime is kept in
sim units, so live measurements land directly on the simulator's axes
(throughput in blocks per sim unit, delays in sim units) with no
post-processing.

Scheduling discipline: loops draw the *next absolute* event time and sleep
until it (:meth:`LiveClock.sleep_until`), rather than sleeping the drawn
gap after finishing the previous event's work.  Per-event service time
(socket round-trips) therefore does not deflate the realized event rate —
the live Poisson clocks stay honest to their configured rates as long as
service stays ahead of the schedule on average.

Timer grid: once the epoch is set, every timer a clock arms — its sleeps
and :meth:`LiveClock.call_at` — fires on the next multiple of
:data:`TIMER_SLACK` simulated units past the epoch, so every clock of a
process (one per hosted peer's gossip, injection and TTL, plus the
collector's pulls, outages and bursts) that falls due within one slack
wakes the loop once, not once each.  An event lands at most one slack
late; a :class:`PoissonSchedule` keeps drawing from scheduled times, so
its rate stays exact.
"""

from __future__ import annotations

import asyncio
import math
import random
from typing import Any, Callable, Optional

from repro.sim.rng import exponential
from repro.util.validation import require_positive

#: Spacing of the timer grid in simulated units (10 ms of wall time at
#: ``time_scale`` 0.5): the most any clock timer fires late.
TIMER_SLACK = 0.005

#: A loop reading this close below a grid point (in grid spacings) is at
#: that point: asyncio fires a timer up to its clock resolution early.
_AT_POINT = 1e-6


class LiveClock:
    """Monotonic wall clock mapped linearly onto simulated time."""

    __slots__ = ("time_scale", "_t0", "_spacing")

    def __init__(self, time_scale: float) -> None:
        self.time_scale = require_positive("time_scale", time_scale)
        self._t0: Optional[float] = None
        #: wall seconds between two grid points.
        self._spacing = TIMER_SLACK / time_scale

    @property
    def started(self) -> bool:
        """True once the epoch is set."""
        return self._t0 is not None

    @property
    def epoch(self) -> Optional[float]:
        """The wall-clock epoch (``loop.time()`` units), or ``None``.

        ``loop.time()`` is CLOCK_MONOTONIC, which is system-wide on Linux,
        so an epoch checkpointed by a killed server process remains valid
        in its respawned successor on the same box — the restarted clock
        resumes the *same* simulated timeline.
        """
        return self._t0

    def start(self, wall_t0: Optional[float] = None) -> None:
        """Fix the sim-time epoch (default: now)."""
        if self._t0 is not None:
            raise RuntimeError("clock already started")
        loop = asyncio.get_running_loop()
        self._t0 = loop.time() if wall_t0 is None else wall_t0

    def now(self) -> float:
        """Current simulated time (0.0 before :meth:`start`).

        The epoch may be set slightly in the future (the START broadcast
        gives every peer the same epoch plus a wall-clock lead so they all
        begin together); during that lead-in the clock reads 0.0 rather
        than negative, keeping every consumer's time axis monotone
        non-negative.
        """
        if self._t0 is None:
            return 0.0
        loop = asyncio.get_running_loop()
        return max(0.0, (loop.time() - self._t0) * self.time_scale)

    def wall_interval(self, sim_interval: float) -> float:
        """Wall seconds spanning *sim_interval* simulated units."""
        return sim_interval / self.time_scale

    def _grid_point(
        self, loop: asyncio.AbstractEventLoop, wall: float
    ) -> float:
        """The loop time a timer due at *wall* fires: the first grid point
        at or after it that is past the point the loop is at, so a wake
        that lands a hair early re-arms to the next point, never the same
        one (which would spin at zero delay).  *wall* itself before the
        epoch is set."""
        t0, spacing = self._t0, self._spacing
        if t0 is None:
            return wall
        at = math.floor((loop.time() - t0) / spacing + _AT_POINT)
        return t0 + max(math.ceil((wall - t0) / spacing), at + 1) * spacing

    def _deadline_point(
        self, loop: asyncio.AbstractEventLoop, sim_deadline: float
    ) -> float:
        """:meth:`_grid_point` of the moment the clock reads *sim_deadline*
        (before the epoch, when it reads 0, that is *sim_deadline* away)."""
        base = loop.time() if self._t0 is None else self._t0
        return self._grid_point(loop, base + sim_deadline / self.time_scale)

    def call_at(
        self, sim_deadline: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Run ``callback(*args)`` on the grid once the clock reads
        *sim_deadline* (or a hair before: callbacks re-check the clock)."""
        loop = asyncio.get_running_loop()
        loop.call_at(self._deadline_point(loop, sim_deadline), callback, *args)

    async def sleep_sim(self, sim_interval: float) -> None:
        """Sleep for *sim_interval* simulated units of wall time."""
        if sim_interval > 0:
            loop = asyncio.get_running_loop()
            wall = loop.time() + sim_interval / self.time_scale
            await _sleep_at(loop, self._grid_point(loop, wall))

    async def sleep_until(self, sim_deadline: float) -> None:
        """Sleep until the clock reads *sim_deadline* (no-op if past)."""
        loop = asyncio.get_running_loop()
        while self.now() < sim_deadline:
            started = self.started
            await _sleep_at(loop, self._deadline_point(loop, sim_deadline))
            if not started:
                return  # one plain sleep: the clock read 0 when it began


async def _sleep_at(loop: asyncio.AbstractEventLoop, when: float) -> None:
    """``asyncio.sleep`` to an absolute loop time: timers armed for one grid
    point carry the identical float, so the loop fires them together."""
    future = loop.create_future()
    handle = loop.call_at(when, _wake, future)
    try:
        await future
    finally:
        handle.cancel()


def _wake(future: "asyncio.Future[None]") -> None:
    if not future.done():
        future.set_result(None)


class PoissonSchedule:
    """Absolute-time Poisson event schedule on a :class:`LiveClock`.

    Draws the next event time ahead of the current one, so the realized
    long-run rate equals *rate* regardless of per-event service time (see
    the module docstring).  A schedule that falls behind (service slower
    than the gap) fires immediately until it catches up, mirroring how a
    backlogged event queue drains.
    """

    __slots__ = ("_clock", "_rng", "_rate", "_next_at")

    def __init__(
        self, clock: LiveClock, rng: random.Random, rate: float
    ) -> None:
        if rate <= 0:
            raise ValueError(f"event rate must be > 0, got {rate}")
        self._clock = clock
        self._rng = rng
        self._rate = rate
        self._next_at: Optional[float] = None

    async def wait(self) -> float:
        """Sleep until the next event; returns its scheduled sim time."""
        if self._next_at is None:
            self._next_at = self._clock.now() + exponential(
                self._rng, self._rate
            )
        at = self._next_at
        await self._clock.sleep_until(at)
        self._next_at = at + exponential(self._rng, self._rate)
        return at

    def defer(self, sim_interval: float) -> None:
        """Push the pending event back by *sim_interval* (outage resume)."""
        if self._next_at is not None:
            self._next_at += sim_interval
