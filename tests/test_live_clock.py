"""The live timer grid: every ``LiveClock`` timer fires on one shared grid.

Contract (``repro.live.clock``): once the epoch is set, a timer due at a
simulated deadline fires at the first multiple of ``TIMER_SLACK`` past the
epoch at or after it — never early, at most one slack late — so every clock
of a process that falls due within one slack wakes the loop once.  A wake
that lands a hair early re-arms to the *next* grid point; before the epoch
is set, timers are plain relative timers.
"""

import asyncio
import math
import random

import pytest

from repro.live.clock import TIMER_SLACK, LiveClock, PoissonSchedule
from repro.sim.rng import exponential

SCALE = 0.5  # the benchmark's time_scale: one slack is 10 ms of wall time


def _record_timers(loop):
    """Wrap *loop*.call_at: every armed loop time lands in the list."""
    armed = []
    call_at = loop.call_at

    def recording(when, callback, *args, **kwargs):
        armed.append(when)
        return call_at(when, callback, *args, **kwargs)

    loop.call_at = recording
    return armed


def _on_grid(clock, when):
    steps = (when - clock.epoch) * clock.time_scale / TIMER_SLACK
    return abs(steps - round(steps)) < 1e-6


class TestGridContract:
    def test_timers_fire_after_their_deadline_and_within_one_slack(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LiveClock(SCALE)
            clock.start()
            armed = _record_timers(loop)
            rng = random.Random(3)
            deadlines = [rng.uniform(0.001, 0.1) for _ in range(30)]
            fired = []

            def expire(deadline):
                fired.append((deadline, clock.now()))

            for deadline in deadlines:
                clock.call_at(deadline, expire, deadline)

            async def sleeper(deadline):
                await clock.sleep_until(deadline)
                fired.append((deadline, clock.now()))

            await asyncio.gather(*(sleeper(d) for d in deadlines))
            await asyncio.sleep(2 * TIMER_SLACK / SCALE)
            return clock, deadlines, armed, fired

        clock, deadlines, armed, fired = asyncio.run(scenario())
        assert len(fired) == 2 * len(deadlines)
        for deadline, now in fired:
            # callbacks may see a hair early (asyncio fires a timer up to
            # its clock resolution early); sleep_until re-checks exactly
            assert now >= deadline - 1e-9
            assert now < deadline + 1.0  # a loose bound on real latency
        for deadline, when in zip(deadlines, armed):
            wall = clock.epoch + deadline / SCALE
            assert _on_grid(clock, when)
            assert wall <= when <= wall + TIMER_SLACK / SCALE + 1e-9

    def test_timers_of_many_peers_due_in_one_slack_share_one_iteration(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LiveClock(SCALE)  # one clock under every hosted peer
            clock.start()
            iteration = [0]

            def tick():  # runs exactly once per loop iteration
                iteration[0] += 1
                loop.call_soon(tick)

            loop.call_soon(tick)
            cell = 20 * TIMER_SLACK
            rng = random.Random(7)
            expiries, wakes = [], []
            for _ in range(64):  # 64 peers' TTL timers
                deadline = cell + rng.uniform(1e-6, TIMER_SLACK)
                clock.call_at(deadline, lambda: expiries.append(iteration[0]))

            async def gossip_clock():
                await clock.sleep_until(cell + rng.uniform(1e-6, TIMER_SLACK))
                wakes.append(iteration[0])

            await asyncio.gather(*(gossip_clock() for _ in range(64)))
            return expiries, wakes

        expiries, wakes = asyncio.run(scenario())
        assert len(expiries) == len(wakes) == 64
        assert len(set(expiries)) == 1
        assert len(set(wakes)) == 1

    def test_a_wake_a_hair_early_rearms_to_the_next_point(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LiveClock(SCALE)
            clock.start(loop.time())
            spacing = TIMER_SLACK / SCALE
            point = clock.epoch + 40 * spacing
            out = []
            real_time = loop.time
            for early in (1e-12, 1e-10, 1e-9):
                loop.time = lambda: point - early
                # the clock still reads short of a deadline due in the hair
                # between the loop's reading and the point it woke for
                for wall in (point, point - early / 2):
                    out.append(clock._grid_point(loop, wall))
            loop.time = real_time
            return point, spacing, out

        point, spacing, out = asyncio.run(scenario())
        for when in out:
            assert when == pytest.approx(point + spacing, abs=1e-9)

    def test_expiry_that_sees_the_clock_a_hair_short_waits_one_more_point(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LiveClock(SCALE)
            clock.start(loop.time())
            armed = _record_timers(loop)
            deadline = 40 * TIMER_SLACK
            first = clock.epoch + deadline / SCALE
            real_time = loop.time
            loop.time = lambda: first - 1e-10  # the wake for that point
            clock.call_at(deadline, lambda: None)
            loop.time = real_time
            return clock, first, armed

        clock, first, armed = asyncio.run(scenario())
        assert armed[0] > first
        assert armed[0] == pytest.approx(first + TIMER_SLACK / SCALE)

    def test_before_the_epoch_timers_are_not_aligned(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LiveClock(SCALE)
            armed = _record_timers(loop)
            before = loop.time()
            clock.call_at(0.0123, lambda: None)
            await clock.sleep_sim(0.0071)
            return before, armed

        before, armed = asyncio.run(scenario())
        assert armed[0] == pytest.approx(before + 0.0123 / SCALE, abs=1e-3)
        assert armed[1] == pytest.approx(before + 0.0071 / SCALE, abs=2e-3)

    def test_poisson_schedule_keeps_drawing_from_scheduled_times(self):
        async def scenario():
            clock = LiveClock(50.0)
            clock.start()
            schedule = PoissonSchedule(clock, random.Random(11), rate=40.0)
            return [await schedule.wait() for _ in range(25)]

        times = asyncio.run(scenario())
        replay = random.Random(11)
        exponential(replay, 40.0)  # the first gap starts at the clock reading
        expected = [times[0]]
        for _ in range(24):
            # every later gap starts at the previous *scheduled* time, so
            # grid lateness never accumulates into the rate
            expected.append(expected[-1] + exponential(replay, 40.0))
        assert times == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_time_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError):
            LiveClock(scale)
