"""Tests for the discrete-event engine and Poisson processes."""

import math
import random

import pytest

from repro.sim.engine import PoissonProcess, Simulator, ThinnedPoissonProcess
from repro.sim.rng import SeedSequenceRegistry, exponential


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.run_until(2.0)
        assert order == [1, 2]

    def test_clock_at_event_time_during_handler(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run_until(5.0)
        assert seen == [1.5]

    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(True))
        assert sim.run_until(4.0) == 0
        assert not fired
        assert sim.run_until(6.0) == 1
        assert fired

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run_until(2.0)
        assert not fired

    def test_handler_can_schedule_more(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run_until(3.0)
        assert fired == [2.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_invalid_delay_raises(self):
        sim = Simulator()
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.schedule(bad, lambda: None)

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(4.0)

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1]
        assert sim.now == 1.0

    def test_max_events_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.0, reschedule)

        sim.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            sim.run_until(1.0, max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert sim.events_processed == 5

    def test_zero_delay_fires_in_insertion_order(self):
        """delay=0.0 events run at the current time, FIFO among themselves."""
        sim = Simulator()
        sim.run_until(3.0)  # now > 0, so delay-0 means "at t=3.0"
        order = []
        sim.schedule(0.0, lambda: order.append("a"))
        sim.schedule(0.0, lambda: order.append("b"))
        sim.schedule(0.0, lambda: order.append("c"))
        sim.run_until(3.0)
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_schedule_at_now_fires_in_insertion_order(self):
        """schedule_at(now) is legal (not 'the past') and stays FIFO, also
        when interleaved with zero-delay scheduling and pre-existing ties."""
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("early"))
        sim.run_until(1.0)
        sim.schedule_at(2.0, lambda: order.append("x"))
        sim.schedule_at(1.0, lambda: order.append("at-now"))
        sim.schedule(0.0, lambda: order.append("zero-delay"))
        sim.run_until(5.0)
        assert order == ["at-now", "zero-delay", "early", "x"]

    def test_zero_delay_from_handler_runs_same_timestamp(self):
        """A handler scheduling at delay 0 runs within the same run_until
        call at the same clock reading — the outage begin/end chain relies
        on this."""
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run_until(1.0)
        assert times == [1.0]

    def test_cancelled_handle_releases_action(self):
        """cancel() must drop the action reference immediately (the lazy-
        cancellation heap entry must not keep closures alive)."""
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.action is not None
        handle.cancel()
        assert handle.cancelled
        assert handle.action is None
        # cancelling twice is harmless
        handle.cancel()
        assert handle.action is None

    def test_executed_handle_releases_action(self):
        """After firing, the engine clears the handle's action too, so kept
        handles (e.g. in a fault injector's bookkeeping) never leak state."""
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert handle.action is None

    def test_cancelled_events_drain_from_heap(self):
        """Lazily-cancelled entries are popped and skipped, not executed,
        and the heap empties out.  `pending` reports *live* events only;
        the cancelled-but-uncollected backlog is reported separately."""
        sim = Simulator()
        fired = []
        handles = [
            sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(10)
        ]
        for handle in handles[::2]:
            handle.cancel()
        assert sim.pending == 5
        assert sim.pending_cancelled == 5
        assert sim.events_cancelled == 5
        executed = sim.run_until(2.0)
        assert executed == 5
        assert fired == [1, 3, 5, 7, 9]
        assert sim.pending == 0
        assert sim.pending_cancelled == 0


class TestFastPathScheduling:
    def test_schedule_call_runs_in_order_with_handles(self):
        """Handle-free and handle-carrying events share one deterministic
        (time, insertion-sequence) order."""
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("h1"))
        sim.schedule_call(1.0, lambda: order.append("c1"))
        sim.schedule(1.0, lambda: order.append("h2"))
        sim.schedule_call(0.5, lambda: order.append("c0"))
        sim.run_until(2.0)
        assert order == ["c0", "h1", "c1", "h2"]

    def test_schedule_call_validation(self):
        sim = Simulator()
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sim.schedule_call(bad, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(ValueError):
            sim.schedule_call_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_call_at(math.inf, lambda: None)

    def test_batch_drain_matches_classic_order(self, monkeypatch):
        """The sorted-batch drain must execute the exact event order of a
        pure pop loop, including ties and events scheduled mid-run — and an
        entry that carries its arguments fires exactly as the closure over
        the same values does."""

        def run(force_classic, carry_arguments):
            import repro.sim.engine as engine_mod

            if force_classic:
                monkeypatch.setattr(engine_mod, "_BATCH_MIN", 10**9)
            else:
                monkeypatch.setattr(engine_mod, "_BATCH_MIN", 8)
            sim = Simulator()
            order = []
            rng = random.Random(99)

            def act(idx, at):
                order.append((sim.now, idx, at))
                # handlers keep scheduling into the current batch
                if idx % 7 == 0:
                    if carry_arguments:
                        sim.schedule_call(0.0, act, -idx - 1, at)
                    else:
                        sim.schedule_call(0.0, lambda: act(-idx - 1, at))

            for index in range(300):
                t = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5])
                if index % 3 == 0:
                    sim.schedule(t, lambda i=index, at=t: act(i, at))
                elif index % 3 == 1 or not carry_arguments:
                    sim.schedule_call(t, lambda i=index, at=t: act(i, at))
                else:
                    sim.schedule_call(t, act, index, t)
            sim.run_until(3.0)
            return order

        classic = run(force_classic=True, carry_arguments=False)
        assert len(classic) > 300 and all(now == at for now, _, at in classic)
        for force_classic in (False, True):
            assert run(force_classic, carry_arguments=True) == classic
        assert run(force_classic=False, carry_arguments=False) == classic

    def test_schedule_call_at_passes_arguments(self):
        sim = Simulator()
        got = []
        sim.schedule_call_at(2.0, lambda *args: got.append(args), "a", 2)
        sim.schedule_call_at(1.0, lambda *args: got.append(args))
        sim.run_until(3.0)
        assert got == [(), ("a", 2)]

    def test_pushed_back_entries_keep_their_arguments(self):
        """stop() and a raising action both leave part of the sorted batch
        unconsumed; what goes back on the heap still fires with its args."""
        sim = Simulator()
        fired = []

        def act(index, tag):
            fired.append((index, tag))
            if index == 70:
                sim.stop()
            if index == 140:
                raise RuntimeError("boom")

        for index in range(200):
            sim.schedule_call(float(index), act, index, f"t{index}")
        assert sim.run_until(1000.0) == 71
        assert sim.pending == 129
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(1000.0)
        assert sim.pending == 59
        sim.run_until(1000.0)
        assert fired == [(index, f"t{index}") for index in range(200)]

    def test_compaction_keeps_argument_entries(self):
        sim = Simulator()
        fired = []
        for index in range(300):
            sim.schedule_call(1.0 + index, fired.append, index)
        handles = [sim.schedule(0.5, lambda: fired.append("h")) for _ in range(700)]
        for handle in handles:
            handle.cancel()
        assert sim.heap_compactions > 0
        assert sim.pending == 300
        sim.run_until(1000.0)
        assert fired == list(range(300))

    def test_stop_mid_batch_preserves_remaining_events(self):
        sim = Simulator()
        fired = []
        for index in range(200):
            if index == 99:
                sim.schedule_call(
                    float(index), lambda: (fired.append(99), sim.stop())
                )
            else:
                sim.schedule_call(float(index), lambda i=index: fired.append(i))
        executed = sim.run_until(1000.0)
        assert executed == 100
        assert sim.now == 99.0
        assert sim.pending == 100
        sim.run_until(1000.0)
        assert fired == list(range(200))
        assert sim.pending == 0

    def test_exception_mid_batch_preserves_remaining_events(self):
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        for index in range(200):
            if index == 50:
                sim.schedule_call(float(index), boom)
            else:
                sim.schedule_call(float(index), lambda i=index: fired.append(i))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_until(1000.0)
        assert sim.pending == 149
        sim.run_until(1000.0)
        assert fired == [i for i in range(200) if i != 50]

    def test_run_until_is_not_reentrant(self):
        sim = Simulator()
        sim.schedule_call(1.0, lambda: sim.run_until(5.0))
        with pytest.raises(RuntimeError, match="re-entrant"):
            sim.run_until(2.0)


class TestCancellationAccounting:
    def test_max_events_counts_cancelled_pops(self):
        """The runaway valve must see lazily-cancelled entries being
        discarded, so cancellation churn cannot starve it."""
        sim = Simulator()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(200)]
        for handle in handles[:150]:
            handle.cancel()
        with pytest.raises(RuntimeError, match="runaway"):
            sim.run_until(2.0, max_events=100)

    def test_stop_start_churn_keeps_heap_bounded(self):
        """Pausing a cancellable clock (a server pull clock across outages)
        leaves a lazily-cancelled entry per stop; the compactor must keep
        that backlog capped."""
        sim = Simulator()
        process = PoissonProcess(
            sim, random.Random(8), rate=1.0, action=lambda: None
        )
        for _ in range(5000):
            process.stop()
            process.start()
        assert sim.events_cancelled >= 5000
        assert sim.heap_compactions > 0
        # bounded backlog: far below the 5000 cancellations issued
        assert sim.pending_cancelled <= 600
        assert sim.pending == 1  # exactly the one live armed fire

    def test_perf_snapshot(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.schedule_call(2.0, lambda: None)
        sim.run_until(3.0)
        perf = sim.perf()
        assert perf.events_fired == 1
        assert perf.events_cancelled == 1
        assert perf.pending_live == 0
        assert perf.pending_cancelled == 0
        assert perf.run_until_calls == 1
        assert perf.wall_time >= 0.0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.run_until(2.0)
        handle.cancel()
        assert fired == [1]
        assert not handle.cancelled
        assert sim.events_cancelled == 0
        assert sim.pending_cancelled == 0


class TestNonCancellableClock:
    def test_fires_at_requested_rate(self):
        sim = Simulator()
        fires = []
        PoissonProcess(
            sim,
            random.Random(21),
            rate=50.0,
            action=lambda: fires.append(sim.now),
            cancellable=False,
        )
        sim.run_until(20.0)
        assert abs(len(fires) / 20.0 - 50.0) / 50.0 < 0.1
        assert sim.pending_cancelled == 0  # no handles, nothing to cancel

    def test_stop_leaves_stale_fire_that_drains_as_noop(self):
        sim = Simulator()
        fires = []
        process = PoissonProcess(
            sim,
            random.Random(2),
            rate=1.0,
            action=lambda: fires.append(sim.now),
            cancellable=False,
        )
        process.stop()
        with pytest.raises(RuntimeError, match="stale fire"):
            process.start()
        sim.run_until(100.0)  # drain the stale entry (fires nothing)
        assert not fires
        process.start()
        sim.run_until(200.0)
        assert fires  # restart works once the stale fire drained

    def test_per_clock_counters(self):
        sim = Simulator()
        process = PoissonProcess(
            sim, random.Random(4), rate=100.0, action=lambda: None
        )
        sim.run_until(1.0)
        assert process.events_fired > 0
        process.stop()
        assert process.events_cancelled == 1


class TestPoissonProcess:
    def test_rate_is_respected(self):
        sim = Simulator()
        rng = random.Random(42)
        fires = []
        PoissonProcess(sim, rng, rate=50.0, action=lambda: fires.append(sim.now))
        sim.run_until(20.0)
        observed_rate = len(fires) / 20.0
        assert abs(observed_rate - 50.0) / 50.0 < 0.1

    def test_interarrivals_look_exponential(self):
        sim = Simulator()
        rng = random.Random(7)
        fires = []
        PoissonProcess(sim, rng, rate=10.0, action=lambda: fires.append(sim.now))
        sim.run_until(100.0)
        gaps = [b - a for a, b in zip(fires, fires[1:])]
        mean_gap = sum(gaps) / len(gaps)
        assert abs(mean_gap - 0.1) < 0.01
        # memorylessness proxy: CV of exponential is 1
        var = sum((g - mean_gap) ** 2 for g in gaps) / len(gaps)
        cv = math.sqrt(var) / mean_gap
        assert abs(cv - 1.0) < 0.1

    def test_zero_rate_parks(self):
        sim = Simulator()
        fires = []
        PoissonProcess(
            sim, random.Random(0), rate=0.0, action=lambda: fires.append(1)
        )
        sim.run_until(10.0)
        assert not fires
        assert sim.pending == 0

    def test_stop_disarms(self):
        sim = Simulator()
        fires = []
        process = PoissonProcess(
            sim, random.Random(0), rate=10.0, action=lambda: fires.append(1)
        )
        sim.run_until(1.0)
        count = len(fires)
        process.stop()
        sim.run_until(5.0)
        assert len(fires) == count
        assert not process.is_running

    def test_negative_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PoissonProcess(sim, random.Random(0), rate=-1.0, action=lambda: None)
        with pytest.raises(ValueError):
            PoissonProcess(
                sim, random.Random(0), rate=math.inf, action=lambda: None
            )

    def test_subnormal_rate_parks_instead_of_infinite_delay(self):
        """A denormal-but-positive rate overflows expovariate to infinity;
        the process must park rather than schedule an unreachable event."""
        sim = Simulator()
        fires = []
        PoissonProcess(
            sim,
            random.Random(0),
            rate=5e-324,  # smallest positive float
            action=lambda: fires.append(1),
        )
        assert sim.pending == 0  # parked: nothing scheduled at t=inf
        sim.run_until(10.0)
        assert not fires

    def test_start_idempotent(self):
        sim = Simulator()
        fires = []
        process = PoissonProcess(
            sim, random.Random(3), rate=100.0, action=lambda: fires.append(1),
            start=False,
        )
        sim.run_until(1.0)
        assert not fires
        process.start()
        process.start()
        sim.run_until(2.0)
        # double start must not double the rate
        assert 50 < len(fires) < 160


class TestThinnedPoissonProcess:
    def test_halved_rate(self):
        sim = Simulator()
        rng = random.Random(5)
        fires = []
        ThinnedPoissonProcess(
            sim,
            rng,
            max_rate=100.0,
            rate_fn=lambda t: 50.0,
            action=lambda: fires.append(sim.now),
        )
        sim.run_until(20.0)
        assert abs(len(fires) / 20.0 - 50.0) / 50.0 < 0.15

    def test_time_varying_profile(self):
        sim = Simulator()
        rng = random.Random(6)
        fires = []
        ThinnedPoissonProcess(
            sim,
            rng,
            max_rate=100.0,
            rate_fn=lambda t: 100.0 if t >= 10.0 else 10.0,
            action=lambda: fires.append(sim.now),
        )
        sim.run_until(20.0)
        early = sum(1 for t in fires if t < 10.0)
        late = sum(1 for t in fires if t >= 10.0)
        assert late > 5 * early

    def test_rate_fn_above_max_raises(self):
        sim = Simulator()
        ThinnedPoissonProcess(
            sim,
            random.Random(0),
            max_rate=1.0,
            rate_fn=lambda t: 2.0,
            action=lambda: None,
        )
        with pytest.raises(ValueError):
            sim.run_until(50.0)

    def test_negative_rate_fn_raises(self):
        sim = Simulator()
        ThinnedPoissonProcess(
            sim,
            random.Random(0),
            max_rate=10.0,
            rate_fn=lambda t: -1.0,
            action=lambda: None,
        )
        with pytest.raises(ValueError):
            sim.run_until(50.0)


class TestRng:
    def test_exponential_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            exponential(random.Random(0), 0.0)

    def test_registry_reproducible(self):
        a = SeedSequenceRegistry(1).python("x").random()
        b = SeedSequenceRegistry(1).python("x").random()
        assert a == b

    def test_registry_streams_differ_by_name(self):
        seeds = SeedSequenceRegistry(1)
        assert seeds.python("a").random() != seeds.python("b").random()

    def test_registry_same_name_same_object(self):
        seeds = SeedSequenceRegistry(1)
        assert seeds.python("a") is seeds.python("a")
        assert seeds.numpy("a") is seeds.numpy("a")

    def test_numpy_streams(self):
        seeds = SeedSequenceRegistry(2)
        x = seeds.numpy("n").integers(0, 1000)
        y = SeedSequenceRegistry(2).numpy("n").integers(0, 1000)
        assert x == y

    def test_spawn_children_differ(self):
        seeds = SeedSequenceRegistry(3)
        a = seeds.spawn("child1").python("x").random()
        b = seeds.spawn("child2").python("x").random()
        assert a != b

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError):
            SeedSequenceRegistry("seed")
        with pytest.raises(ValueError):
            SeedSequenceRegistry(True)
