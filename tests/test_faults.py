"""Tests for the fault-injection subsystem (plan, injector, degradation)."""

import math
import random
from dataclasses import replace

import pytest

from repro.coding.block import CodedBlock, make_abstract_blocks
from repro.core.params import ENGINE_EVENT, ENGINE_FAST, Parameters
from repro.core.system import CollectionSystem
from repro.fastsim.system import FastCollectionSystem
from repro.faults import FaultInjector, FaultPlan, corrupt_block
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import (
    KIND_BURST,
    KIND_DROP,
    KIND_GOSSIP,
    KIND_OUTAGE,
    KIND_POLLUTED,
    KIND_RECOVER,
    Tracer,
)


def params(faults=None, **overrides):
    defaults = dict(
        n_peers=40,
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=4,
        n_servers=2,
    )
    defaults.update(overrides)
    return Parameters(faults=faults, **defaults)


def make_injector(plan, n_slots=20, seed=0, tracer=None):
    sim = Simulator()
    metrics = MetricsCollector(
        n_peers=n_slots,
        arrival_rate=1.0,
        segment_size=1,
        normalized_capacity=1.0,
    )
    injector = FaultInjector(
        plan=plan,
        sim=sim,
        rng=random.Random(seed),
        n_slots=n_slots,
        metrics=metrics,
        tracer=tracer,
    )
    return sim, metrics, injector


class FakeHolding:
    def __init__(self, polluted_count=0):
        self.polluted_count = polluted_count


class TestFaultPlan:
    def test_default_plan_is_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert not plan.has_outages
        assert plan.outage_duty_cycle == 0.0
        assert plan.describe() == "no faults"

    @pytest.mark.parametrize(
        "knob", ["gossip_loss_rate", "pull_loss_rate", "pollution_fraction"]
    )
    def test_probabilities_validated(self, knob):
        with pytest.raises(ValueError):
            FaultPlan(**{knob: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{knob: -0.1})

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(outage_windows=((2.0, 1.0),))  # end <= start
        with pytest.raises(ValueError):
            FaultPlan(outage_windows=((-1.0, 2.0),))  # negative start
        with pytest.raises(ValueError):
            FaultPlan(outage_windows=((0.0, math.inf),))  # non-finite
        with pytest.raises(ValueError):
            FaultPlan(outage_windows=((0.0, 3.0), (2.0, 4.0)))  # overlap
        with pytest.raises(ValueError):
            FaultPlan(outage_windows=((5.0, 6.0), (1.0, 2.0)))  # unsorted

    def test_malformed_window_entries_name_the_offender(self):
        with pytest.raises(ValueError, match=r"outage_windows\[1\]"):
            FaultPlan(outage_windows=((0.0, 1.0), (2.0, 3.0, 4.0)))
        with pytest.raises(ValueError, match=r"outage_windows\[0\]"):
            FaultPlan(outage_windows=((1.0,),))
        with pytest.raises(ValueError, match="pair of numbers"):
            FaultPlan(outage_windows=((0.0, "soon"),))
        with pytest.raises(ValueError, match=r"outage_windows\[0\]"):
            FaultPlan(outage_windows=("window",))

    def test_window_error_messages_locate_bad_values(self):
        with pytest.raises(ValueError, match=r"outage_windows\[2\]"):
            FaultPlan(
                outage_windows=((0.0, 1.0), (2.0, 3.0), (5.0, 4.0))
            )
        with pytest.raises(ValueError, match="window 1 .* window 0 ends"):
            FaultPlan(outage_windows=((0.0, 3.0), (2.0, 4.0)))

    def test_windows_and_renewal_mutually_exclusive(self):
        with pytest.raises(ValueError):
            FaultPlan(
                outage_windows=((1.0, 2.0),),
                outage_rate=0.5,
                outage_duration=1.0,
            )

    def test_renewal_needs_duration(self):
        with pytest.raises(ValueError):
            FaultPlan(outage_rate=0.5)

    def test_bursts_need_fraction(self):
        with pytest.raises(ValueError):
            FaultPlan(burst_rate=1.0)

    def test_duty_cycle_round_trip(self):
        plan = FaultPlan.renewal_outages(duty_cycle=0.3, duration=2.0)
        assert plan.outage_duty_cycle == pytest.approx(0.3)
        assert plan.outage_duration == 2.0
        assert not plan.is_null

    def test_renewal_outages_zero_duty_is_null(self):
        assert FaultPlan.renewal_outages(0.0, 2.0).is_null

    def test_duty_cycle_nan_for_windows(self):
        plan = FaultPlan(outage_windows=((1.0, 2.0),))
        assert math.isnan(plan.outage_duty_cycle)

    def test_describe_names_active_channels(self):
        text = FaultPlan(
            gossip_loss_rate=0.1,
            pollution_fraction=0.2,
            burst_rate=1.0,
            burst_fraction=0.1,
        ).describe()
        assert "loss" in text and "pollution" in text and "bursts" in text

    def test_has_faults_parameter_property(self):
        assert not params().has_faults
        assert not params(faults=FaultPlan()).has_faults
        assert params(faults=FaultPlan(pull_loss_rate=0.1)).has_faults

    def test_parameters_reject_non_plan(self):
        with pytest.raises(ValueError):
            params(faults="lossy")


class TestFaultInjectorUnit:
    def test_double_start_raises(self):
        _, _, injector = make_injector(FaultPlan())
        injector.start()
        with pytest.raises(RuntimeError):
            injector.start()

    def test_start_before_bind_raises_when_outages_active(self):
        _, _, injector = make_injector(
            FaultPlan(outage_windows=((1.0, 2.0),))
        )
        with pytest.raises(RuntimeError):
            injector.start()

    def test_start_before_bind_raises_when_bursts_active(self):
        _, _, injector = make_injector(
            FaultPlan(burst_rate=1.0, burst_fraction=0.2)
        )
        with pytest.raises(RuntimeError):
            injector.start()

    def test_stop_cancels_pending_fault_events(self):
        sim, _, injector = make_injector(
            FaultPlan(outage_windows=((1.0, 2.0), (3.0, 4.0)))
        )
        injector.bind(lambda: None, lambda e: None, lambda s: None)
        injector.start()
        assert sim.pending == 1  # each channel keeps one pending event
        injector.stop()
        sim.run_until(10.0)
        assert injector.outages_started == 0

    def test_loss_extremes(self):
        _, _, always = make_injector(
            FaultPlan(gossip_loss_rate=1.0, pull_loss_rate=1.0)
        )
        assert all(always.drop_gossip() for _ in range(50))
        assert all(always.drop_pull() for _ in range(50))

    def test_polluter_sampling_size(self):
        _, _, injector = make_injector(
            FaultPlan(pollution_fraction=0.25), n_slots=20
        )
        assert len(injector.polluters) == 5
        assert all(0 <= slot < 20 for slot in injector.polluters)
        # tiny fractions still nominate at least one polluter
        _, _, tiny = make_injector(FaultPlan(pollution_fraction=0.01), n_slots=20)
        assert len(tiny.polluters) == 1

    def test_pollution_propagates_through_contaminated_holdings(self):
        _, _, injector = make_injector(
            FaultPlan(pollution_fraction=0.25), n_slots=20
        )
        polluter = next(iter(injector.polluters))
        honest = next(
            s for s in range(20) if s not in injector.polluters
        )
        clean = FakeHolding(polluted_count=0)
        dirty = FakeHolding(polluted_count=2)
        assert injector.pollutes(polluter, clean)
        assert not injector.pollutes(honest, clean)
        # an honest peer re-encoding over junk emits junk
        assert injector.pollutes(honest, dirty)

    def test_maybe_pollute_corrupts_in_place(self):
        _, _, injector = make_injector(
            FaultPlan(pollution_fraction=1.0), n_slots=4
        )
        from repro.coding.block import SegmentDescriptor

        descriptor = SegmentDescriptor(
            segment_id=0, source_peer=0, size=1, injected_at=0.0
        )
        block = make_abstract_blocks(descriptor, 1, 0.0)[0]
        assert not block.polluted
        assert injector.maybe_pollute(0, FakeHolding(), block)
        assert block.polluted

    def test_corrupt_block_zeroes_coefficients(self):
        import numpy as np

        from repro.coding.block import SegmentDescriptor

        descriptor = SegmentDescriptor(
            segment_id=0, source_peer=0, size=2, injected_at=0.0
        )
        block = CodedBlock(
            descriptor, np.array([3, 7], dtype=np.uint8), np.array([9], dtype=np.uint8)
        )
        corrupt_block(block)
        assert block.polluted
        assert not block.coefficients.any()
        assert block.payload.tolist() == [9]

    def test_burst_size_bounds(self):
        _, _, injector = make_injector(
            FaultPlan(burst_rate=1.0, burst_fraction=0.1), n_slots=20
        )
        assert injector.burst_size() == 2
        _, _, everyone = make_injector(
            FaultPlan(burst_rate=1.0, burst_fraction=1.0), n_slots=20
        )
        assert everyone.burst_size() == 20

    def test_outage_window_machinery(self):
        tracer = Tracer()
        sim, metrics, injector = make_injector(
            FaultPlan(outage_windows=((2.0, 5.0),)), tracer=tracer
        )
        paused, resumed = [], []
        injector.bind(
            pause_servers=lambda: paused.append(sim.now),
            resume_servers=resumed.append,
            kill_slots=lambda s: None,
        )
        injector.start()
        sim.run_until(3.0)
        assert injector.servers_down
        sim.run_until(10.0)
        assert not injector.servers_down
        assert paused == [2.0]
        assert resumed == [3.0]  # elapsed downtime handed to the resume hook
        assert injector.outages_started == 1
        assert tracer.counts == {KIND_OUTAGE: 1, KIND_RECOVER: 1}
        assert tracer.of_kind(KIND_RECOVER)[0].detail["downtime"] == 3.0


def run_faulty(plan, seed=3, tracer=None, warmup=2.0, duration=6.0, **overrides):
    system = CollectionSystem(
        params(faults=plan, **overrides), seed=seed, tracer=tracer
    )
    report = system.run(warmup, duration)
    return system, report


class TestFaultsEndToEnd:
    def test_null_plan_is_bitwise_neutral(self):
        """A FaultPlan() run replays the exact trace of a no-plan run."""

        def trace(plan):
            tracer = Tracer()
            CollectionSystem(
                params(faults=plan), seed=7, tracer=tracer
            ).run(2.0, 4.0)
            return [event.as_dict() for event in tracer.events]

        baseline = trace(None)
        assert trace(FaultPlan()) == baseline
        assert len(baseline) > 100  # the runs actually did something

    def test_total_pull_loss_collects_nothing(self):
        system, report = run_faulty(FaultPlan(pull_loss_rate=1.0))
        assert report.useful_pulls == 0
        assert report.normalized_goodput == 0.0
        assert report.transfers_dropped > 0
        assert all(s.useful_pulls == 0 for s in system.servers.servers)
        system.consistency_check()

    def test_total_gossip_loss_stops_replication(self):
        tracer = Tracer(kinds=[KIND_GOSSIP, KIND_DROP])
        system, report = run_faulty(
            FaultPlan(gossip_loss_rate=1.0), tracer=tracer
        )
        assert KIND_GOSSIP not in tracer.counts  # nothing ever delivered
        assert tracer.counts[KIND_DROP] > 0
        assert report.transfers_dropped > 0
        # the tracer sees lifetime drops; the metrics total must agree
        assert system.metrics.transfers_dropped == tracer.counts[KIND_DROP]

    def test_partial_loss_still_collects(self):
        _, report = run_faulty(FaultPlan(pull_loss_rate=0.3))
        assert report.useful_pulls > 0
        assert report.transfers_dropped > 0

    def test_full_pollution_rejects_everything(self):
        tracer = Tracer(kinds=[KIND_POLLUTED])
        system, report = run_faulty(
            FaultPlan(pollution_fraction=1.0), tracer=tracer
        )
        assert report.useful_pulls == 0
        assert report.blocks_rejected_polluted > 0
        assert (
            tracer.counts[KIND_POLLUTED]
            == system.metrics.blocks_rejected_polluted
        )
        system.consistency_check()

    def test_rlnc_pollution_never_corrupts_a_decode(self):
        from repro.experiments.robustness import rlnc_pollution_audit

        rejected, corrupted, decoded = rlnc_pollution_audit(
            seed=5, pollution_fraction=0.3
        )
        assert rejected > 0
        assert corrupted == 0
        assert decoded > 0

    def test_deterministic_outage_pauses_pulls_and_integrates_downtime(self):
        plan = FaultPlan(outage_windows=((3.0, 5.0),))
        system = CollectionSystem(params(faults=plan), seed=2)
        system.metrics.begin_window(0.0)
        system.run_until(3.0)
        during = system.metrics.pulls
        system.run_until(4.9)
        assert system.faults.servers_down
        assert system.metrics.pulls == during  # pull clocks paused
        system.run_until(8.0)
        assert not system.faults.servers_down
        assert system.metrics.pulls > during  # resumed (plus catch-up)
        report = system.metrics.report(8.0)
        assert report.outage_time == pytest.approx(2.0)

    def test_outage_report_window_overlap_only(self):
        # measurement window [2, 8], outage (3, 5): overlap is exactly 2.0
        _, report = run_faulty(FaultPlan(outage_windows=((3.0, 5.0),)))
        assert report.outage_time == pytest.approx(2.0)
        assert report.useful_pulls > 0

    def test_renewal_outages_accumulate_downtime(self):
        plan = FaultPlan.renewal_outages(duty_cycle=0.4, duration=1.0)
        system, report = run_faulty(plan, duration=12.0)
        assert system.faults.outages_started > 1
        assert report.outage_time > 0.0

    def test_bursts_force_correlated_departures(self):
        tracer = Tracer(kinds=[KIND_BURST])
        plan = FaultPlan(burst_rate=1.5, burst_fraction=0.2)
        system, report = run_faulty(plan, tracer=tracer, mean_lifetime=5.0)
        assert system.faults.bursts_fired > 0
        assert report.burst_departures > 0
        # every burst kills exactly burst_size slots (40 * 0.2 = 8)
        assert (
            system.metrics.burst_departures
            == 8 * system.faults.bursts_fired
        )
        assert tracer.counts[KIND_BURST] == system.faults.bursts_fired
        system.consistency_check()

    def test_degradation_counters_reported(self):
        plan = FaultPlan(
            gossip_loss_rate=0.2,
            pull_loss_rate=0.2,
            pollution_fraction=0.2,
            outage_windows=((3.0, 4.0),),
            burst_rate=0.8,
            burst_fraction=0.1,
        )
        system, report = run_faulty(plan, mean_lifetime=10.0)
        data = report.as_dict()
        assert data["transfers_dropped"] > 0
        assert data["blocks_rejected_polluted"] > 0
        assert data["burst_departures"] > 0
        assert data["outage_time"] == pytest.approx(1.0)
        system.consistency_check()
        system.shutdown()
        # shutdown cancelled every recurring clock: advancing time fires no
        # further pulls, bursts, or outages (pending TTL expiries may drain)
        pulls = system.metrics.pulls
        bursts = system.faults.bursts_fired
        outages = system.faults.outages_started
        system.run_until(system.sim.now + 10.0)
        assert system.metrics.pulls == pulls
        assert system.faults.bursts_fired == bursts
        assert system.faults.outages_started == outages

    def test_fault_free_report_keeps_counters_zero(self):
        _, report = run_faulty(None)
        data = report.as_dict()
        assert data["transfers_dropped"] == 0
        assert data["blocks_rejected_polluted"] == 0
        assert data["burst_departures"] == 0
        assert data["outage_time"] == 0.0


class TestOneTimelineBothSimulators:
    KILL_SERVER = ("kill-server", 3.0, 0.0, 0.0)
    KILL_PEERS = ("kill-peers", 5.0, 0.0, 0.5)

    def test_fast_engine_honours_server_process_faults(self):
        """A kill-server costs both simulators the restart latency in
        downtime; the fast engine refuses kill-peers rather than drop it."""
        plan = FaultPlan(
            process_faults=(self.KILL_SERVER, self.KILL_PEERS),
            process_restart_latency=4.0,
        )
        event = CollectionSystem(params(plan, n_peers=200), seed=1)
        report = event.run(2.0, 8.0)
        assert report.outage_time == pytest.approx(4.0)
        assert report.burst_departures == 100
        with pytest.raises(ValueError, match="kill-peers"):
            params(plan, n_peers=200, engine=ENGINE_FAST)
        server_only = replace(plan, process_faults=(self.KILL_SERVER,))
        fast = FastCollectionSystem(
            params(server_only, n_peers=200, engine=ENGINE_FAST), seed=1
        )
        assert fast.run(2.0, 8.0).outage_time == pytest.approx(4.0)

    @pytest.mark.parametrize("engine", [ENGINE_EVENT, ENGINE_FAST])
    def test_a_window_touching_a_server_fault_window_still_runs(self, engine):
        """The stop-server window (4, 5) ends as the outage window (5, 6)
        begins: the timeline runs one after the other on both engines."""
        plan = FaultPlan(
            outage_windows=((5.0, 6.0),),
            process_faults=(("stop-server", 4.0, 1.0, 0.0),),
        )
        config = params(plan, engine=engine)
        system_cls = (
            FastCollectionSystem if engine == ENGINE_FAST else CollectionSystem
        )
        report = system_cls(config, seed=3).run(2.0, 8.0)
        assert report.outage_time == pytest.approx(2.0)


class TestFaultEdgeProperties:
    """Chaos-motivated edge cases: extreme-but-valid plan corners."""

    def test_full_pollution_fraction_nominates_everyone(self):
        _, _, injector = make_injector(
            FaultPlan(pollution_fraction=1.0), n_slots=12
        )
        assert injector.polluters == frozenset(range(12))
        assert all(injector.is_polluter(slot) for slot in range(12))

    def test_outage_window_starting_at_time_zero(self):
        """Servers may be down from the very first event."""
        plan = FaultPlan(outage_windows=((0.0, 2.0),))
        system = CollectionSystem(params(faults=plan), seed=2)
        system.metrics.begin_window(0.0)
        system.run_until(1.0)
        assert system.faults.servers_down
        assert system.metrics.pulls == 0  # nothing pulled while down
        system.run_until(6.0)
        assert not system.faults.servers_down
        assert system.metrics.pulls > 0
        report = system.metrics.report(6.0)
        assert report.outage_time == pytest.approx(2.0)
        system.consistency_check()

    def test_burst_can_exceed_live_population(self):
        """burst_fraction=1.0 kills every slot, live or already empty."""
        plan = FaultPlan(burst_rate=1.5, burst_fraction=1.0)
        system, report = run_faulty(plan, mean_lifetime=4.0)
        assert system.faults.burst_size() == system.params.n_peers
        assert system.faults.bursts_fired > 0
        assert report.burst_departures > 0
        system.consistency_check()

    def test_null_plan_neutral_under_monitor_hooks(self):
        """Monitors installed on a null-plan run change zero events."""
        from repro.chaos.monitors import MonitorSuite, runtime_monitors

        def trace(plan, monitored):
            tracer = Tracer()
            system = CollectionSystem(
                params(faults=plan), seed=7, tracer=tracer
            )
            if monitored:
                suite = MonitorSuite(
                    system, every=3, monitors=runtime_monitors(system)
                )
                with suite:
                    system.run(2.0, 4.0)
                    suite.check_now()
                assert suite.checks_run > 10
            else:
                system.run(2.0, 4.0)
            return [event.as_dict() for event in tracer.events]

        baseline = trace(None, monitored=False)
        assert trace(FaultPlan(), monitored=True) == baseline
        assert len(baseline) > 100
