"""Tests for the chaos layer: sampler, monitors, seeded defects, shrinker, CLI.

The seeded defects are the chaos entries of the catalogue in
``tests/mutants.py``: each runs as a campaign on its own mutated copy of
the tree, once per module (``caught``).
"""

import json

import pytest

from repro.chaos import (
    CHAOS_CAMPAIGN,
    InvariantViolation,
    MonitorSuite,
    PlanSpace,
    TrialConfig,
    TrialOutcome,
    run_trial,
    runtime_monitors,
    sample_trial,
    shrink_trial,
    write_repro,
)
from repro.chaos.campaign import build_chaos_plan, campaign_options
from repro.chaos.cli import chaos_main
from repro.chaos.shrink import load_repro
from repro.core.params import Parameters
from repro.core.peer import Peer
from repro.core.system import CollectionSystem
from repro.experiments.base import QUALITY_FAST, budget_for
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.util.codec import decode, encode
from tests.mutants import MUTANTS, Chaos, run_mutant


def small_params(**overrides):
    defaults = dict(
        n_peers=20,
        arrival_rate=3.0,
        gossip_rate=5.0,
        deletion_rate=1.0,
        normalized_capacity=1.0,
        segment_size=3,
        n_servers=2,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


# -- engine probe hook --------------------------------------------------------


class TestEngineProbe:
    def test_probe_fires_every_k_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.set_probe(lambda: fired.append(sim.now), every=3)
        sim.run_until(20.0)
        # 10 events -> probes after events 3, 6, 9
        assert len(fired) == 3

    def test_probe_countdown_survives_run_until_boundaries(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        sim.set_probe(lambda: fired.append(sim.now), every=4)
        for end in (2.5, 5.5, 20.0):  # events split 2 + 3 + 5 across calls
            sim.run_until(end)
        assert len(fired) == 2  # after global events 4 and 8

    def test_probe_interval_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.set_probe(lambda: None, every=0)

    def test_clear_probe(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: None)
        sim.set_probe(lambda: fired.append(1), every=1)
        sim.clear_probe()
        sim.run_until(2.0)
        assert fired == []

    def test_probe_consumes_no_sequence_numbers(self):
        """An installed probe cannot perturb event ordering or times."""

        def drive(with_probe):
            sim = Simulator()
            log = []
            for i in range(20):
                sim.schedule(
                    float(i % 5) + 0.25, lambda i=i: log.append((sim.now, i))
                )
            if with_probe:
                sim.set_probe(lambda: None, every=2)
            sim.run_until(10.0)
            return log

        assert drive(False) == drive(True)


# -- plan-space sampler -------------------------------------------------------


class TestSampler:
    def test_same_inputs_same_trial(self):
        a = sample_trial(42, 7)
        b = sample_trial(42, 7)
        assert encode(a) == encode(b)

    def test_different_trials_differ(self):
        assert encode(sample_trial(42, 0)) != encode(sample_trial(42, 1))

    def test_trials_are_independent_of_each_other(self):
        """Trial i never depends on trials 0..i-1 (own substream)."""
        assert encode(sample_trial(42, 5)) == encode(sample_trial(42, 5))

    def test_sampled_configs_are_valid(self):
        for trial_id in range(60):
            config = sample_trial(3, trial_id)
            params = config.parameters()  # re-validates everything
            assert params.n_peers >= 1
            assert config.duration > 0

    def test_space_reaches_extreme_corners(self):
        """Over many draws the space exercises its declared corners."""
        space = PlanSpace()
        saw_total_loss = saw_tight_buffer = saw_total_burst = False
        saw_window_at_zero = saw_rlnc = False
        for trial_id in range(120):
            config = sample_trial(5, trial_id, space=space)
            plan = config.plan
            if plan.get("gossip_loss_rate") == 1.0 or plan.get("pull_loss_rate") == 1.0:
                saw_total_loss = True
            if plan.get("burst_fraction") == 1.0:
                saw_total_burst = True
            if any(w[0] == 0.0 for w in plan.get("outage_windows", [])):
                saw_window_at_zero = True
            if config.params.get("buffer_capacity") == config.params["segment_size"]:
                saw_tight_buffer = True
            if config.params.get("mode") == "rlnc":
                saw_rlnc = True
        assert saw_total_loss and saw_tight_buffer and saw_total_burst
        assert saw_window_at_zero and saw_rlnc

    def test_config_json_round_trip(self):
        config = sample_trial(9, 3)
        clone = decode(TrialConfig, json.loads(json.dumps(encode(config))))
        assert clone == config

    def test_negative_trial_id_rejected(self):
        with pytest.raises(ValueError):
            sample_trial(1, -1)


# -- invariant monitors -------------------------------------------------------


class TestMonitors:
    def test_clean_run_passes_all_monitors(self):
        system = CollectionSystem(small_params(), seed=4)
        suite = MonitorSuite(system, every=32)
        with suite:
            system.run(1.0, 3.0)
            suite.check_now()
        assert suite.checks_run > 1

    def test_violation_is_assertion_error(self):
        violation = InvariantViolation("buffer-cap", "boom")
        assert isinstance(violation, AssertionError)
        assert violation.monitor == "buffer-cap"
        assert "buffer-cap" in str(violation)

    def test_monitor_detects_metric_drift(self):
        """Corrupting the tracked block metric trips block-conservation."""
        system = CollectionSystem(small_params(), seed=4)
        system.run(1.0, 2.0)
        system.metrics.total_blocks.add(system.now, 5)
        with pytest.raises(InvariantViolation) as exc:
            system.consistency_check()
        assert exc.value.monitor == "block-conservation"

    def test_monitor_detects_buffer_overflow(self):
        system = CollectionSystem(small_params(), seed=4)
        system.run(1.0, 2.0)
        peer = system.peers[0]
        peer.capacity = 0  # simulate a cap the buffer already exceeds
        suite = MonitorSuite(system, every=1)
        if peer.block_count == 0:
            pytest.skip("peer 0 drained in this run")
        with pytest.raises(InvariantViolation) as exc:
            suite.check_now()
        assert exc.value.monitor == "buffer-cap"

    def test_cadence_validated(self):
        system = CollectionSystem(small_params(), seed=4)
        with pytest.raises(ValueError):
            MonitorSuite(system, every=0)

    def test_monitored_run_is_bitwise_neutral(self):
        """Installing the full suite never changes a single event."""

        def trace(monitored):
            tracer = Tracer()
            system = CollectionSystem(
                small_params(mode="rlnc", payload_bytes=8, mean_lifetime=6.0),
                seed=11,
                tracer=tracer,
            )
            originals = system.record_payloads()
            if monitored:
                suite = MonitorSuite(
                    system,
                    every=5,
                    monitors=runtime_monitors(system, originals),
                )
                with suite:
                    system.run(1.0, 4.0)
                    suite.check_now()
            else:
                system.run(1.0, 4.0)
            return [event.as_dict() for event in tracer.events]

        baseline = trace(False)
        assert trace(True) == baseline
        assert len(baseline) > 100

    def test_record_payloads_requires_payload_mode(self):
        system = CollectionSystem(small_params(), seed=1)
        with pytest.raises(ValueError):
            system.record_payloads()

    def test_record_payloads_archives_originals(self):
        system = CollectionSystem(
            small_params(mode="rlnc", payload_bytes=4), seed=2
        )
        originals = system.record_payloads()
        system.run(0.5, 1.5)
        assert originals  # injections happened and were recorded
        for rows in originals.values():
            assert rows.shape[1] == 4


# -- seeded mutants ---------------------------------------------------------


@pytest.fixture(scope="module")
def caught(tmp_path_factory):
    """``caught(name)``: the kill-matrix rows of one chaos mutant and the
    directory holding its mutated copy and campaign, checked once."""
    checked = {}

    def check(name):
        if name not in checked:
            work = tmp_path_factory.mktemp(name)
            checked[name] = run_mutant(MUTANTS[name], work), work
        return checked[name]

    return check


class TestMutants:
    @pytest.mark.parametrize(
        "name,monitor",
        [
            pytest.param("buffer-cap-off-by-one", "buffer-cap",
                         id="buffer-cap-off-by-one"),
            pytest.param("decoder-skip-elimination", "decode-fidelity",
                         id="decoder-skip-elimination"),
            pytest.param("churn-leaks-registry-degree", "block-conservation",
                         id="churn-leaks-registry-degree"),
        ],
    )
    def test_mutant_caught_by_expected_monitor(self, name, monitor, caught):
        """The campaign on the mutated copy exits 1, a reproducer names
        *monitor*, and it replays on the copy but not on the shipped tree."""
        rows, _ = caught(name)
        assert [row.check for row in rows] == [Chaos(monitor)]
        assert rows[0].verdict == "killed", rows[0].detail


# -- trial harness ------------------------------------------------------------


class TestHarness:
    def test_clean_trial_outcome(self):
        outcome = run_trial(sample_trial(7, 0))
        assert outcome.ok
        assert outcome.monitor is None
        assert outcome.events > 0
        assert outcome.checks_run > 0

    def test_outcome_json_round_trip(self):
        outcome = run_trial(sample_trial(7, 1))
        clone = decode(TrialOutcome, json.loads(json.dumps(encode(outcome))))
        assert clone == outcome

    def test_trials_replay_deterministically(self):
        config = sample_trial(7, 2)
        assert encode(run_trial(config)) == encode(run_trial(config))

    def test_crash_becomes_exception_outcome(self):
        """A trial that raises is a caught failure, not a worker fault."""
        config = sample_trial(7, 0)
        broken = decode(
            TrialConfig,
            {**encode(config), "params": {**config.params, "n_peers": 1,
                                         "n_servers": 5}},
        )
        outcome = run_trial(broken)
        assert not outcome.ok
        assert outcome.monitor == "exception"


# -- shrinker and repro files -------------------------------------------------


class TestShrink:
    @pytest.fixture
    def failing(self, monkeypatch):
        """A trial that fails in this process: the shrinker probes it here,
        so the buffer-cap defect is seeded for the test's duration."""
        monkeypatch.setattr(
            Peer, "is_full",
            property(lambda peer: peer.block_count >= peer.capacity + 1),
        )
        config = sample_trial(7, 0)
        outcome = run_trial(config)
        assert not outcome.ok and outcome.monitor == "buffer-cap"
        return config, outcome

    def test_shrink_preserves_failure_and_reduces(self, failing):
        config, outcome = failing
        result = shrink_trial(config, outcome.monitor, max_probes=48)
        assert result.reductions > 0
        minimized = result.minimized_config()
        assert minimized.params["n_peers"] <= config.params["n_peers"]
        assert minimized.duration <= config.duration
        replayed = run_trial(minimized)
        assert not replayed.ok
        assert replayed.monitor == outcome.monitor

    def test_shrink_rejects_passing_baseline(self):
        with pytest.raises(ValueError):
            shrink_trial(sample_trial(7, 0), "buffer-cap", max_probes=8)

    def test_repro_round_trip_and_deterministic_replay(self, failing, tmp_path):
        config, outcome = failing
        result = shrink_trial(config, outcome.monitor, max_probes=32)
        path = write_repro(
            tmp_path / "repro.json", outcome, shrink=result, campaign_seed=7
        )
        loaded_config, monitor, payload = load_repro(path)
        assert monitor == outcome.monitor
        assert payload["format"] == "repro-chaos-v1"
        first = run_trial(loaded_config)
        second = run_trial(loaded_config)
        assert not first.ok and first.monitor == monitor
        assert encode(first) == encode(second)

    def test_repro_refuses_passing_trial(self, tmp_path):
        outcome = run_trial(sample_trial(7, 0))
        with pytest.raises(ValueError):
            write_repro(tmp_path / "repro.json", outcome)

    def test_load_repro_rejects_other_formats(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            load_repro(path)


# -- campaign plan and runner integration -------------------------------------


class TestCampaign:
    def test_plan_runs_serially_and_merges(self):
        plan = build_chaos_plan(
            CHAOS_CAMPAIGN,
            budget_for(QUALITY_FAST),
            campaign_options(budget=3, seed=7),
        )
        assert plan.task_ids() == ["trial=00000", "trial=00001", "trial=00002"]
        result = plan.run_serial()
        assert result.series["ok"] == [1.0, 1.0, 1.0]
        assert any("0/3 trials violated" in note for note in result.notes)

    def test_mutant_campaign_reports_violations(self, caught):
        _, work = caught("churn-leaks-registry-degree")
        result = json.loads(
            (work / "runs" / "block-conservation" / "result.json").read_text()
        )
        assert 0.0 in result["series"]["ok"]
        assert any("block-conservation" in note for note in result["notes"])

    def test_bad_options_rejected(self):
        budget = budget_for(QUALITY_FAST)
        with pytest.raises(ValueError):
            build_chaos_plan(CHAOS_CAMPAIGN, budget, {"budget": 0})
        with pytest.raises(ValueError):
            build_chaos_plan("chaos-unknown", budget, {"budget": 1})

    def test_spec_routes_chaos_prefix(self):
        from repro.runner import RunSpec

        spec = RunSpec.create(
            CHAOS_CAMPAIGN,
            QUALITY_FAST,
            budget_for(QUALITY_FAST),
            campaign_options(budget=2, seed=7),
        )
        plan = spec.build_plan()
        assert plan.experiment == CHAOS_CAMPAIGN
        assert len(plan.tasks) == 2


# -- CLI ----------------------------------------------------------------------


class TestChaosCli:
    def test_clean_campaign_exits_zero(self, tmp_path, capsys):
        status = chaos_main(
            [
                "run", "--budget", "3", "--seed", "7",
                "--runs-dir", str(tmp_path), "--no-progress",
            ]
        )
        assert status == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_mutant_campaign_exits_one_and_writes_repros(self, caught):
        """On a mutated copy: exit 1, and the reproducers it writes replay
        there with exit 0 (the catalogue's chaos check asserts both)."""
        rows, work = caught("churn-leaks-registry-degree")
        assert rows[0].verdict == "killed", rows[0].detail
        assert sorted(work.glob("runs/block-conservation/repro-*.json"))

    def test_replay_of_fixed_code_fails_closed(self, caught, capsys):
        """A reproducer written on a mutated copy exits 1 on this tree."""
        _, work = caught("buffer-cap-off-by-one")
        repro = sorted(work.glob("runs/buffer-cap/repro-*.json"))[0]
        assert chaos_main(["replay", str(repro)]) == 1
        assert "NOT reproduced" in capsys.readouterr().err

    def test_resume_round_trip(self, tmp_path, capsys):
        status = chaos_main(
            [
                "run", "--budget", "4", "--seed", "7", "--stop-after", "2",
                "--run-id", "camp", "--runs-dir", str(tmp_path),
                "--no-progress",
            ]
        )
        assert status == 3  # checkpointed
        capsys.readouterr()
        status = chaos_main(
            [
                "run", "--resume", "camp", "--runs-dir", str(tmp_path),
                "--no-progress",
            ]
        )
        assert status == 0
        assert "4 trials" in capsys.readouterr().out

    def test_campaign_parallel_matches_serial(self, tmp_path):
        """2-worker campaign journal merges to the serial result."""
        from repro.runner import RunSpec, execute_run

        spec = RunSpec.create(
            CHAOS_CAMPAIGN,
            QUALITY_FAST,
            budget_for(QUALITY_FAST),
            campaign_options(budget=4, seed=11),
        )
        outcome = execute_run(
            spec, workers=2, runs_dir=tmp_path, run_id="par"
        )
        assert outcome.complete
        serial = spec.build_plan().run_serial()
        assert outcome.result is not None
        assert outcome.result.to_json() == serial.to_json()
