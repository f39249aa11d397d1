"""Tests for the parallel sweep runner (src/repro/runner/).

The load-bearing property is byte-identity: for every experiment, the
sharded runner must produce exactly the ``SeriesResult`` JSON the serial
path produces — under 1 worker, 4 workers, and an interrupt-plus-resume.
The fault-tolerance paths (worker crash, hung task, raised task, retry
exhaustion) are driven by the synthetic misbehaving plans so they run in
milliseconds instead of simulation-seconds.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import PLAN_BUILDERS
from repro.experiments.base import SimBudget, parse_seeds
from repro.runner import (
    JournalError,
    RunJournal,
    RunSpec,
    TaskFailedError,
    execute_run,
    synthetic_options,
)
from repro.runner.telemetry import RunnerTelemetry

#: Small enough for CI, big enough to exercise real simulation cells.
TINY = SimBudget(n_peers=20, warmup=1.0, duration=1.5, seeds=(1,), n_servers=2)
#: Two seeds so cross-process seed averaging is actually exercised.
TINY2 = SimBudget(n_peers=20, warmup=1.0, duration=1.5, seeds=(1, 2),
                  n_servers=2)

#: Reduced grids: every experiment, every merge code path, tiny runtime.
EQUIVALENCE_CASES = [
    ("fig3", TINY2, {"segment_sizes": [1, 4], "capacities": [2.0]}),
    ("fig4", TINY, {"mu_values": [4.0], "scenarios": [[2.0, 1], [2.0, 4]]}),
    ("fig5", TINY, {"segment_sizes": [1, 4], "capacities": [8.0]}),
    ("fig6", TINY, {"segment_sizes": [1, 8], "capacities": [8.0]}),
    ("theorem1", TINY, {"segment_sizes": [1, 4]}),
    ("transient", TINY, {"n_samples": 4}),
    ("baseline", TINY, {}),
    ("robustness", TINY, {"severities": [0.0, 0.3]}),
    ("adversary", TINY, {"fractions": [0.0, 0.2]}),
    ("ablation-ttl", TINY, {"gammas": [0.5, 2.0]}),
    ("ablation-buffer", TINY, {"capacities": [16, 48]}),
    ("ablation-selection", TINY, {"segment_sizes": [1, 5]}),
    ("ablation-scheduler", TINY,
     {"policies": ["random", "greedy-completion"]}),
    ("ablation-coding", TINY, {"segment_sizes": [2, 3]}),
    ("ablation-topology", TINY, {"degrees": [2, 0]}),
]


class TestParseSeeds:
    def test_parses_csv(self):
        assert parse_seeds("1,2,3") == (1, 2, 3)
        assert parse_seeds(" 7 , 9 ") == (7, 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            parse_seeds(" , ")

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="must be integers"):
            parse_seeds("1,two")

    def test_duplicates_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="duplicate seed"):
            parse_seeds("1,2,1")


class TestPlanModel:
    def test_duplicate_task_ids_rejected(self):
        from repro.experiments.base import ExperimentPlan, SimTask

        tasks = [
            SimTask("a", dict), SimTask("a", dict),
        ]
        with pytest.raises(ValueError, match="duplicate task id"):
            ExperimentPlan("demo", tasks, lambda payloads: None)

    def test_merge_validates_completeness(self):
        spec = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(3)
        )
        plan = spec.build_plan()
        with pytest.raises(ValueError, match="missing"):
            plan.merge({"cell=0000": {"value": 1.0, "index": 0}})


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize(
        "experiment,budget,options",
        EQUIVALENCE_CASES,
        ids=[case[0] for case in EQUIVALENCE_CASES],
    )
    def test_workers_and_resume_byte_identical(
        self, tmp_path, experiment, budget, options
    ):
        spec = RunSpec.create(experiment, "fast", budget, options)
        serial = spec.build_plan().run_serial().to_json()

        one = execute_run(spec, workers=1, runs_dir=tmp_path / "w1")
        assert one.complete and one.result.to_json() == serial

        four = execute_run(spec, workers=4, runs_dir=tmp_path / "w4")
        assert four.complete and four.result.to_json() == serial

        # Interrupt mid-sweep (checkpoint), then resume: only the missing
        # cells run, and the merged result is still byte-identical.
        total = four.total_tasks
        stop_after = max(1, total // 2)
        first = execute_run(
            spec, workers=2, runs_dir=tmp_path / "ckpt", run_id="r",
            stop_after=stop_after,
        )
        journaled = len(
            list((tmp_path / "ckpt" / "r" / "tasks").glob("*.json"))
        )
        assert journaled == first.completed_tasks
        resumed = execute_run(
            spec, workers=2, runs_dir=tmp_path / "ckpt", resume="r"
        )
        assert resumed.complete
        assert resumed.result.to_json() == serial
        assert resumed.resumed_tasks == journaled
        assert resumed.executed_this_session == total - journaled

    def test_journal_payloads_reproduce_result(self, tmp_path):
        spec = RunSpec.create(
            "fig3", "fast", TINY2,
            {"segment_sizes": [1, 4], "capacities": [2.0]},
        )
        outcome = execute_run(spec, workers=2, runs_dir=tmp_path)
        journal = RunJournal.load(outcome.run_dir)
        merged = spec.build_plan().merge(journal.completed_payloads())
        assert merged.to_json() == outcome.result.to_json()
        archived = (outcome.run_dir / "result.json").read_text()
        assert archived == outcome.result.to_json() + "\n"


class TestFaultTolerance:
    def _spec(self, tmp_path, fail, n_tasks=6):
        options = synthetic_options(
            n_tasks, fail=fail, marker_dir=tmp_path / "markers"
        )
        return RunSpec.create("synthetic-grid", "fast", TINY, options)

    def test_worker_crash_is_isolated_and_retried(self, tmp_path):
        spec = self._spec(tmp_path, {"cell=0002": "kill-once"})
        clean = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(6)
        )
        serial = clean.build_plan().run_serial().to_json()
        outcome = execute_run(
            spec, workers=3, runs_dir=tmp_path / "runs", retries=2
        )
        assert outcome.complete
        assert outcome.result.to_json() == serial
        journal = RunJournal.load(outcome.run_dir)
        records = {
            r["task_id"]: r for r in journal.iter_task_records()
        }
        assert records["cell=0002"]["attempts"] == 2
        kinds = [
            json.loads(line)["kind"]
            for line in journal.events_path.read_text().splitlines()
        ]
        assert "worker-crash" in kinds and "task-retry" in kinds

    def test_raised_task_is_retried_without_killing_worker(self, tmp_path):
        spec = self._spec(tmp_path, {"cell=0001": "raise-once"})
        outcome = execute_run(
            spec, workers=2, runs_dir=tmp_path / "runs", retries=1
        )
        assert outcome.complete
        journal = RunJournal.load(outcome.run_dir)
        kinds = [
            json.loads(line)["kind"]
            for line in journal.events_path.read_text().splitlines()
        ]
        assert "task-retry" in kinds
        assert "worker-crash" not in kinds

    def test_hung_task_times_out_and_recovers(self, tmp_path):
        spec = self._spec(tmp_path, {"cell=0000": "hang-once"}, n_tasks=3)
        outcome = execute_run(
            spec, workers=2, runs_dir=tmp_path / "runs",
            task_timeout=1.5, retries=1,
        )
        assert outcome.complete
        journal = RunJournal.load(outcome.run_dir)
        kinds = [
            json.loads(line)["kind"]
            for line in journal.events_path.read_text().splitlines()
        ]
        assert "worker-timeout" in kinds

    def test_retry_exhaustion_fails_loudly(self, tmp_path):
        spec = self._spec(tmp_path, {"cell=0001": "raise-always"}, n_tasks=3)
        with pytest.raises(TaskFailedError, match="cell=0001"):
            execute_run(
                spec, workers=2, runs_dir=tmp_path / "runs", retries=1
            )


class TestJournal:
    def test_fingerprint_matches_journals_of_earlier_releases(self):
        """A run journaled by an earlier release still resumes: the same
        spec hashes to the same hex it did when it was journaled."""
        spec = RunSpec.create(
            "fig5", "fast",
            SimBudget(n_peers=40, warmup=2.0, duration=3.0, seeds=(1, 2)),
            {"extra": [1, 2]},
        )
        assert spec.fingerprint(["a", "b"]) == (
            "975b5fc7e2284fbeb68d03f7f6ecc6bc9dec5a1f36a343c54d5ff25ca111d692"
        )

    def test_resume_rejects_spec_drift(self, tmp_path):
        spec_a = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(3)
        )
        execute_run(
            spec_a, workers=1, runs_dir=tmp_path, run_id="r",
            stop_after=1,
        )
        spec_b = RunSpec.create(
            "synthetic-grid", "fast", TINY2, synthetic_options(3)
        )
        with pytest.raises(JournalError, match="fingerprint"):
            execute_run(spec_b, workers=1, runs_dir=tmp_path, resume="r")

    def test_resume_rejects_unknown_journaled_task(self, tmp_path):
        spec = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(3)
        )
        execute_run(
            spec, workers=1, runs_dir=tmp_path, run_id="r", stop_after=1
        )
        rogue = tmp_path / "r" / "tasks" / "99999-rogue.json"
        rogue.write_text(json.dumps(
            {"task_id": "cell=9999", "index": 9999, "attempts": 1,
             "elapsed_seconds": 0.0, "payload": {"value": 0.0}}
        ))
        with pytest.raises(JournalError, match="not in this plan"):
            execute_run(spec, workers=1, runs_dir=tmp_path, resume="r")

    def test_missing_run_dir_is_a_journal_error(self, tmp_path):
        spec = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(3)
        )
        with pytest.raises(JournalError, match="not a run directory"):
            execute_run(spec, workers=1, runs_dir=tmp_path, resume="nope")

    def test_fresh_run_refuses_nonempty_dir(self, tmp_path):
        (tmp_path / "r").mkdir()
        (tmp_path / "r" / "junk").write_text("x")
        spec = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(3)
        )
        with pytest.raises(JournalError, match="already exists"):
            execute_run(spec, workers=1, runs_dir=tmp_path, run_id="r")

    def test_unknown_experiment_is_a_value_error(self):
        spec = RunSpec.create("no-such-figure", "fast", TINY)
        with pytest.raises(ValueError, match="unknown experiment"):
            spec.build_plan()


class TestTelemetry:
    def test_unregistered_kind_rejected(self):
        telemetry = RunnerTelemetry(total_tasks=1)
        with pytest.raises(ValueError, match="unregistered"):
            telemetry.emit("gosip-done")

    def test_counters_and_progress_line(self):
        telemetry = RunnerTelemetry(total_tasks=4, workers=2)
        telemetry.emit("task-dispatch", task="a", worker=0, attempt=1)
        telemetry.emit(
            "task-done", task="a", worker=0, attempt=1, elapsed_seconds=0.01
        )
        telemetry.emit("task-retry", task="b", reason="boom")
        line = telemetry.progress_line()
        assert "1/4 tasks" in line
        assert "1 retried" in line
        assert "eta" in line

    def test_run_events_reach_the_journal(self, tmp_path):
        spec = RunSpec.create(
            "synthetic-grid", "fast", TINY, synthetic_options(2)
        )
        outcome = execute_run(spec, workers=1, runs_dir=tmp_path)
        journal = RunJournal.load(outcome.run_dir)
        kinds = [
            json.loads(line)["kind"]
            for line in journal.events_path.read_text().splitlines()
        ]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-complete"
        assert kinds.count("task-done") == 2


class TestRunnerCLI:
    """End-to-end through ``python -m repro run`` in real subprocesses."""

    ARGS = [
        "--n-peers", "20", "--warmup", "1", "--duration", "1.5",
        "--seeds", "1", "--n-servers", "2",
    ]

    def _run(self, argv, cwd, **kwargs):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            **kwargs,
        )

    def test_sigkill_mid_sweep_then_resume_is_byte_identical(self, tmp_path):
        serial = self._run(
            ["fig5", *self.ARGS, "--json", "serial.json"], tmp_path
        )
        assert serial.wait(timeout=600) == 0

        proc = self._run(
            ["run", "fig5", *self.ARGS, "--workers", "2", "--no-progress",
             "--run-id", "victim"],
            tmp_path,
            start_new_session=True,
        )
        tasks_dir = tmp_path / "runs" / "victim" / "tasks"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if tasks_dir.is_dir() and len(list(tasks_dir.glob("*.json"))) >= 2:
                os.killpg(proc.pid, signal.SIGKILL)
                break
            time.sleep(0.05)
        proc.wait(timeout=60)

        journaled = len(list(tasks_dir.glob("*.json")))
        assert journaled >= 2  # progress survived the kill
        total = len(json.loads(
            (tmp_path / "runs" / "victim" / "manifest.json").read_text()
        )["task_ids"])

        resume = self._run(
            ["run", "fig5", "--workers", "2", "--no-progress",
             "--resume", "victim", "--json", "resumed.json"],
            tmp_path,
        )
        assert resume.wait(timeout=600) == 0
        # Resume executed only the missing cells: the journal grew by
        # exactly the complement of what survived the kill.
        assert len(list(tasks_dir.glob("*.json"))) == total
        assert (
            (tmp_path / "resumed.json").read_text()
            == (tmp_path / "serial.json").read_text()
        )

    def test_checkpoint_exit_code(self, tmp_path):
        proc = self._run(
            ["run", "fig5", *self.ARGS, "--workers", "1", "--no-progress",
             "--run-id", "ck", "--stop-after", "1"],
            tmp_path,
        )
        assert proc.wait(timeout=600) == 3  # EXIT_CHECKPOINTED


class TestLegacyCLISeeds:
    def test_seeds_override_reaches_runner(self, monkeypatch, capsys):
        from repro import cli
        from repro.experiments.base import ExperimentPlan, SeriesResult

        captured = {}

        def fake_merge(payloads):
            result = SeriesResult(
                name="fig3", title="t", x_name="x", x_values=[1.0]
            )
            result.add_series("y", [1.0])
            return result

        def fake_builder(quality, budget):
            captured["quality"] = quality
            captured["budget"] = budget
            return ExperimentPlan("fig3", [], fake_merge)

        monkeypatch.setitem(PLAN_BUILDERS, "fig3", fake_builder)
        assert cli.main(["fig3", "--seeds", "5,6"]) == 0
        capsys.readouterr()
        assert captured["budget"].seeds == (5, 6)

    def test_duplicate_seeds_exit_2(self, capsys):
        from repro import cli

        assert cli.main(["fig3", "--seeds", "1,1"]) == 2
        assert "duplicate seed" in capsys.readouterr().err
