"""Tests for the experiment harness and CLI (tiny budgets)."""

import dataclasses
import json

import pytest

from repro.experiments import PLAN_BUILDERS
from repro.experiments.base import (
    QUALITY_FAST,
    ExperimentPlan,
    SeedMeans,
    SeriesResult,
    SimBudget,
    budget_for,
    simulate_cell,
)
from repro.experiments.baseline import (
    FlashCrowdScenario,
    plan_baseline_comparison,
)
from repro.experiments.fig3 import plan_fig3, plan_fig5, plan_fig6
from repro.experiments.fig4 import plan_fig4
from repro.experiments.theorem1 import plan_theorem1

TINY = SimBudget(n_peers=30, warmup=3.0, duration=4.0, seeds=(1,), n_servers=2)


class TestSeriesResult:
    def make(self):
        result = SeriesResult(
            name="demo", title="Demo", x_name="x", x_values=[1.0, 2.0]
        )
        result.add_series("y", [0.5, None])
        result.add_note("a note")
        return result

    def test_add_series_length_checked(self):
        result = self.make()
        with pytest.raises(ValueError):
            result.add_series("bad", [1.0])

    def test_duplicate_label_rejected(self):
        result = self.make()
        with pytest.raises(ValueError):
            result.add_series("y", [1.0, 2.0])

    def test_table_contains_values_and_notes(self):
        text = self.make().to_table()
        assert "Demo" in text and "0.5000" in text and "a note" in text
        assert "-" in text  # the None cell

    def test_json_roundtrip(self):
        original = self.make()
        restored = SeriesResult.from_json(original.to_json())
        assert restored.name == original.name
        assert restored.series == original.series
        assert restored.notes == original.notes

    def test_json_is_valid(self):
        payload = json.loads(self.make().to_json())
        assert payload["series"]["y"] == [0.5, None]


class TestBudgets:
    def test_known_qualities(self):
        assert budget_for("fast").n_peers < budget_for("full").n_peers
        with pytest.raises(ValueError):
            budget_for("ultra")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("warmup", -1.0),
            ("warmup", float("nan")),
            ("warmup", float("inf")),
            ("duration", 0.0),
            ("duration", -1.0),
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("seeds", ()),
        ],
    )
    def test_budget_without_a_measured_window_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(TINY, **{field: value})


class TestSimulateMetrics:
    def test_returns_requested_metrics(self):
        from repro.core.params import Parameters

        params = Parameters(
            n_peers=TINY.n_peers,
            arrival_rate=4.0,
            gossip_rate=4.0,
            deletion_rate=1.0,
            normalized_capacity=2.0,
            segment_size=2,
            n_servers=TINY.n_servers,
        )
        names = ("normalized_throughput", "mean_buffer_occupancy")
        cells = {
            f"point:seed={seed}": simulate_cell(
                params, TINY.warmup, TINY.duration, names, seed
            )
            for seed in TINY.seeds
        }
        assert all(set(cell) == set(names) for cell in cells.values())
        throughput = SeedMeans(cells, TINY.seeds)(
            "point", "normalized_throughput"
        )
        assert 0 < throughput <= 1


class TestRunners:
    def test_fig3_shape(self):
        result = plan_fig3(
            segment_sizes=(1, 4), capacities=(2.0,), budget=TINY
        ).run_serial()
        assert result.x_values == [1.0, 4.0]
        assert set(result.series) == {
            "analytic c=2",
            "sim c=2",
            "capacity c=2",
        }
        # monotone rise toward capacity for the analytic curve
        analytic = result.series["analytic c=2"]
        assert analytic[1] > analytic[0]
        assert all(v <= 2.0 / 20.0 + 1e-9 for v in result.series["capacity c=2"])

    def test_fig4_shape(self):
        result = plan_fig4(
            mu_values=(4.0,), scenarios=((2.0, 1), (2.0, 4)), budget=TINY
        ).run_serial()
        assert set(result.series) == {
            "c=2 s=1 static",
            "c=2 s=1 churn",
            "c=2 s=4 static",
            "c=2 s=4 churn",
        }

    def test_fig5_flags_negative_analytic_corner(self):
        result = plan_fig5(
            segment_sizes=(1, 4), capacities=(8.0,), budget=TINY
        ).run_serial()
        assert any("negative" in note for note in result.notes)

    def test_fig6_saved_decreases(self):
        result = plan_fig6(
            segment_sizes=(1, 8), capacities=(8.0,), budget=TINY
        ).run_serial()
        analytic = result.series["analytic c=8"]
        assert analytic[0] > analytic[1]

    def test_theorem1_reports_constant_rho(self):
        result = plan_theorem1(segment_sizes=(1, 4), budget=TINY).run_serial()
        closed = result.series["closed-form rho"]
        assert closed[0] == closed[1]
        assert result.series["sim rho"][0] == pytest.approx(closed[0], rel=0.2)

    def test_transient_runs_and_aligns_series(self):
        from repro.experiments.transient import plan_transient

        result = plan_transient(budget=TINY, n_samples=4).run_serial()
        assert len(result.x_values) == 4
        for label in (
            "demand",
            "fluid occupancy",
            "sim occupancy",
            "fluid intake",
            "sim intake",
        ):
            assert len(result.series[label]) == 4

    def test_scheduler_ablation_runs(self):
        from repro.experiments.ablations import plan_scheduler_ablation

        result = plan_scheduler_ablation(
            budget=TINY, policies=("random", "greedy-completion")
        ).run_serial()
        assert len(result.series["goodput"]) == 2

    def test_baseline_comparison_runs(self):
        scenario = FlashCrowdScenario(phase_ends=(4.0, 6.0, 10.0))
        result = plan_baseline_comparison(
            budget=TINY, scenario=scenario
        ).run_serial()
        assert len(result.x_values) == 3
        assert set(result.series) == {
            "push intake",
            "pull intake",
            "indirect intake",
        }
        assert any("dropped" in note for note in result.notes)

    def test_robustness_runs(self):
        from repro.experiments.robustness import CHANNELS, plan_robustness

        result = plan_robustness(
            budget=TINY, severities=(0.0, 0.3)
        ).run_serial()
        assert result.x_values == [0.0, 0.3]
        for channel in CHANNELS:
            delivery = result.series[f"delivery ratio: {channel}"]
            assert len(delivery) == 2
            assert delivery[0] == 1.0  # severity 0 is the shared baseline
        assert any("0 corrupted decodes" in note for note in result.notes)


class TestCli:
    def test_unknown_experiment_rejected(self):
        from repro.cli import main

        for argv in (["fig99"], ["run", "fig99"]):
            with pytest.raises(SystemExit) as usage:
                main(argv)
            assert usage.value.code == 2

    def test_both_commands_accept_exactly_the_registry(self):
        """One registry: `repro <name>` and `repro run <name>` read it."""
        from repro.cli import build_parser, build_run_parser

        def experiments(parser):
            (action,) = [
                a for a in parser._actions if a.dest == "experiment"
            ]
            return list(action.choices)

        assert experiments(build_parser()) == sorted(PLAN_BUILDERS) + ["all"]
        assert experiments(build_run_parser()) == sorted(PLAN_BUILDERS)

    def test_parser_choices(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["fig3", "--quality", "fast"])
        assert args.experiment == "fig3"
        with pytest.raises(SystemExit):
            parser.parse_args(["not-an-experiment"])

    def test_main_runs_real_experiment_with_tiny_budget(
        self, tmp_path, monkeypatch, capsys
    ):
        """End-to-end through the real theorem1 runner, shrunk via BUDGETS."""
        import repro.experiments.base as base

        monkeypatch.setitem(base.BUDGETS, "fast", TINY)
        from repro.cli import main

        target = tmp_path / "t1.json"
        assert main(["theorem1", "--quality", "fast", "--json", str(target)]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        payload = json.loads(target.read_text())
        assert payload["name"] == "theorem1"
        assert "closed-form rho" in payload["series"]

    def test_main_writes_json(self, tmp_path, monkeypatch, capsys):
        """End-to-end CLI: patch in a tiny plan to keep the test quick."""
        import repro.cli as cli

        def fake_merge(payloads):
            result = SeriesResult(
                name="fig3", title="t", x_name="x", x_values=[1.0]
            )
            result.add_series("y", [2.0])
            return result

        monkeypatch.setitem(
            PLAN_BUILDERS,
            "fig3",
            lambda quality, budget: ExperimentPlan("fig3", [], fake_merge),
        )
        target = tmp_path / "out.json"
        code = cli.main(["fig3", "--json", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["name"] == "fig3"
        assert "2.0000" in capsys.readouterr().out
