"""Golden-file tests for the repro-lint static-analysis pass.

Each ``tests/lint_fixtures/case_*`` directory is a miniature source tree
laid out so the path-scoped rules trigger (``sim/``, ``core/``,
``analysis/``, ``coding/``).  The tests pin *exact* rule ids, file paths,
and line numbers, so any behavioural drift in a rule shows up as a golden
mismatch rather than a silent coverage loss.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.__main__ import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = Path(__file__).parent.parent / "src" / "repro"


def lint_case(name):
    root = FIXTURES / name
    return run_lint([root], root=root)


def triples(findings):
    return sorted((f.rule, f.path, f.line) for f in findings)


class TestGoldenFindings:
    def test_r1_rng_discipline(self):
        report = lint_case("case_r1")
        assert triples(report.findings) == [
            ("R1", "experiments/bad_rng.py", 9),
            ("R1", "experiments/bad_rng.py", 11),
        ]
        assert report.problems == []
        # the registry class in the designated RNG module is exempt
        assert all(f.path != "sim/rng.py" for f in report.findings)

    def test_r1_exempts_the_registry_class_not_its_file(self):
        """An unseeded helper parked beside the registry is flagged at its
        origin, so nothing downstream of it needs following."""
        report = lint_case("case_r1_scope")
        assert triples(report.findings) == [
            ("R1", "sim/rng.py", 14),  # ambient(): outside the class
        ]
        # random.Random(hash(name)) on line 7 is the registry's own body
        assert report.problems == []

    def test_r2_determinism_hazards(self):
        report = lint_case("case_r2")
        assert triples(report.findings) == [
            ("R2", "sim/hotpath.py", 9),  # set iteration
            ("R2", "sim/hotpath.py", 11),  # dict .items() view
            ("R2", "sim/hotpath.py", 13),  # wall-clock read
            ("R2", "sim/hotpath.py", 14),  # id() sort key
        ]

    def test_r4_float_accumulation(self):
        report = lint_case("case_r4")
        assert triples(report.findings) == [("R4", "analysis/agg.py", 5)]
        assert triples(report.waived) == [("R4", "analysis/agg.py", 6)]
        assert report.waived[0].justification == "integer range, exact"

    def test_r5_gf256_misuse(self):
        report = lint_case("case_r5")
        assert triples(report.findings) == [
            ("R5", "coding/badmath.py", 5),
            ("R5", "coding/badmath.py", 6),
            ("R5", "coding/badmath.py", 7),
            ("R5", "coding/badmath.py", 8),
        ]

    def test_out_of_scope_hazards_ignored(self):
        report = lint_case("case_clean")
        assert report.findings == []
        assert report.problems == []
        assert report.waived == []
        assert report.exit_code(strict=True) == 0


class TestWaivers:
    def test_waiver_behaviour(self):
        report = lint_case("case_waivers")
        # justified waiver suppresses the finding
        assert triples(report.waived) == [("R2", "sim/waivers.py", 6)]
        # unjustified and unknown-rule waivers (here the retired R7) do
        # NOT suppress
        assert triples(report.findings) == [
            ("R2", "sim/waivers.py", 8),
            ("R2", "sim/waivers.py", 10),
        ]
        # ...and each broken waiver is a W0 problem of its own
        assert triples(report.problems) == [
            ("W0", "sim/waivers.py", 8),
            ("W0", "sim/waivers.py", 10),
        ]
        by_line = {p.line: p.message for p in report.problems}
        assert "no justification" in by_line[8]
        assert "unknown rule 'R7'" in by_line[10]
        assert report.exit_code(strict=True) == 1

    def test_a_waiver_naming_retired_r3_is_unknown(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "x = 1  # lint: ok(R3): the rule is gone\n", encoding="utf-8"
        )
        report = run_lint([tmp_path], root=tmp_path)
        assert [(p.rule, p.line) for p in report.problems] == [("W0", 1)]
        assert "unknown rule 'R3'" in report.problems[0].message

    def test_parse_error_is_reported(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        report = run_lint([tmp_path], root=tmp_path)
        assert [p.rule for p in report.problems] == ["E0"]
        assert report.exit_code(strict=False) == 1


class TestRealTree:
    def test_repro_source_is_strict_clean(self):
        report = run_lint([REPO_SRC], root=REPO_SRC.parent)
        assert report.findings == []
        assert report.problems == []
        assert report.exit_code(strict=True) == 0

    @pytest.mark.parametrize(
        "snippet",
        [
            "import numpy as np\n\n\ndef payloads():\n"
            "    rng = np.random.default_rng(1234)\n"
            "    return rng.integers(0, 256, size=8)\n",
            "import random\n\n\ndef wire():\n"
            "    rng = random.Random(1234)\n"
            "    return rng.random()\n",
        ],
        ids=["numpy-default-rng", "stdlib-random"],
    )
    def test_reintroduced_r1_violation_fails_strict(self, tmp_path, snippet):
        """Re-adding either historical R1 violation must fail the gate."""
        experiments = tmp_path / "experiments"
        experiments.mkdir()
        offender = experiments / "regression.py"
        offender.write_text(snippet, encoding="utf-8")
        report = run_lint([tmp_path], root=tmp_path)
        assert triples(report.findings) == [
            ("R1", "experiments/regression.py", 5),
        ]
        assert report.exit_code(strict=True) == 1
        assert lint_main(["--strict", "--quiet", str(tmp_path)]) == 1


class TestCommandLine:
    def test_module_entrypoint_clean_tree(self):
        assert lint_main(["--quiet", str(FIXTURES / "case_clean")]) == 0

    def test_cli_subcommand_dispatch(self):
        from repro import cli

        assert cli.main(["lint", "--quiet", str(FIXTURES / "case_clean")]) == 0
        assert (
            cli.main(["lint", "--strict", "--quiet", str(FIXTURES / "case_r5")])
            == 1
        )

    def test_json_report(self, tmp_path):
        out = tmp_path / "lint.json"
        code = lint_main(
            ["--quiet", "--json", str(out), str(FIXTURES / "case_r4")]
        )
        assert code == 1  # one active error-severity finding
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == 3
        assert "certified" not in payload
        assert payload["summary"]["active"] == 1
        assert payload["summary"]["waived"] == 1
        assert {r["id"] for r in payload["rules"]} == {
            "R1",
            "R2",
            "R4",
            "R5",
            "R8",
        }
        (finding,) = payload["findings"]
        assert finding["rule"] == "R4"
        assert finding["line"] == 5

    def test_missing_path_exits_2(self, tmp_path):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_scanning_no_python_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("not python\n")
        assert lint_main(["--strict", str(tmp_path)]) == 2
        assert lint_main(["--strict", str(tmp_path / "README.md")]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_python_dash_m_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--quiet", str(REPO_SRC)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
