"""Goldens and integration tests for the whole-tree and scoped lint passes.

Covers the R7 neutrality prover (violations *and* the certificate list),
the R8 worker-boundary pass, the SARIF emitter, and the seeded-violation
positive controls.  Fixture goldens pin exact (rule, path, line)
triples, same discipline as ``test_lint.py``.
"""

import json
from pathlib import Path

from repro.lint import run_lint
from repro.lint.__main__ import main as lint_main
from repro.lint.mutants import MUTANTS, run_self_test
from repro.lint.sarif import report_to_sarif

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_SRC = Path(__file__).parent.parent / "src" / "repro"


def lint_case(name):
    root = FIXTURES / name
    return run_lint([root], root=root)


def triples(findings, rule=None):
    return sorted(
        (f.rule, f.path, f.line)
        for f in findings
        if rule is None or f.rule == rule
    )


class TestR7Neutrality:
    def test_guard_dropped_and_unguarded_probe(self):
        report = lint_case("case_r7")
        assert triples(report.findings) == [
            ("R7", "faults/injector.py", 11),  # rng draw, no short-circuit
            ("R7", "sim/engine.py", 10),  # probe() without None guard
        ]
        messages = {f.path: f.message for f in report.findings}
        assert "RNG draw" in messages["faults/injector.py"]
        assert "hook invocation" in messages["sim/engine.py"]

    def test_unsafe_surfaces_earn_no_certificates(self):
        report = lint_case("case_r7")
        assert report.certified == []

    def test_shipped_tree_is_fully_certified(self):
        """Acceptance: R7 proves the real hook surfaces null-plan neutral."""
        report = run_lint([REPO_SRC], root=REPO_SRC.parent)
        assert triples(report.findings, rule="R7") == []
        surfaces = {c.split(".")[0] for c in report.certified}
        assert surfaces == {
            "FaultVerdicts",
            "FaultInjector",
            "AdversaryRoles",
            "AdversaryInjector",
            "FastFaultMasks",
            "FastAdversaryMasks",
            "Simulator",
        }
        assert "Simulator.run_until: neutral under null plan" in (
            report.certified
        )
        # the queries the live runtime calls directly are proven too
        for query in ("drop_gossip", "drop_pull", "maybe_pollute"):
            assert f"FaultVerdicts.{query}: neutral under null plan" in (
                report.certified
            )
        assert any(
            c.startswith("FastFaultMasks.gossip_loss_mask")
            for c in report.certified
        )
        assert any(
            c.startswith("AdversaryRoles._sample_roles")
            for c in report.certified
        )


class TestR8WorkerBoundary:
    def test_fork_boundary_captures(self):
        report = lint_case("case_r8")
        assert triples(report.findings) == [
            ("R8", "runner/pool.py", 4),  # module-level mutable dict
            ("R8", "runner/pool.py", 11),  # global rebinding
            ("R8", "runner/pool.py", 19),  # nested def as process target
            ("R8", "runner/pool.py", 20),  # lambda as process target
        ]
        # immutable module constants pass (the tuple and the int)
        assert all(f.line not in (5, 7) for f in report.findings)

    def test_waived_readonly_registry(self):
        report = lint_case("case_r8")
        assert triples(report.waived) == [("R8", "chaos/registry.py", 4)]
        assert report.waived[0].justification == (
            "frozen at import, never mutated"
        )
        assert report.problems == []


class TestSarif:
    def test_log_shape_and_suppressions(self):
        report = lint_case("case_r8")
        log = report_to_sarif(report)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert len(rule_ids) == len(set(rule_ids))
        assert {"R1", "R7", "R8"} <= set(rule_ids)
        assert "R6" not in rule_ids  # retired, never reused
        results = run["results"]
        suppressed = [r for r in results if "suppressions" in r]
        assert len(results) == 5 and len(suppressed) == 1
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"
        assert suppressed[0]["suppressions"][0]["justification"] == (
            "frozen at import, never mutated"
        )
        for result in results:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1
            assert region["startColumn"] >= 1

    def test_certificates_ride_in_properties(self):
        report = run_lint([REPO_SRC], root=REPO_SRC.parent)
        log = report_to_sarif(report)
        certified = log["runs"][0]["properties"]["certified"]
        assert certified == report.certified
        assert len(certified) >= 3

    def test_cli_writes_valid_json(self, tmp_path):
        out = tmp_path / "lint.sarif"
        code = lint_main(
            ["--quiet", "--sarif", str(out), str(FIXTURES / "case_clean")]
        )
        assert code == 0
        log = json.loads(out.read_text(encoding="utf-8"))
        assert log["runs"][0]["results"] == []


class TestPositiveControls:
    def test_mutant_catalog_shape(self):
        assert {m.rule for m in MUTANTS} == {"R1", "R7", "R8"}
        names = [m.name for m in MUTANTS]
        assert len(names) == len(set(names))

    def test_all_seeded_violations_detected(self):
        """Acceptance: each mutant is caught by its rule in its file."""
        assert run_self_test(verbose=False) == 0

    def test_unknown_mutant_name_rejected(self):
        assert run_self_test(names=["no-such-mutant"], verbose=False) == 2
