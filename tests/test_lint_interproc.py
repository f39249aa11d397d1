"""Goldens and integration tests for the scoped lint passes.

Covers the R8 worker-boundary pass and the seeded-violation positive
controls.  Fixture goldens pin exact (rule, path, line) triples, same
discipline as ``test_lint.py``.
"""

from pathlib import Path

from repro.lint import run_lint
from repro.lint.mutants import MUTANTS, run_self_test

FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint_case(name):
    root = FIXTURES / name
    return run_lint([root], root=root)


def triples(findings, rule=None):
    return sorted(
        (f.rule, f.path, f.line)
        for f in findings
        if rule is None or f.rule == rule
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


class TestPositiveControls:
    def test_mutant_catalog_shape(self):
        assert {m.rule for m in MUTANTS} == {"R1", "R8"}
        names = [m.name for m in MUTANTS]
        assert len(names) == len(set(names))

    def test_all_seeded_violations_detected(self):
        """Acceptance: each mutant is caught by its rule in its file."""
        assert run_self_test(verbose=False) == 0

    def test_unknown_mutant_name_rejected(self):
        assert run_self_test(names=["no-such-mutant"], verbose=False) == 2
