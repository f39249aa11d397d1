"""Goldens and integration tests for the scoped lint passes.

Covers the R8 worker-boundary pass and its positive controls: the lint
entries of the seeded-defect catalogue in ``tests/mutants.py``.  Fixture goldens pin exact (rule, path, line) triples, same
discipline as ``test_lint.py``.
"""

from pathlib import Path

from repro.lint import run_lint
from tests.mutants import CATALOGUE, Lint, main as run_catalogue

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


LINT_MUTANTS = [
    mutant.name
    for mutant in CATALOGUE
    if any(isinstance(check, Lint) for check in mutant.killers)
]


class TestPositiveControls:
    def test_mutant_catalog_shape(self):
        killers = {
            (mutant.name, check)
            for mutant in CATALOGUE
            for check in mutant.killers
            if isinstance(check, Lint)
        }
        assert killers == {
            ("rng-smuggled-through-helper", Lint("R1", "sim/rng.py")),
            ("fork-shared-result-cache", Lint("R8", "runner/pool.py")),
        }

    def test_all_seeded_violations_detected(self, capsys):
        """Acceptance: each mutant is caught by its rule in its file, with
        no waiver or parse problems in the scan."""
        assert run_catalogue(LINT_MUTANTS) == 0, capsys.readouterr().out

    def test_unknown_mutant_name_rejected(self, capsys):
        assert run_catalogue(["no-such-mutant"]) == 2
        assert "unknown mutant" in capsys.readouterr().err
