"""Seeded violations proving the scoped rules actually fire.

Same philosophy as ``repro.chaos.mutants``: a checker that has never
caught anything is indistinguishable from one that cannot.  Each
:class:`LintMutant` patches a copy of the shipped package with one
realistic determinism defect, then asserts the matching rule reports it
in the right file:

- ``rng-smuggled-through-helper`` (R1): a helper parked in ``sim/rng.py``,
  next to the registry, returns a fresh ``random.Random()`` for callers to
  hand on as an ``rng`` parameter.  While R1 exempted the whole file this
  needed an interprocedural provenance pass (the retired R6) to follow
  the value to its use; R1's exemption is the body of
  ``class SeedSequenceRegistry`` now, so the construction is flagged at
  its origin.
- ``fork-shared-result-cache`` (R8): the worker pool grows a
  module-level dict cache, the classic fork-boundary state leak.

``python -m repro.lint --self-test`` copies the package to a temp dir,
applies each mutant, lints, and checks the expected (rule, path) pair
appears; exit 0 only when both are caught.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.lint.runner import LintReport, run_lint


@dataclass(frozen=True)
class LintMutant:
    """One seeded violation: patches + the finding that must appear."""

    name: str
    rule: str
    description: str
    #: path (relative to the package root) the finding must land in.
    expect_path: str
    #: (relative path, exact-once old text, new text) patches.
    patches: Tuple[Tuple[str, str, str], ...]


MUTANTS: Tuple[LintMutant, ...] = (
    LintMutant(
        name="rng-smuggled-through-helper",
        rule="R1",
        description=(
            "an ambient random.Random() handed out by an innocuous-looking "
            "helper beside the registry, outside SeedSequenceRegistry"
        ),
        expect_path="sim/rng.py",
        patches=(
            (
                "sim/rng.py",
                "def exponential(rng: random.Random, rate: float) -> float:",
                "def ambient_entropy() -> random.Random:\n"
                '    """A fresh, unseeded stream (the defect under test)."""\n'
                "    return random.Random()\n"
                "\n"
                "\n"
                "def exponential(rng: random.Random, rate: float) -> float:",
            ),
        ),
    ),
    LintMutant(
        name="fork-shared-result-cache",
        rule="R8",
        description=(
            "worker pool memoizes results in a module-level dict that "
            "silently forks into every worker"
        ),
        expect_path="runner/pool.py",
        patches=(
            (
                "runner/pool.py",
                "_JOIN_GRACE = 2.0",
                "_JOIN_GRACE = 2.0\n\n"
                "# memoized task results (the defect under test)\n"
                "_RESULT_CACHE: Dict[str, Any] = {}",
            ),
        ),
    ),
)


def apply_mutant(package_dir: Path, mutant: LintMutant) -> None:
    """Patch *package_dir* in place; each old text must occur exactly once."""
    for relpath, old, new in mutant.patches:
        target = package_dir / relpath
        text = target.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            raise RuntimeError(
                f"mutant {mutant.name}: anchor occurs {count} times in "
                f"{relpath} (need exactly 1) — shipped code drifted"
            )
        target.write_text(text.replace(old, new), encoding="utf-8")


def _finding_matches(report: LintReport, mutant: LintMutant) -> bool:
    for finding in report.findings:
        if finding.rule == mutant.rule and finding.path.endswith(
            mutant.expect_path
        ):
            return True
    return False


def run_self_test(
    package_dir: Optional[Path] = None,
    names: Optional[Sequence[str]] = None,
    verbose: bool = True,
) -> int:
    """Apply each mutant to a package copy and assert detection.

    Returns 0 when every selected mutant is caught by its intended rule
    in its expected file, 1 otherwise.
    """
    if package_dir is None:
        package_dir = Path(__file__).resolve().parent.parent
    selected = [
        mutant
        for mutant in MUTANTS
        if names is None or mutant.name in names
    ]
    if names is not None:
        unknown = set(names) - {mutant.name for mutant in selected}
        if unknown:
            print(
                f"repro lint --self-test: unknown mutant(s): "
                f"{', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2
    failures: List[str] = []
    for mutant in selected:
        workdir = Path(tempfile.mkdtemp(prefix="repro-lint-selftest-"))
        try:
            copy = workdir / "repro"
            shutil.copytree(
                package_dir,
                copy,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            apply_mutant(copy, mutant)
            report = run_lint([copy], root=workdir)
            caught = _finding_matches(report, mutant)
            clean_of_noise = not report.problems
            if caught and clean_of_noise:
                if verbose:
                    print(
                        f"self-test PASS {mutant.name}: {mutant.rule} "
                        f"fired in {mutant.expect_path}"
                    )
            else:
                failures.append(mutant.name)
                if verbose:
                    reason = (
                        "waiver/parse problems during scan"
                        if caught
                        else f"{mutant.rule} did not fire in "
                        f"{mutant.expect_path}"
                    )
                    print(f"self-test FAIL {mutant.name}: {reason}")
                    for finding in report.findings + report.problems:
                        print(f"  {finding.render()}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if verbose:
        print(
            f"self-test: {len(selected) - len(failures)}/{len(selected)} "
            "seeded violations detected"
        )
    return 1 if failures else 0
