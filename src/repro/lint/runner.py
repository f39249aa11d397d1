"""Lint orchestration: file discovery, waiver application, reporting.

``run_lint`` walks the given paths, parses every ``*.py`` file once,
runs each rule over the modules it applies to, and splits the raw findings into *active* (fail the build), *waived*
(suppressed by a justified inline waiver) and *problems* (broken waivers,
unparseable files).  The result renders as terminal text or as a
machine-readable JSON report for CI artifacts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.boundary import WorkerBoundaryRule
from repro.lint.framework import (
    RULE_BAD_WAIVER,
    RULE_PARSE_ERROR,
    SEVERITY_ERROR,
    Finding,
    Rule,
    SourceModule,
)
from repro.lint.rules_determinism import DeterminismHazardRule
from repro.lint.rules_numeric import FloatAccumulationRule, Gf256MisuseRule
from repro.lint.rules_rng import RngDisciplineRule

#: Directory names never descended into.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache", "build", "dist"})


def default_rules() -> List[Rule]:
    """Fresh instances of the per-module rule set (R1, R2, R4, R5, R8)."""
    return [
        RngDisciplineRule(),
        DeterminismHazardRule(),
        FloatAccumulationRule(),
        Gf256MisuseRule(),
        WorkerBoundaryRule(),
    ]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    files_scanned: int = 0
    rules: List[Rule] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    problems: List[Finding] = field(default_factory=list)

    @property
    def failures(self) -> List[Finding]:
        """Findings that fail the build (active findings + waiver problems)."""
        return self.findings + self.problems

    def exit_code(self, strict: bool = False) -> int:
        """0 when clean; in strict mode warnings fail too."""
        relevant = self.failures
        if not strict:
            relevant = [f for f in relevant if f.severity == SEVERITY_ERROR]
        return 1 if relevant else 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready report (the CI artifact format)."""
        return {
            "version": 3,
            "files_scanned": self.files_scanned,
            "rules": [
                {
                    "id": rule.id,
                    "name": rule.name,
                    "severity": rule.severity,
                    "hint": rule.hint,
                }
                for rule in self.rules
            ],
            "findings": [f.as_dict() for f in self.findings],
            "problems": [f.as_dict() for f in self.problems],
            "waived": [f.as_dict() for f in self.waived],
            "summary": {
                "active": len(self.findings),
                "problems": len(self.problems),
                "waived": len(self.waived),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        """Human-readable multi-line report."""
        lines: List[str] = []
        for finding in sorted(
            self.failures, key=lambda f: (f.path, f.line, f.col, f.rule)
        ):
            lines.append(finding.render())
        summary = (
            f"{self.files_scanned} files scanned: "
            f"{len(self.findings)} finding(s), "
            f"{len(self.problems)} waiver problem(s), "
            f"{len(self.waived)} waived"
        )
        lines.append(summary)
        return "\n".join(lines)


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not SKIP_DIRS.intersection(candidate.parts):
                    yield candidate
        elif path.suffix == ".py":
            yield path


def _relpath(path: Path, root: Optional[Path]) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return os.path.relpath(path, base).replace(os.sep, "/")
    except ValueError:  # different drive on Windows
        return str(path).replace(os.sep, "/")


def _load_modules(
    paths: Sequence[Path], root: Optional[Path]
) -> Tuple[List[SourceModule], List[Finding]]:
    modules: List[SourceModule] = []
    problems: List[Finding] = []
    for file_path in _iter_python_files(paths):
        relpath = _relpath(file_path, root)
        try:
            source = file_path.read_text(encoding="utf-8")
            modules.append(SourceModule.parse(file_path, relpath, source))
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            problems.append(
                Finding(
                    rule=RULE_PARSE_ERROR,
                    severity=SEVERITY_ERROR,
                    path=relpath,
                    line=int(line),
                    col=0,
                    message=f"cannot lint file: {error}",
                )
            )
    return modules, problems


def _waiver_problems(module: SourceModule, known_rules: Sequence[str]) -> List[Finding]:
    problems: List[Finding] = []
    seen: Set[Tuple[str, int]] = set()
    for waivers in module.waivers.values():
        for waiver in waivers:
            key = (waiver.rule, waiver.line)
            if key in seen:
                continue
            seen.add(key)
            if waiver.rule not in known_rules:
                problems.append(
                    Finding(
                        rule=RULE_BAD_WAIVER,
                        severity=SEVERITY_ERROR,
                        path=module.relpath,
                        line=waiver.line,
                        col=0,
                        message=f"waiver names unknown rule {waiver.rule!r}",
                        hint="valid rules: " + ", ".join(known_rules),
                    )
                )
            elif not waiver.justification:
                problems.append(
                    Finding(
                        rule=RULE_BAD_WAIVER,
                        severity=SEVERITY_ERROR,
                        path=module.relpath,
                        line=waiver.line,
                        col=0,
                        message=(
                            f"waiver for {waiver.rule} has no justification"
                        ),
                        hint="write lint: ok(<rule>): <why this is safe>",
                    )
                )
    return problems


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[List[Rule]] = None,
) -> LintReport:
    """Lint every Python file under *paths* and return the full report.

    Args:
        paths: Files or directories to scan.
        root: Base for the relative paths in findings (default: cwd).
        rules: Per-module rule instances to run (default: R1, R2, R4, R5,
            R8).
    """
    modules, problems = _load_modules(paths, root)
    active_rules = rules if rules is not None else default_rules()
    report = LintReport(files_scanned=len(modules), rules=list(active_rules))
    report.problems.extend(problems)
    known_rules = [rule.id for rule in report.rules]

    for module in modules:
        report.problems.extend(_waiver_problems(module, known_rules))
        for rule in active_rules:
            if not rule.applies_to(module.relpath):
                continue
            for finding in rule.check(module):
                waiver = module.waiver_for(finding.rule, finding.line)
                if waiver is None:
                    report.findings.append(finding)
                else:
                    report.waived.append(
                        replace(
                            finding,
                            waived=True,
                            justification=waiver.justification,
                        )
                    )
    return report
