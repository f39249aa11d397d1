"""Regression comparison of experiment results across runs.

Reproduction results should not drift silently as the library evolves.
This module diffs two :class:`~repro.experiments.base.SeriesResult`
objects (typically: a JSON archive produced by ``repro <exp> --json``
against a fresh run) point by point with per-series tolerances, producing
a structured report CI can assert on::

    baseline = SeriesResult.from_json(path.read_text())
    fresh = plan_fig3(quality="fast").run_serial()
    diff = compare_results(baseline, fresh, rel_tolerance=0.1)
    assert diff.matches, diff.summary()

Analytic series are deterministic and compared tightly; simulation series
carry seed noise, so tolerances are caller-chosen per comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.base import SeriesResult
from repro.util.validation import require_nonnegative


@dataclass(frozen=True)
class PointDiff:
    """One diverging data point."""

    series: str
    x: float
    baseline: Optional[float]
    current: Optional[float]

    def __str__(self) -> str:
        return (
            f"{self.series} @ x={self.x:g}: baseline "
            f"{self._fmt(self.baseline)} vs current {self._fmt(self.current)}"
        )

    @staticmethod
    def _fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:.5f}"


@dataclass
class ComparisonReport:
    """Outcome of comparing two results of the same experiment."""

    name: str
    structural_errors: List[str] = field(default_factory=list)
    diverging_points: List[PointDiff] = field(default_factory=list)
    points_compared: int = 0

    @property
    def matches(self) -> bool:
        """True when structures agree and every point is within tolerance."""
        return not self.structural_errors and not self.diverging_points

    def summary(self) -> str:
        """Human-readable digest of the comparison."""
        if self.matches:
            return (
                f"{self.name}: {self.points_compared} points match"
            )
        lines = [f"{self.name}: MISMATCH"]
        lines.extend(f"  structure: {error}" for error in self.structural_errors)
        lines.extend(f"  {diff}" for diff in self.diverging_points[:20])
        hidden = len(self.diverging_points) - 20
        if hidden > 0:
            lines.append(f"  ... and {hidden} more diverging points")
        return "\n".join(lines)


def compare_results(
    baseline: SeriesResult,
    current: SeriesResult,
    rel_tolerance: float = 0.05,
    abs_floor: float = 1e-3,
    series_tolerances: Optional[Dict[str, float]] = None,
) -> ComparisonReport:
    """Diff *current* against *baseline* point by point.

    A point diverges when ``|cur - base| > max(rel * |base|, abs_floor)``
    with ``rel`` taken from *series_tolerances* (by series label) or
    *rel_tolerance*.  ``None``/NaN points match only ``None``/NaN points.
    Structural differences (experiment name, x-axis, series sets) are
    reported separately and make the comparison fail outright.
    """
    require_nonnegative("rel_tolerance", rel_tolerance)
    require_nonnegative("abs_floor", abs_floor)
    report = ComparisonReport(name=baseline.name)

    if baseline.name != current.name:
        report.structural_errors.append(
            f"experiment name changed: {baseline.name!r} -> {current.name!r}"
        )
    if baseline.x_values != current.x_values:
        report.structural_errors.append(
            f"x-axis changed: {baseline.x_values} -> {current.x_values}"
        )
    missing = set(baseline.series) - set(current.series)
    added = set(current.series) - set(baseline.series)
    if missing:
        report.structural_errors.append(f"series removed: {sorted(missing)}")
    if added:
        report.structural_errors.append(f"series added: {sorted(added)}")
    if report.structural_errors:
        return report

    tolerances = series_tolerances or {}
    for label, baseline_values in baseline.series.items():
        rel = tolerances.get(label, rel_tolerance)
        current_values = current.series[label]
        for x, base, cur in zip(
            baseline.x_values, baseline_values, current_values
        ):
            report.points_compared += 1
            base_missing = base is None or (
                isinstance(base, float) and math.isnan(base)
            )
            cur_missing = cur is None or (
                isinstance(cur, float) and math.isnan(cur)
            )
            if base_missing or cur_missing:
                if base_missing != cur_missing:
                    report.diverging_points.append(
                        PointDiff(label, x, None if base_missing else base,
                                  None if cur_missing else cur)
                    )
                continue
            allowed = max(rel * abs(base), abs_floor)
            if abs(cur - base) > allowed:
                report.diverging_points.append(PointDiff(label, x, base, cur))
    return report


def compare_archives(
    baselines: Dict[str, SeriesResult],
    currents: Dict[str, SeriesResult],
    rel_tolerance: float = 0.05,
) -> Dict[str, ComparisonReport]:
    """Compare whole result archives keyed by experiment name.

    Experiments present on only one side produce a structural-error report.
    """
    reports: Dict[str, ComparisonReport] = {}
    for name in sorted(set(baselines) | set(currents)):
        if name not in currents:
            report = ComparisonReport(name=name)
            report.structural_errors.append("experiment missing from current run")
            reports[name] = report
        elif name not in baselines:
            report = ComparisonReport(name=name)
            report.structural_errors.append("experiment missing from baseline")
            reports[name] = report
        else:
            reports[name] = compare_results(
                baselines[name], currents[name], rel_tolerance=rel_tolerance
            )
    return reports
