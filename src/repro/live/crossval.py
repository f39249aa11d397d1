"""Sim-vs-live cross-validation: compare two MetricsReport-shaped dicts.

The live runtime's whole claim is that it executes *the same protocol* the
event engine simulates; this module turns that claim into a checkable
artifact.  :func:`compare_reports` takes one simulator report and one live
report for identical :class:`Parameters` and computes, per validated
metric, the relative deviation against a stated tolerance.  The E-LIVE
experiment emits the resulting :class:`CrossValReport` to
``results/live.json`` and CI asserts ``agrees``.

Tolerances are loose by design: a live swarm and a simulation with the
same seed are *statistically* identical, not trajectory-identical (socket
scheduling reorders events), so the bands must cover two independent
finite-window estimates of the same steady state.  Delay quantiles get a
wider band than rate metrics because their estimator variance is larger at
equal window length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Relative tolerance per cross-validated metric (fraction of the
#: simulator's value; see module docstring for why the bands differ).
DEFAULT_TOLERANCES: Dict[str, float] = {
    "normalized_throughput": 0.15,
    "efficiency": 0.15,
    "mean_buffer_occupancy": 0.25,
    "mean_block_delay": 0.40,
    "p95_block_delay": 0.50,
}

#: Deviations are measured against at least this denominator, so metrics
#: near zero (e.g. an efficiency-starved operating point) do not explode
#: the relative error.
ABSOLUTE_FLOOR = 1e-3


@dataclass(frozen=True)
class MetricComparison:
    """One metric's sim-vs-live deviation verdict."""

    metric: str
    sim_value: Optional[float]
    live_value: Optional[float]
    deviation: Optional[float]
    tolerance: float
    within: bool

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready flat dict."""
        return {
            "metric": self.metric,
            "sim": self.sim_value,
            "live": self.live_value,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "within": self.within,
        }


@dataclass(frozen=True)
class CrossValReport:
    """All metric comparisons of one operating point."""

    comparisons: Tuple[MetricComparison, ...] = field(default=())

    @property
    def agrees(self) -> bool:
        """True when every compared metric is inside its tolerance band."""
        return all(c.within for c in self.comparisons)

    @property
    def worst(self) -> Optional[MetricComparison]:
        """The comparison with the largest relative deviation."""
        candidates = [c for c in self.comparisons if c.deviation is not None]
        if not candidates:
            return None
        return max(candidates, key=lambda c: c.deviation / c.tolerance)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-ready nested dict."""
        return {
            "agrees": self.agrees,
            "comparisons": [c.to_payload() for c in self.comparisons],
        }


def relative_deviation(sim: float, live: float) -> float:
    """|live - sim| over max(|sim|, floor)."""
    return abs(live - sim) / max(abs(sim), ABSOLUTE_FLOOR)


def compare_metric(
    metric: str,
    sim_value: Optional[float],
    live_value: Optional[float],
    tolerance: float,
) -> MetricComparison:
    """Compare one metric pair; ``None`` on both sides agrees trivially."""
    if sim_value is None and live_value is None:
        return MetricComparison(metric, None, None, None, tolerance, True)
    if sim_value is None or live_value is None:
        # One side produced the statistic and the other did not: that is a
        # disagreement (e.g. sim completed segments but live never did).
        return MetricComparison(
            metric, sim_value, live_value, None, tolerance, False
        )
    deviation = relative_deviation(float(sim_value), float(live_value))
    return MetricComparison(
        metric,
        float(sim_value),
        float(live_value),
        deviation,
        tolerance,
        deviation <= tolerance,
    )


def compare_reports(
    sim_report: Mapping[str, Any],
    live_report: Mapping[str, Any],
    tolerances: Optional[Mapping[str, float]] = None,
) -> CrossValReport:
    """Cross-validate a live report against its simulator twin."""
    bands = dict(DEFAULT_TOLERANCES if tolerances is None else tolerances)
    comparisons: List[MetricComparison] = []
    for metric, tolerance in bands.items():
        if tolerance <= 0:
            raise ValueError(
                f"tolerance for {metric!r} must be > 0, got {tolerance}"
            )
        comparisons.append(
            compare_metric(
                metric,
                _as_optional_float(sim_report.get(metric)),
                _as_optional_float(live_report.get(metric)),
                tolerance,
            )
        )
    return CrossValReport(tuple(comparisons))


def verdict_note(label: str, report: CrossValReport) -> str:
    """One operating point's verdict line, naming its worst metric."""
    worst = report.worst
    if worst is None or worst.deviation is None:
        detail = "no compared metric produced samples on both sides"
    else:
        detail = (
            f"worst {worst.metric}: "
            f"dev {worst.deviation:.1%} vs tol {worst.tolerance:.0%}"
        )
    return f"{label}: {'agrees' if report.agrees else 'DISAGREES'} ({detail})"


def verification_note(verified: int, failures: int) -> str:
    """The end-to-end decode verification line of a live experiment."""
    return (
        f"end-to-end decode verification: {verified} segment(s) "
        f"hash-verified on the wire, {failures} failure(s)"
    )


def _as_optional_float(value: Any) -> Optional[float]:
    """``None`` for a missing statistic, whether ``None`` or NaN."""
    if value is None or math.isnan(value := float(value)):
        return None
    return value
