#!/usr/bin/env python3
"""Compare two ledger files under the bounds of BENCHMARK.json.

``compare.py A.json B.json`` prints one row per (workload, end-to-end
metric): both medians, both interquartile ranges, the ratio B/A with its
base, and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  the run-to-run spread of either side is wider than the
                bound, and B's runs do not all read better than A's

A is the parent (the base of every ratio), B the change.  Exit code 1 on any
``worse``.  Two sets of runs of one commit must come out all ``ok``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


def verdict(a: Dict[str, float], b: Dict[str, float], lower: bool, bound: float) -> str:
    """Judge one metric; *a* and *b* are ledger summaries (median, q1, ...)."""
    base = a["median"]
    sign = 1.0 if lower else -1.0
    worse_by = sign * (b["median"] - base) / abs(base) if base else 0.0
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0
        for side in (a, b)
    )
    if lower:
        all_better, all_worse = b["max"] < a["min"], b["min"] > a["max"]
    else:
        all_better, all_worse = b["min"] > a["max"], b["max"] < a["min"]
    if worse_by > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], benchmark: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both ledgers."""
    rows = []
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            continue
        for metric in benchmark["end_to_end"]:
            row_a = side_a["end_to_end"][metric["name"]]
            row_b = side_b["end_to_end"][metric["name"]]
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": row_a,
                    "b": row_b,
                    "bound": metric["bound"],
                    "verdict": verdict(
                        row_a, row_b, metric["better"] == "lower", metric["bound"]
                    ),
                }
            )
        # Failures are counted, not timed: any rise is a regression.
        share_a, share_b = side_a["failed_op_share"], side_b["failed_op_share"]
        flat = {"q1": 0.0, "q3": 0.0}
        rows.append(
            {
                "workload": name,
                "metric": "failed_op_share",
                "unit": "ratio",
                "a": dict(flat, median=share_a),
                "b": dict(flat, median=share_b),
                "bound": 0.0,
                "verdict": "worse" if share_b > share_a else "ok",
            }
        )
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a, b, benchmark)
    print(
        f"{'workload':<16}{'metric':<24}{'A median':>12}{'A iqr':>10}"
        f"{'B median':>12}{'B iqr':>10}{'B/A':>8}  {'bound':>6}  verdict"
    )
    for row in rows:
        a_row, b_row = row["a"], row["b"]
        ratio = b_row["median"] / a_row["median"] if a_row["median"] else 1.0
        print(
            f"{row['workload']:<16}{row['metric']:<24}"
            f"{a_row['median']:>12.5g}{a_row['q3'] - a_row['q1']:>10.3g}"
            f"{b_row['median']:>12.5g}{b_row['q3'] - b_row['q1']:>10.3g}"
            f"{ratio:>8.3f}  {row['bound']:>6.2f}  {row['verdict']}"
            f"  (base A = {a_row['median']:.5g} {row['unit']})"
        )
    counts = {
        kind: sum(row["verdict"] == kind for row in rows)
        for kind in ("ok", "worse", "unresolved")
    }
    print(" ".join(f"{kind} {count}" for kind, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
