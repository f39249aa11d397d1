#!/usr/bin/env python3
"""Perf ledger: run the end-to-end workloads and print every metric by name.

Two ways to call it:

``run.py --workload W --seed S --seconds T --trace 0|1``
    One run of one workload in this process.  Prints every metric with its
    unit, a ``detail`` line (chunk samples, calibration, report digest) and,
    last, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
    holding the ``end_to_end`` metrics of BENCHMARK.json (``--trace 0``) or
    its ``per_layer`` metrics (``--trace 1``).

``run.py [--workload W] [--seed S] [--repeats R] [--traced] [--out FILE]``
    The ledger: every workload (or W) R times, each run in a fresh process,
    plus one traced run with ``--traced``; checks that repeats of one seed
    produce the same report digest and that tracing does not change it;
    writes medians, quartiles and the layer table to FILE.  Exits non-zero
    on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
# The script directory would shadow the standard library's ``trace``.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from bench import layers, trace, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Chunks of the untraced baseline a traced run measures first, to state
#: its own overhead on identical work.
BASELINE_CHUNKS = 4

Metrics = Dict[str, Tuple[float, str]]


# -- the box ---------------------------------------------------------------------


def calibrate() -> Dict[str, float]:
    """Time a fixed pure-Python loop and a fixed MUL_TABLE-sized gather, so
    that a slow or busy box shows in the output as such."""
    start = time.perf_counter()
    total = 0
    for index in range(1_000_000):
        total += index & 7
    py_loop = time.perf_counter() - start
    rng = np.random.default_rng(0)
    table = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    rows, columns = rng.integers(0, 256, size=(2, 1 << 20))
    start = time.perf_counter()
    for _ in range(4):
        table[rows, columns]
    return {
        "calib.py_loop_s": py_loop,
        "calib.np_gather_s": time.perf_counter() - start,
    }


def fingerprint() -> Dict[str, Any]:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


# -- one run ---------------------------------------------------------------------


def chunk_samples(m: workloads.Measurement) -> Dict[str, List[float]]:
    return {
        "cpu_s_per_sim_s": [lap[0] / lap[2] for lap in m.laps],
        "wall_s_per_sim_s": [lap[1] / lap[2] for lap in m.laps],
    }


def end_to_end_metrics(m: workloads.Measurement) -> Metrics:
    """The headline timings are the lower quartile over the timed chunks.

    Interference from the host only ever adds time, and on this box it comes
    in bursts of seconds that slow memory-bound Python by up to a third; the
    lower quartile of equal pieces of work moves least with it.  The chunk
    samples themselves go into the detail line.
    """
    chunks = chunk_samples(m)
    cpu_per_sim = statistics.quantiles(chunks["cpu_s_per_sim_s"], n=4)[0]
    wall_per_sim = statistics.quantiles(chunks["wall_s_per_sim_s"], n=4)[0]
    window_cpu = cpu_per_sim * sum(lap[2] for lap in m.laps)
    block_ops = m.report["gossip_transfers"] + m.report["pulls"]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(m.setup_s), "s"),
        "cpu_s_per_sim_s": (cpu_per_sim, "s"),
        "wall_s_per_sim_s": (wall_per_sim, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "normalized_throughput": (m.report["normalized_throughput"], "ratio"),
        "cpu_us_per_block_op": (
            1e6 * window_cpu / block_ops if block_ops else 0.0, "us"
        ),
    }


def run_untraced(spec: workloads.Spec, seed: int, seconds: float):
    m = workloads.measure(spec, seed, seconds, setups=SETUPS)
    return m, end_to_end_metrics(m), {"chunks": chunk_samples(m)}


def run_traced(spec: workloads.Spec, seed: int, seconds: float):
    baseline = workloads.measure(spec, seed, seconds, n_chunks=BASELINE_CHUNKS)
    tracer = trace.Tracer()
    overhead = tracer.span_overhead()
    layers.install(tracer)
    try:
        m = workloads.measure(spec, seed, seconds, tracer=tracer)
    finally:
        tracer.restore()
    window = trace.merge(m.deltas)
    raw_busy = sum(stat[1] for stat in window["stats"].values())
    window_cpu = sum(lap[0] for lap in m.laps)
    traced_cpu = sum(lap[0] for lap in m.laps[:BASELINE_CHUNKS])
    baseline_cpu = sum(lap[0] for lap in baseline.laps)
    window["stats"] = trace.compensate(window, overhead)
    metrics = layers.per_layer_metrics(
        window, m.report, m.counters, window_cpu, raw_busy
    )
    metrics["trace.overhead_ratio"] = (traced_cpu / baseline_cpu, "ratio")
    totals = layers.layer_totals(window["stats"])
    detail = {
        "span_overhead_us": [1e6 * part for part in overhead],
        "outside_spans_s": window_cpu - raw_busy,
        "layers": {
            layer: {"calls": calls, "self_s": self_s}
            for layer, (calls, self_s) in sorted(totals.items())
            if calls
        },
        "spans": {
            key: {"calls": s[0], "self_s": s[1], "total_s": s[2], "extra": s[3]}
            for key, s in sorted(window["stats"].items())
            if s[0]
        },
        "edges": [
            {"parent": parent, "span": key, "calls": e[0], "total_s": e[1]}
            for (parent, key), e in sorted(
                window["edges"].items(), key=lambda item: -item[1][1]
            )[:40]
        ],
        "violations": layers.zero_call_violations(spec.name, window["stats"]),
    }
    return m, metrics, detail


def print_layer_table(detail: Dict[str, Any]) -> None:
    """Self time per layer, as a share of all attributed time."""
    rows = {layer: row["self_s"] for layer, row in detail["layers"].items()}
    rows["(outside spans)"] = max(0.0, detail["outside_spans_s"])
    total = sum(rows.values())
    print(f"{'layer':<22}{'calls':>12}{'self_s':>10}{'share':>8}")
    for layer, self_s in sorted(rows.items(), key=lambda item: -item[1]):
        calls = int(detail["layers"].get(layer, {"calls": 0})["calls"])
        print(f"{layer:<22}{calls:>12}{self_s:>10.3f}{self_s / total:>8.1%}")


def run_single(name: str, seed: int, seconds: float, traced: bool) -> int:
    """One run in this process; the last line printed is the result."""
    calib = calibrate()
    spec = workloads.SPECS[name]
    declared = BENCHMARK["per_layer" if traced else "end_to_end"]
    runner = run_traced if traced else run_untraced
    m, metrics, detail = runner(spec, seed, seconds)

    problems = list(detail.get("violations", ()))
    if m.attempted < 1:
        problems.append("no operation was attempted")
    if m.failed:
        problems.append(f"{m.failed} of {m.attempted} operations failed")
    if set(metrics) != {entry["name"] for entry in declared}:
        problems.append("emitted metrics differ from BENCHMARK.json")
    for entry in declared:
        value, unit = metrics.get(entry["name"], (0.0, entry["unit"]))
        if unit != entry["unit"]:
            problems.append(f"{entry['name']}: unit {unit} != {entry['unit']}")

    print(f"workload {name} seed {seed} seconds {seconds:g} traced {int(traced)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value:.6g} {unit}")
    share = m.failed / m.attempted if m.attempted else 1.0
    print(f"failed_op_share {share:.6g} ratio ({m.failed}/{m.attempted})")
    if m.digest is not None:
        print(f"report_digest {m.digest}")
    if traced:
        print_layer_table(detail)
    for problem in problems:
        print(f"PROBLEM {problem}")

    detail.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        traced=traced,
        report_digest=m.digest,
        calib=calib,
        host=fingerprint(),
    )
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": max(m.attempted, 1),
                "failed": m.failed,
                "metrics": {
                    metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


# -- the ledger ------------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and range of one metric over the repeats."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 22:  # fewer: that percentile is below the median
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100.0 * index / (len(ordered) - 1), ordered[index]


def spawn(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One run in a fresh process; returns its result and detail lines."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(traced)),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-2]:
        print("  " + line)
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise RuntimeError(f"{name}: run failed with exit code {done.returncode}")
    return {
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2][len("detail "):]),
    }


def run_ledger(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(workloads.SPECS)
    ledger: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "host": fingerprint(),
        "workloads": {},
    }
    ok = True
    for name in names:
        print(f"== {name}: {workloads.SPECS[name].why}")
        runs = [
            spawn(name, args.seed, args.seconds, traced=False)
            for _ in range(args.repeats)
        ]
        results = [run["result"] for run in runs]
        details = [run["detail"] for run in runs]
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        digests = {detail["report_digest"] for detail in details}
        entry: Dict[str, Any] = {
            "end_to_end": {
                metric["name"]: dict(
                    summarize(
                        [r["metrics"][metric["name"]]["value"] for r in results]
                    ),
                    unit=metric["unit"],
                )
                for metric in BENCHMARK["end_to_end"]
            },
            "attempted": attempted,
            "failed": failed,
            "failed_op_share": failed / attempted,
            "report_digest": sorted(digests, key=str)[0],
            "calib": {
                key: statistics.median(detail["calib"][key] for detail in details)
                for key in details[0]["calib"]
            },
            "chunks": {},
        }
        for metric in details[0]["chunks"]:
            samples = [s for detail in details for s in detail["chunks"][metric]]
            entry["chunks"][metric] = {
                "median": statistics.median(samples),
                "tail": tail_percentile(samples),
                "n": len(samples),
            }
        correct = all(result["correct"] for result in results)
        if len(digests) != 1:
            print(f"PROBLEM {name}: repeats of seed {args.seed} disagree: {digests}")
            correct = False
        if args.traced:
            traced = spawn(name, args.seed, args.seconds, traced=True)
            detail = traced["detail"]
            correct = correct and traced["result"]["correct"]
            if detail["report_digest"] not in digests:
                print(f"PROBLEM {name}: tracing changed the report digest")
                correct = False
            entry["per_layer"] = traced["result"]["metrics"]
            entry["layers"] = detail["layers"]
            entry["edges"] = detail["edges"]
        entry["correct"] = correct
        ok = ok and correct
        ledger["workloads"][name] = entry
        for metric, row in entry["end_to_end"].items():
            print(
                f"{name} {metric} median {row['median']:.6g} {row['unit']} "
                f"iqr {row['q3'] - row['q1']:.3g} n {row['n']}"
            )
        print(f"{name} failed_op_share {entry['failed_op_share']:.6g} ratio")
        print(f"{name} {'ok' if correct else 'FAILED'}")
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    return 0 if ok else 1


# -- cProfile cross-check --------------------------------------------------------


def run_profile(name: str, seed: int, seconds: float) -> int:
    """Shares of ``tottime`` per module, to hold against the span table."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    workloads.measure(workloads.SPECS[name], seed, seconds)
    profiler.disable()
    shares: Dict[str, float] = {}
    for (filename, _line, function), row in pstats.Stats(profiler).stats.items():
        path = filename.replace(os.sep, "/")
        if "/repro/" in path:
            module = path.rsplit("/repro/", 1)[1][: -len(".py")]
            group = "repro." + module.replace("/", ".")
        elif "/bench/" in path:
            group = "bench"
        elif "numpy" in path or "numpy" in function:
            group = "numpy"
        elif "/asyncio/" in path or "selectors" in path or "socket" in function:
            group = "asyncio"
        elif filename == "~":
            group = "builtins"
        else:
            group = "stdlib"
        shares[group] = shares.get(group, 0.0) + row[2]
    total = sum(shares.values())
    print(f"workload {name}: cProfile tottime {total:.3f} s")
    for group, seconds_in in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"{group:<32}{seconds_in:>10.3f}{seconds_in / total:>8.1%}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(BENCHMARK["run_seconds"]),
        help="size of one run; windows scale with it",
    )
    parser.add_argument(
        "--quick", action="store_const", const=1.0, dest="seconds",
        help="--seconds 1: 0.05 of the nominal 20 s sizes, for smoke tests",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="run once in this process, untraced (0) or traced (1)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--traced", action="store_true",
        help="ledger: add one traced run per workload",
    )
    parser.add_argument("--out", help="ledger: write the compact JSON here")
    parser.add_argument(
        "--profile", action="store_true",
        help="run --workload under cProfile and print tottime shares",
    )
    args = parser.parse_args(argv)
    if args.profile or args.trace is not None:
        if args.workload is None:
            parser.error("--trace and --profile need --workload")
        if args.profile:
            return run_profile(args.workload, args.seed, args.seconds)
        return run_single(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
