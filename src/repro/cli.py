"""Command-line interface: ``python -m repro <experiment>`` or ``repro ...``.

Regenerates any of the paper's figures (and the extra validations) from the
terminal and optionally writes the series to JSON::

    repro fig3 --quality fast
    repro fig5 --quality full --json results/fig5.json
    repro all --quality fast
    repro fig4 --seeds 1,2,3,4          # override the preset seed list

Every experiment is one task grid registered in
:data:`repro.experiments.PLAN_BUILDERS`; ``repro <experiment>`` executes it
in-process, and the parallel sweep runner executes the same grid on a
worker pool, journaling each cell for checkpoint/resume (see
``docs/RUNNER.md``)::

    repro run fig5 --quality fast --workers 4
    repro run fig5 --workers 4 --resume fig5-001

The static determinism checker is exposed as a subcommand (see
``docs/LINTING.md``)::

    repro lint --strict src/repro

The chaos campaign engine searches the fault space under runtime invariant
monitors and replays minimal reproducers (see ``docs/CHAOS.md``)::

    repro chaos run --budget 200 --workers 4 --seed 7
    repro chaos replay runs/chaos-campaign-001/repro-00013.json

The live deployment runtime serves the protocol over real TCP sockets
(see ``docs/LIVE.md``)::

    repro live swarm --n-peers 64 --duration 8 --json
    repro live serve --port 9000 &
    repro live peer --server-host 10.0.0.1 --server-port 9000

Exit codes, for every command: 0 done; 1 the check the command exists for
failed; 2 usage or invalid configuration (one ``error: …`` line, no
traceback); 3 checkpointed, resumable.  README.md has the table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.experiments import (
    PLAN_BUILDERS,
    QUALITY_FAST,
    QUALITY_FULL,
    SeriesResult,
    SimBudget,
    budget_for,
    override_budget,
    parse_seeds,
)
from repro.runner import RunOutcome, RunSpec, add_session_flags, run_session
from repro.util.validation import usage_error


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    """The flags every experiment command takes: preset, archive, budget."""
    parser.add_argument(
        "--quality",
        choices=[QUALITY_FAST, QUALITY_FULL],
        default=QUALITY_FAST,
        help="simulation budget: 'fast' for minutes, 'full' for paper-scale",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the series to a JSON file (or directory for 'all')",
    )
    parser.add_argument(
        "--seeds",
        default=None,
        metavar="N,N,...",
        help=(
            "comma-separated replication seeds overriding the quality "
            "preset (e.g. '--seeds 1,2,3'; duplicates are rejected)"
        ),
    )
    parser.add_argument(
        "--n-peers", type=int, default=None, metavar="N",
        help="override the preset peer population",
    )
    parser.add_argument(
        "--warmup", type=float, default=None, metavar="T",
        help="override the preset warmup interval",
    )
    parser.add_argument(
        "--duration", type=float, default=None, metavar="T",
        help="override the preset measurement interval",
    )
    parser.add_argument(
        "--n-servers", type=int, default=None, metavar="N",
        help="override the preset server count",
    )
    parser.add_argument(
        "--engine", choices=["event", "fast"], default=None,
        help=(
            "simulation engine: 'event' (event-exact, the default) or "
            "'fast' (vectorized struct-of-arrays; abstract mode only)"
        ),
    )
    parser.add_argument(
        "--tau", type=float, default=None, metavar="T",
        help=(
            "fast-engine tau-leap step in simulated time units "
            "(> 0; default 0.01)"
        ),
    )


def _resolve_budget(args: argparse.Namespace) -> SimBudget:
    """The quality preset with any budget-override flag applied."""
    return override_budget(
        budget_for(args.quality),
        seeds=parse_seeds(args.seeds) if args.seeds is not None else None,
        n_peers=args.n_peers,
        warmup=args.warmup,
        duration=args.duration,
        n_servers=args.n_servers,
        engine=args.engine,
        tau=args.tau,
    )


def _write_json(target: Path, result: SeriesResult) -> None:
    """Archive one series at *target*, creating missing parents."""
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(result.to_json())
    print(f"wrote {target}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Circumventing Server Bottlenecks: "
            "Indirect Large-Scale P2P Data Collection' (ICDCS 2008)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(PLAN_BUILDERS) + ["all"],
        help=(
            "which figure/ablation to regenerate ('all' runs everything); "
            "'repro lint' runs the static determinism checker; 'repro run' "
            "drives the parallel sweep runner; 'repro chaos' runs the "
            "chaos campaign engine"
        ),
    )
    _add_experiment_flags(parser)
    return parser


def build_run_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro run`` subcommand (the parallel runner)."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        description=(
            "Execute one experiment as a sharded task grid on a worker "
            "pool with checkpoint/resume; results are byte-identical to "
            "'repro <experiment>' (docs/RUNNER.md)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(PLAN_BUILDERS),
        help="experiment name (as in 'repro <experiment>')",
    )
    _add_experiment_flags(parser)
    add_session_flags(parser)
    return parser


def run_main(argv: List[str]) -> int:
    """Entry point of ``repro run ...`` (the parallel sweep runner)."""
    args = build_run_parser().parse_args(argv)

    def report(spec: RunSpec, outcome: RunOutcome) -> int:
        result = outcome.result
        assert result is not None
        print(result.to_table())
        print()
        print(
            f"run {outcome.run_id}: {outcome.total_tasks} cells "
            f"({outcome.resumed_tasks} from journal, "
            f"{outcome.executed_this_session} executed) -> "
            f"{outcome.run_dir / 'result.json'}",
            file=sys.stderr,
        )
        if args.json is not None:
            _write_json(args.json, result)
        return 0

    return run_session(
        args,
        experiment=args.experiment,
        command=f"repro run {args.experiment}",
        fresh_spec=lambda: RunSpec.create(
            args.experiment, args.quality, _resolve_budget(args)
        ),
        report=report,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from repro.lint.__main__ import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "run":
        return run_main(argv[1:])
    if argv and argv[0] == "chaos":
        from repro.chaos.cli import chaos_main

        return chaos_main(argv[1:])
    if (
        argv
        and argv[0] == "live"
        and len(argv) > 1
        and argv[1] in ("serve", "peer", "swarm")
    ):
        # 'repro live serve|peer|swarm' is the deployment runtime;
        # bare 'repro live' (no subcommand) runs the E-LIVE experiment.
        from repro.live.cli import live_main

        return live_main(argv[1:])
    args = build_parser().parse_args(argv)
    many = args.experiment == "all"
    names = sorted(PLAN_BUILDERS) if many else [args.experiment]
    try:
        # Budgets and Parameters validate eagerly, while the grids are
        # built; nothing past this block is a usage error.
        budget = _resolve_budget(args)
        plans = [
            PLAN_BUILDERS[name](quality=args.quality, budget=budget)
            for name in names
        ]
    except ValueError as exc:
        return usage_error(exc)
    for plan in plans:
        result = plan.run_serial()
        print(result.to_table())
        print()
        if args.json is not None:
            _write_json(
                args.json / f"{result.name}.json" if many else args.json,
                result,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
