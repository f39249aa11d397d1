"""``repro chaos`` subcommands: run campaigns, replay minimal reproducers.

::

    repro chaos run --budget 200 --workers 4 --seed 7
    repro chaos run --budget 200 --resume chaos-campaign-001
    repro chaos replay runs/chaos-campaign-002/repro-00013.json

``run`` fans the campaign over the parallel runner's worker pool and
journals every trial, so an interrupted campaign resumes exactly like any
other sweep (exit code 3 = checkpointed).  On violations it shrinks the
first few failures in-process, writes one self-contained ``repro-*.json``
per violating trial into the run directory, and exits 1.  ``replay``
re-executes a reproducer and exits 0 iff the recorded monitor fires again.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.chaos.campaign import campaign_options, outcomes_from_payloads
from repro.chaos.harness import TrialOutcome, run_trial
from repro.chaos.shrink import load_repro, shrink_trial, write_repro
from repro.chaos.space import CHAOS_CAMPAIGN, TrialConfig
from repro.experiments.base import QUALITY_FAST, budget_for
from repro.runner import (
    RunJournal,
    RunOutcome,
    RunSpec,
    add_session_flags,
    run_session,
)
from repro.util.codec import decode
from repro.util.validation import usage_error


def build_chaos_parser() -> argparse.ArgumentParser:
    """Parser of the ``repro chaos`` subcommand tree."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description=(
            "Randomized fault-space search with runtime invariant monitors "
            "and automatic minimal-reproducer shrinking (docs/CHAOS.md)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a seeded chaos campaign on the worker pool"
    )
    run.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="number of trials in the campaign (default 50)",
    )
    run.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="campaign seed; trial i is a pure function of (S, i) "
        "(default 0)",
    )
    run.add_argument(
        "--every", type=int, default=None, metavar="K",
        help="override the sampled monitor cadence (events per sweep)",
    )
    run.add_argument(
        "--shrink-probes", type=int, default=48, metavar="N",
        help="probe-trial budget per shrunk violation (default 48)",
    )
    run.add_argument(
        "--max-shrink", type=int, default=3, metavar="N",
        help=(
            "shrink at most N violating trials (the rest get raw, "
            "unshrunk reproducers; default 3)"
        ),
    )
    add_session_flags(run)  # one trial = one task of the sweep

    replay = sub.add_parser(
        "replay", help="replay a repro.json and check the violation recurs"
    )
    replay.add_argument(
        "repro", type=Path, metavar="REPRO_JSON",
        help="a repro-*.json written by 'repro chaos run'",
    )
    return parser


def _chaos_run(args: argparse.Namespace) -> int:
    def fresh_spec() -> RunSpec:
        options = campaign_options(
            budget=args.budget, seed=args.seed, every=args.every
        )
        spec = RunSpec.create(
            CHAOS_CAMPAIGN, QUALITY_FAST, budget_for(QUALITY_FAST), options
        )
        spec.build_plan()  # surface a bad --budget before journaling
        return spec

    return run_session(
        args,
        experiment=CHAOS_CAMPAIGN,
        command="repro chaos run",
        fresh_spec=fresh_spec,
        report=lambda spec, outcome: _campaign_verdict(args, spec, outcome),
    )


def _campaign_verdict(
    args: argparse.Namespace, spec: RunSpec, outcome: RunOutcome
) -> int:
    """Summarize a completed campaign; shrink and write its violations."""
    journal = RunJournal.load(outcome.run_dir)
    outcomes = outcomes_from_payloads(journal.completed_payloads())
    violations = [o for o in outcomes if not o.ok]
    total_events = sum(o.events for o in outcomes)
    total_sweeps = sum(o.checks_run for o in outcomes)
    print(
        f"campaign {outcome.run_id}: {len(outcomes)} trials, "
        f"{total_events} events, {total_sweeps} monitor sweeps, "
        f"{len(violations)} violation(s)"
    )
    if not violations:
        return 0

    for index, violated in enumerate(violations):
        print(f"  {violated.describe()}")
        config = decode(TrialConfig, violated.config)
        shrink = None
        if index < args.max_shrink and violated.monitor is not None:
            shrink = shrink_trial(
                config, violated.monitor, max_probes=args.shrink_probes
            )
            minimized = shrink.minimized_config()
            print(
                f"    shrunk in {shrink.probes} probes "
                f"({shrink.reductions} reductions): {minimized.describe()}"
            )
        path = write_repro(
            outcome.run_dir / f"repro-{violated.trial_id:05d}.json",
            violated,
            shrink=shrink,
            campaign_seed=int(spec.options.get("seed", 0)),
        )
        print(f"    wrote {path}")
    return 1


def _chaos_replay(args: argparse.Namespace) -> int:
    try:
        config, expected_monitor, payload = load_repro(args.repro)
    except (OSError, ValueError) as exc:
        return usage_error(exc)
    print(f"replaying {args.repro}: {config.describe()}")
    outcome: TrialOutcome = run_trial(config)
    if not outcome.ok and outcome.monitor == expected_monitor:
        print(f"reproduced: [{outcome.monitor}] {outcome.message}")
        return 0
    if outcome.ok:
        print(
            f"NOT reproduced: trial passed "
            f"({outcome.events} events, {outcome.checks_run} sweeps); "
            f"expected [{expected_monitor}] "
            f"{payload['violation'].get('message')}",
            file=sys.stderr,
        )
    else:
        print(
            f"different violation: got [{outcome.monitor}] "
            f"{outcome.message}, expected [{expected_monitor}]",
            file=sys.stderr,
        )
    return 1


def chaos_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro chaos ...``; returns a process exit code."""
    args = build_chaos_parser().parse_args(argv)
    if args.command == "run":
        return _chaos_run(args)
    return _chaos_replay(args)
