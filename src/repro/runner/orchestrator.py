"""Sweep orchestration: plan -> pool -> journal -> byte-identical merge.

:func:`execute_run` is the one entry point: it builds the task grid from a
:class:`RunSpec`, figures out which cells still need to run (all of them
for a fresh run; the journal's complement for ``--resume``), executes them
on the :class:`WorkerPool`, journals every completion, and finally merges
*all* payloads — journaled and fresh alike — through the experiment's own
``merge`` in task-grid order.

The determinism argument, in one paragraph: each task reconstructs its
entire RNG state from ``(params, seed)`` or a named substream, so *where*
and *when* it runs cannot change its payload; payloads are JSON-normalized
identically whether they stayed in memory or round-tripped through the
journal; and the merge consumes them keyed by task id in the plan's
declared order, never completion order.  Serial execution *is* the same
plan with a trivial executor, so ``--workers 4``, ``--workers 1``, a
resumed run, and ``plan.run_serial()`` in-process all produce
byte-identical ``SeriesResult`` JSON.  ``docs/RUNNER.md`` spells this out.

:func:`add_session_flags` and :func:`run_session` are the command-line
face of :func:`execute_run`, shared by every command that drives a sweep
(``repro run``, ``repro chaos run``): the eight session flags, resume from
the journal manifest, and the exit-code convention are stated here once.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, TextIO

from repro.experiments.base import SeriesResult
from repro.runner.journal import JournalError, RunJournal
from repro.runner.pool import WorkerPool
from repro.runner.spec import RunSpec
from repro.runner.telemetry import (
    KIND_RUN_COMPLETE,
    KIND_RUN_RESUME,
    KIND_RUN_START,
    KIND_RUN_STOPPED,
    RunnerTelemetry,
)
from repro.util.validation import usage_error

#: Default parent directory for run journals.
DEFAULT_RUNS_DIR = Path("runs")

#: Exit code of a session that checkpointed before the grid completed
#: (``--stop-after``): the run is resumable, not failed.
EXIT_CHECKPOINTED = 3


@dataclass
class RunOutcome:
    """What :func:`execute_run` produced.

    ``result`` is ``None`` exactly when the run stopped early
    (``stop_after``) with cells still missing; ``completed_tasks`` counts
    journaled cells across *all* sessions of the run.
    """

    run_id: str
    run_dir: Path
    result: Optional[SeriesResult]
    completed_tasks: int
    total_tasks: int
    executed_this_session: int
    resumed_tasks: int

    @property
    def complete(self) -> bool:
        return self.result is not None


def make_run_id(experiment: str, runs_dir: Path) -> str:
    """Pick a fresh, human-sortable run id under *runs_dir*."""
    for counter in itertools.count(1):
        candidate = f"{experiment}-{counter:03d}"
        if not (runs_dir / candidate).exists():
            return candidate
    raise AssertionError("unreachable")  # pragma: no cover


def execute_run(
    spec: RunSpec,
    workers: int = 1,
    runs_dir: Path = DEFAULT_RUNS_DIR,
    run_id: Optional[str] = None,
    resume: Optional[str] = None,
    task_timeout: Optional[float] = None,
    retries: int = 2,
    stop_after: Optional[int] = None,
    progress: bool = False,
    stream: Optional[TextIO] = None,
) -> RunOutcome:
    """Execute (or resume) one sweep; see the module docstring.

    ``resume`` names an existing run id under *runs_dir* whose journal
    supplies already-completed cells; the manifest fingerprint must match
    *spec*.  ``stop_after`` ends the session after that many cells
    complete in it — the checkpoint half of the checkpoint/resume tests.
    """
    plan = spec.build_plan()
    task_ids = plan.task_ids()

    if resume is not None:
        run_dir = runs_dir / resume
        journal = RunJournal.load(run_dir)
        journal.check_resumable(spec, task_ids)
        completed = journal.completed_payloads()
        unknown = sorted(set(completed) - set(task_ids))
        if unknown:
            raise JournalError(
                f"journal {resume} holds {len(unknown)} task(s) not in "
                f"this plan (first: {unknown[0]!r})"
            )
    else:
        chosen = run_id or make_run_id(spec.experiment, runs_dir)
        run_dir = runs_dir / chosen
        journal = RunJournal.create(
            run_dir,
            spec,
            task_ids,
            execution={
                "workers": workers,
                "task_timeout": task_timeout,
                "retries": retries,
            },
        )
        completed = {}

    pending = [task_id for task_id in task_ids if task_id not in completed]
    index_of = {task_id: i for i, task_id in enumerate(task_ids)}

    telemetry = RunnerTelemetry(
        total_tasks=len(task_ids),
        already_done=len(completed),
        workers=workers,
        sink=journal.append_event,
        progress=progress,
        stream=stream,
    )
    telemetry.emit(
        KIND_RUN_RESUME if resume is not None else KIND_RUN_START,
        run_id=run_dir.name,
        experiment=spec.experiment,
        total_tasks=len(task_ids),
        already_done=len(completed),
        pending=len(pending),
        workers=workers,
    )

    payloads: Dict[str, Dict[str, Any]] = dict(completed)

    def on_task_done(
        task_id: str, payload: Dict[str, Any], attempts: int, elapsed: float
    ) -> None:
        journal.record_task(
            index_of[task_id], task_id, payload, attempts, elapsed
        )

    executed = 0
    if pending:
        pool = WorkerPool(
            spec,
            n_workers=workers,
            telemetry=telemetry,
            task_timeout=task_timeout,
            retries=retries,
            on_task_done=on_task_done,
        )
        try:
            pool_result = pool.run(pending, stop_after=stop_after)
        finally:
            telemetry.close_line()
        payloads.update(pool_result.payloads)
        executed = len(pool_result.payloads)

    if len(payloads) < len(task_ids):
        telemetry.emit(
            KIND_RUN_STOPPED,
            run_id=run_dir.name,
            completed=len(payloads),
            total=len(task_ids),
        )
        return RunOutcome(
            run_id=run_dir.name,
            run_dir=run_dir,
            result=None,
            completed_tasks=len(payloads),
            total_tasks=len(task_ids),
            executed_this_session=executed,
            resumed_tasks=len(completed),
        )

    result = plan.merge(payloads)
    journal.write_result(result.to_json())
    telemetry.emit(
        KIND_RUN_COMPLETE,
        run_id=run_dir.name,
        total=len(task_ids),
        executed=executed,
        resumed=len(completed),
    )
    return RunOutcome(
        run_id=run_dir.name,
        run_dir=run_dir,
        result=result,
        completed_tasks=len(payloads),
        total_tasks=len(task_ids),
        executed_this_session=executed,
        resumed_tasks=len(completed),
    )


def add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of one sweep session, for any command that runs a grid."""
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (default 1)",
    )
    parser.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help=(
            "resume an interrupted run: execute only the tasks missing "
            "from its journal (the spec is restored from the manifest)"
        ),
    )
    parser.add_argument(
        "--run-id", default=None, metavar="ID",
        help="name the run directory (default: auto '<experiment>-NNN')",
    )
    parser.add_argument(
        "--runs-dir", type=Path, default=DEFAULT_RUNS_DIR, metavar="DIR",
        help="parent directory for run journals (default: runs/)",
    )
    parser.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help=(
            "checkpoint: end the session after N tasks complete in it "
            "(exit 3; resume later with --resume)"
        ),
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any task exceeding this wall-clock budget",
    )
    parser.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-executions allowed per task before the run fails "
        "(default 2)",
    )
    parser.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line",
    )


def run_session(
    args: argparse.Namespace,
    experiment: str,
    command: str,
    fresh_spec: Callable[[], RunSpec],
    report: Callable[[RunSpec, RunOutcome], int],
) -> int:
    """One sweep session of *command* from parsed :func:`add_session_flags`.

    A fresh run executes ``fresh_spec()``; ``--resume`` restores the spec
    from the journal manifest (the source of truth — the fingerprint check
    in :func:`execute_run` still guards against drift) and refuses a run
    of another experiment.  Exit codes: ``report(spec, outcome)`` when the
    grid completes, 3 when the session checkpointed first, 2 for a bad
    flag, spec or journal.
    """
    if args.workers < 1:
        return usage_error("--workers must be >= 1")
    try:
        if args.resume is not None:
            journal = RunJournal.load(args.runs_dir / args.resume)
            spec = journal.spec()
            if spec.experiment != experiment:
                return usage_error(
                    f"run {args.resume} is a {spec.experiment!r} sweep, "
                    f"not {experiment!r}"
                )
        else:
            spec = fresh_spec()
        outcome = execute_run(
            spec,
            workers=args.workers,
            runs_dir=args.runs_dir,
            run_id=args.run_id,
            resume=args.resume,
            task_timeout=args.task_timeout,
            retries=args.retries,
            stop_after=args.stop_after,
            progress=not args.no_progress,
        )
    except (JournalError, ValueError) as exc:
        return usage_error(exc)
    if not outcome.complete:
        print(
            f"checkpointed {outcome.run_id}: "
            f"{outcome.completed_tasks}/{outcome.total_tasks} tasks "
            f"journaled in {outcome.run_dir}; continue with "
            f"'{command} --resume {outcome.run_id}'",
            file=sys.stderr,
        )
        return EXIT_CHECKPOINTED
    return report(spec, outcome)
