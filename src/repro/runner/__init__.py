"""Parallel sweep runner: sharded, checkpointed, byte-identical execution.

The subsystem that turns "reproduce a figure" into "drive arbitrary-scale
sweeps" (ROADMAP: sharding/batching/async).  Layers, bottom up:

``spec``          :class:`RunSpec` — a self-contained, JSON-serializable
                  sweep description; workers rebuild the task grid from it
                  alone, never from process globals.
``journal``       :class:`RunJournal` — the ``runs/<run-id>/`` directory:
                  manifest, atomic per-task payload files, telemetry
                  stream, final result.  The substrate of ``--resume``.
``telemetry``     :class:`RunnerTelemetry` — registered event kinds (the
                  :mod:`repro.sim.trace` discipline), live counters,
                  worker utilization, ETA, a one-line progress display.
``pool``          :class:`WorkerPool` — one process + one pipe per worker;
                  per-task timeouts, bounded retries, and crash isolation
                  with targeted kill-and-respawn.
``orchestrator``  :func:`execute_run` — grid -> pool -> journal -> merge,
                  byte-identical to serial execution by construction;
                  :func:`add_session_flags` + :func:`run_session`, the one
                  command-line session every sweep command shares.
``synthetic``     misbehaving micro-plans for the fault-path tests and
                  the task-throughput benchmark.

Entry points: ``repro run <experiment> --workers N [--resume RUN_ID]`` on
the command line, or :func:`execute_run` programmatically.  See
``docs/RUNNER.md`` for the task model and the determinism argument.
"""

from repro.runner.journal import JournalError, RunJournal, task_slug
from repro.runner.orchestrator import (
    DEFAULT_RUNS_DIR,
    RunOutcome,
    add_session_flags,
    execute_run,
    make_run_id,
    run_session,
)
from repro.runner.pool import PoolResult, TaskFailedError, WorkerPool
from repro.runner.spec import RunSpec, SYNTHETIC_PREFIX
from repro.runner.synthetic import (
    SYNTHETIC_GRID,
    build_synthetic_plan,
    synthetic_options,
)
from repro.runner.telemetry import RUNNER_EVENT_KINDS, RunnerTelemetry

__all__ = [
    "JournalError",
    "RunJournal",
    "task_slug",
    "DEFAULT_RUNS_DIR",
    "RunOutcome",
    "add_session_flags",
    "execute_run",
    "make_run_id",
    "run_session",
    "PoolResult",
    "TaskFailedError",
    "WorkerPool",
    "RunSpec",
    "SYNTHETIC_PREFIX",
    "SYNTHETIC_GRID",
    "build_synthetic_plan",
    "synthetic_options",
    "RUNNER_EVENT_KINDS",
    "RunnerTelemetry",
]
