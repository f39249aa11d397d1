"""Crash-isolated worker pool for task-grid execution.

One OS process per worker, one dedicated duplex pipe per worker — the
parent always knows exactly which task a worker holds, which is what the
stock ``ProcessPoolExecutor`` cannot tell you and why it cannot kill a
hung task.  The protocol is deliberately tiny:

parent -> worker   ``task_id`` (str) to execute, or ``None`` to shut down
worker -> parent   ``("ok", task_id, payload, meta)`` or
                   ``("err", task_id, msg)``

``meta`` carries host-side telemetry about the execution (currently the
worker's ``ru_maxrss`` high-water mark).  It feeds the journal's
``task-done`` events and NEVER the payload — payloads stay pure functions
of the task cell so merges remain byte-identical across hosts.

Fault handling, all targeted at the single offending worker:

- **crash** (worker process dies mid-task — segfault, ``os._exit``,
  OOM-kill): the parent sees EOF on that worker's pipe, requeues the
  task, and respawns the worker;
- **timeout** (task exceeds ``task_timeout``): the parent terminates the
  worker, requeues the task, respawns;
- **error** (the task raised): the worker survives and reports the
  exception; the task is requeued.

Each task gets at most ``retries`` re-executions; exhausting them raises
:class:`TaskFailedError` with the failure history.  Workers rebuild the
task grid from the :class:`RunSpec` handshake, so nothing unpicklable
ever crosses a pipe and the pool works under both fork and spawn start
methods.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass, field
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.runner.spec import RunSpec
from repro.util.codec import decode, encode
from repro.runner.telemetry import (
    KIND_TASK_DISPATCH,
    KIND_TASK_DONE,
    KIND_TASK_RETRY,
    KIND_TASK_FAILED,
    KIND_WORKER_CRASH,
    KIND_WORKER_SPAWN,
    KIND_WORKER_TIMEOUT,
    RunnerTelemetry,
)

#: Seconds between liveness/timeout sweeps while waiting on worker pipes.
_POLL_INTERVAL = 0.1
#: Seconds to wait for a worker to exit after a polite shutdown request.
_JOIN_GRACE = 2.0


class TaskFailedError(Exception):
    """A task exhausted its retry budget; carries the failure history."""

    def __init__(self, task_id: str, history: List[str]) -> None:
        detail = "; ".join(history)
        super().__init__(
            f"task {task_id!r} failed after {len(history)} attempt(s): "
            f"{detail}"
        )
        self.task_id = task_id
        self.history = history


def _worker_meta() -> Dict[str, Any]:
    """Host-side execution telemetry attached to each ``ok`` message.

    ``ru_maxrss`` is the worker process's lifetime peak resident set (KiB
    on Linux) — a high-water mark, so for a worker running several tasks
    each report is the max over the tasks so far.  Platforms without
    ``resource`` (Windows) report no meta.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return {}
    return {
        "max_rss_kb": int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ),
    }


def worker_main(
    spec_json: str, conn: "multiprocessing.connection.Connection[Any, Any]"
) -> None:
    """Worker entry point: rebuild the plan, then serve task requests."""
    spec = decode(RunSpec, json.loads(spec_json))
    plan = spec.build_plan()
    tasks = {task.task_id: task for task in plan.tasks}
    while True:
        request = conn.recv()
        if request is None:
            conn.close()
            return
        task_id = str(request)
        try:
            task = tasks[task_id]
            payload = task.run()
        except BaseException as exc:  # report, survive, await next task
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            conn.send(("err", task_id, f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("ok", task_id, payload, _worker_meta()))


@dataclass
class _Worker:
    """Parent-side handle of one pool worker."""

    index: int
    process: BaseProcess
    conn: "multiprocessing.connection.Connection[Any, Any]"
    current_task: Optional[str] = None
    started_at: float = 0.0
    attempt: int = 0


@dataclass
class PoolResult:
    """What one pool session produced."""

    payloads: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    attempts: Dict[str, int] = field(default_factory=dict)
    stopped_early: bool = False


class WorkerPool:
    """Execute task ids on crash-isolated workers; see module docstring.

    ``on_task_done(task_id, payload, attempts, elapsed)`` fires in the
    parent as each task completes (journaling hook); ``stop_after`` ends
    the session cleanly once that many tasks have completed *in this
    session* — the deterministic stand-in for an operator's Ctrl-C that
    the checkpoint/resume tests drive.
    """

    def __init__(
        self,
        spec: RunSpec,
        n_workers: int,
        telemetry: RunnerTelemetry,
        task_timeout: Optional[float] = None,
        retries: int = 2,
        on_task_done: Optional[
            Callable[[str, Dict[str, Any], int, float], None]
        ] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._spec_json = json.dumps(encode(spec), allow_nan=False)
        self.n_workers = n_workers
        self.task_timeout = task_timeout
        self.retries = retries
        self._telemetry = telemetry
        self._on_task_done = on_task_done
        self._context = multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._next_worker_index = 0

    # ---- worker lifecycle ------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        index = self._next_worker_index
        self._next_worker_index += 1
        process = self._context.Process(
            target=worker_main,
            args=(self._spec_json, child_conn),
            name=f"repro-runner-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(index=index, process=process, conn=parent_conn)
        self._telemetry.emit(KIND_WORKER_SPAWN, worker=index)
        return worker

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(_JOIN_GRACE)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(_JOIN_GRACE)

    def _shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        deadline = time.monotonic() + _JOIN_GRACE
        for worker in self._workers:
            worker.process.join(max(deadline - time.monotonic(), 0.0))
        for worker in self._workers:
            self._kill_worker(worker)
        self._workers = []

    # ---- failure bookkeeping --------------------------------------------

    def _register_failure(
        self,
        queue: Deque[str],
        attempts: Dict[str, int],
        history: Dict[str, List[str]],
        task_id: str,
        reason: str,
    ) -> None:
        history.setdefault(task_id, []).append(reason)
        if attempts[task_id] > self.retries:
            self._telemetry.emit(
                KIND_TASK_FAILED, task=task_id, reason=reason
            )
            raise TaskFailedError(task_id, history[task_id])
        self._telemetry.emit(KIND_TASK_RETRY, task=task_id, reason=reason)
        queue.appendleft(task_id)

    # ---- main loop -------------------------------------------------------

    def run(
        self,
        task_ids: List[str],
        stop_after: Optional[int] = None,
    ) -> PoolResult:
        """Execute *task_ids*; returns payloads keyed by task id."""
        queue: Deque[str] = deque(task_ids)
        attempts: Dict[str, int] = {task_id: 0 for task_id in task_ids}
        history: Dict[str, List[str]] = {}
        result = PoolResult()
        if not task_ids:
            return result

        self._workers = [
            self._spawn_worker()
            for _ in range(min(self.n_workers, len(task_ids)))
        ]
        try:
            while True:
                stopping = (
                    stop_after is not None
                    and len(result.payloads) >= stop_after
                )
                if stopping:
                    result.stopped_early = bool(queue) or any(
                        w.current_task is not None for w in self._workers
                    )
                    break
                if not queue and all(
                    w.current_task is None for w in self._workers
                ):
                    break

                # Dispatch to every idle worker while tasks remain.
                for worker in list(self._workers):
                    if worker.current_task is None and queue:
                        task_id = queue.popleft()
                        attempts[task_id] += 1
                        worker.current_task = task_id
                        worker.attempt = attempts[task_id]
                        worker.started_at = time.monotonic()
                        try:
                            worker.conn.send(task_id)
                        except (OSError, ValueError):
                            # Worker died before accepting work.
                            self._replace_crashed(
                                worker, queue, attempts, history,
                                "worker rejected dispatch",
                            )
                            continue
                        self._telemetry.emit(
                            KIND_TASK_DISPATCH,
                            task=task_id,
                            worker=worker.index,
                            attempt=worker.attempt,
                        )

                busy = [w for w in self._workers if w.current_task is not None]
                if not busy:
                    continue
                ready = multiprocessing.connection.wait(
                    [w.conn for w in busy], timeout=_POLL_INTERVAL
                )
                ready_set = set(ready)
                for worker in list(self._workers):
                    if worker.current_task is None:
                        continue
                    if worker.conn in ready_set:
                        self._collect(worker, queue, attempts, history, result)
                    elif self._timed_out(worker):
                        self._replace_timed_out(
                            worker, queue, attempts, history
                        )
                    elif not worker.process.is_alive():
                        # Died without final output reaching the pipe.
                        self._replace_crashed(
                            worker, queue, attempts, history,
                            "worker process died",
                        )
        finally:
            self._shutdown()
        result.attempts = attempts
        return result

    def _timed_out(self, worker: _Worker) -> bool:
        if self.task_timeout is None:
            return False
        return (time.monotonic() - worker.started_at) > self.task_timeout

    def _collect(
        self,
        worker: _Worker,
        queue: Deque[str],
        attempts: Dict[str, int],
        history: Dict[str, List[str]],
        result: PoolResult,
    ) -> None:
        task_id = worker.current_task
        assert task_id is not None
        try:
            message: Tuple[Any, ...] = worker.conn.recv()
        except (EOFError, OSError):
            # Pipe broke between wait() and recv(): a mid-task crash.
            self._replace_crashed(
                worker, queue, attempts, history,
                "worker pipe closed mid-task",
            )
            return
        worker.current_task = None
        status, reported_id, body = message[0], message[1], message[2]
        meta: Dict[str, Any] = dict(message[3]) if len(message) > 3 else {}
        elapsed = time.monotonic() - worker.started_at
        if status == "ok":
            result.payloads[reported_id] = dict(body)
            self._telemetry.emit(
                KIND_TASK_DONE,
                task=reported_id,
                worker=worker.index,
                attempt=attempts[reported_id],
                elapsed_seconds=elapsed,
                peak_rss_kb=meta.get("max_rss_kb"),
            )
            if self._on_task_done is not None:
                self._on_task_done(
                    reported_id, dict(body), attempts[reported_id], elapsed
                )
        else:
            self._register_failure(
                queue, attempts, history, reported_id, str(body)
            )

    def _replace_timed_out(
        self,
        worker: _Worker,
        queue: Deque[str],
        attempts: Dict[str, int],
        history: Dict[str, List[str]],
    ) -> None:
        """Kill a hung worker, requeue its task, spawn a replacement."""
        task_id = worker.current_task
        assert task_id is not None
        self._telemetry.emit(
            KIND_WORKER_TIMEOUT,
            worker=worker.index,
            task=task_id,
            timeout_seconds=self.task_timeout,
        )
        self._kill_worker(worker)
        self._workers.remove(worker)
        self._workers.append(self._spawn_worker())
        self._register_failure(
            queue, attempts, history, task_id,
            f"timed out after {self.task_timeout}s",
        )

    def _replace_crashed(
        self,
        worker: _Worker,
        queue: Deque[str],
        attempts: Dict[str, int],
        history: Dict[str, List[str]],
        reason: str,
    ) -> None:
        """Reap a dead worker, requeue its task, spawn a replacement."""
        task_id = worker.current_task
        assert task_id is not None
        exit_code = worker.process.exitcode
        self._telemetry.emit(
            KIND_WORKER_CRASH,
            worker=worker.index,
            task=task_id,
            exitcode=exit_code,
        )
        self._kill_worker(worker)
        self._workers.remove(worker)
        self._workers.append(self._spawn_worker())
        self._register_failure(
            queue, attempts, history, task_id,
            f"{reason} (exitcode {exit_code})",
        )
