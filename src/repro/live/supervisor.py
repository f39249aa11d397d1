"""Process supervision for the live swarm: restarts, budgets, chaos.

The single-process harness (:mod:`repro.live.harness`) proves protocol
fidelity; this module proves *crash tolerance*. A :class:`LiveSupervisor`
runs the same swarm as real operating-system processes — one
``repro live serve`` collector and ``peer_procs`` multi-peer
``repro live peer`` processes — and watches every child with a monitor
task:

- an **unexpected death** (crash or a chaos SIGKILL) is respawned under a
  :class:`RestartPolicy` budget with exponential backoff and jitter drawn
  from a named RNG substream, so supervision itself is reproducible;
- the **server child** is respawned with its listen port pinned and its
  checkpoint journal in place, so the successor restores the decoder pool
  (:mod:`repro.live.checkpoint`) and resumes the *same* collection
  window — zero accumulated rank lost;
- **peer children** respawn empty-buffered (a killed process loses its
  RAM, exactly like the paper's departing peers) and re-register into the
  running swarm via the reconnect/resume path.

The process-level fault plane executes :class:`repro.faults.plan.FaultPlan`
``process_faults`` as real signals: ``kill-server``/``kill-peers`` are
SIGKILL (no chance to flush anything — the checkpoint discipline has to
carry the day), ``stop-server``/``stop-peers`` are SIGSTOP windows ended
by SIGCONT. Fault onsets are simulated times, converted to wall deadlines
against the swarm epoch the server child reports on stdout (CLOCK_MONOTONIC
is system-wide on Linux, so child and supervisor clocks agree).

Children speak to the supervisor over stdout as JSON lines
(``endpoint`` / ``started`` / ``resumed`` / ``marked`` / ``report``);
stderr tails are retained for post-mortems.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import tempfile
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, AsyncIterator, Deque, Dict, List, Optional, Sequence, Tuple

import repro
from repro.core.params import Parameters
from repro.live import wire
from repro.faults.injector import PROCESS_STREAM, sample_process_cohort
from repro.faults.plan import (
    PROC_KILL_PEERS,
    PROC_KILL_SERVER,
    PROC_STOP_PEERS,
    PROC_STOP_SERVER,
)
from repro.sim.rng import SeedSequenceRegistry
from repro.util.codec import encode

#: Wall seconds of slack on top of the window for the whole campaign
#: (join storms, respawn backoff, reconnect deadlines, decode tail).
DEFAULT_GRACE = 90.0

#: Stderr lines retained per child for failure reports.
STDERR_TAIL = 40


@dataclass(frozen=True)
class RestartPolicy:
    """Respawn budget and backoff shape for one supervised child."""

    #: unexpected deaths tolerated per child before the campaign fails.
    max_restarts: int = 5
    #: first respawn delay (wall seconds), doubled per consecutive death.
    backoff_initial: float = 0.2
    #: backoff ceiling (wall seconds).
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backoff_initial <= 0 or self.backoff_cap <= 0:
            raise ValueError("backoff parameters must be > 0")

    def delay(self, restarts: int, jitter: float) -> float:
        """Backoff before respawn number *restarts* (jitter in [0, 1))."""
        base = min(
            self.backoff_initial * (2.0 ** max(0, restarts - 1)),
            self.backoff_cap,
        )
        return base * (0.5 + 0.5 * jitter)


async def _lines(stream: asyncio.StreamReader) -> AsyncIterator[bytes]:
    """A child pipe's lines until EOF, skipping any over the reader's limit
    through its newline, however many reads it arrives in: the pipe keeps
    draining and no piece of a long line comes back as a line of its own."""
    overlong = False
    while True:
        try:
            line = await stream.readuntil(b"\n")
        except asyncio.IncompleteReadError as eof:
            if eof.partial and not overlong:
                yield eof.partial
            return
        except asyncio.LimitOverrunError as over:
            await stream.readexactly(over.consumed)  # drop what is buffered
            overlong = True
            continue
        if overlong:
            overlong = False  # this read ends the over-long line
            continue
        yield line


class _Child:
    """One supervised subprocess: identity, handle, restart accounting."""

    def __init__(self, name: str, argv: List[str]) -> None:
        self.name = name
        self.argv = argv
        self.proc: Optional["asyncio.subprocess.Process"] = None
        self.restarts = 0
        self.expected_exit = False
        self.failed = False
        self.stderr_tail: Deque[str] = deque(maxlen=STDERR_TAIL)


class LiveSupervisor:
    """Run one measured live window across supervised OS processes."""

    def __init__(
        self,
        params: Parameters,
        seed: int,
        warmup: float,
        duration: float,
        time_scale: float = 1.0,
        peer_procs: int = 4,
        policy: Optional[RestartPolicy] = None,
        host: str = "127.0.0.1",
        grace: float = DEFAULT_GRACE,
    ) -> None:
        # Fail here, not in a server child that would burn its restarts.
        wire.validate_live_params(params, supervised=True)
        if warmup < 0 or duration <= 0:
            raise ValueError(
                f"need warmup >= 0 and duration > 0, got {warmup}, {duration}"
            )
        if not 1 <= peer_procs <= params.n_peers:
            raise ValueError(
                f"peer_procs must be in [1, n_peers], got {peer_procs}"
            )
        self.params = params
        self.seed = seed
        self.warmup = warmup
        self.duration = duration
        self.time_scale = time_scale
        self.peer_procs = peer_procs
        self.policy = policy if policy is not None else RestartPolicy()
        self.host = host
        self.grace = grace
        seeds = SeedSequenceRegistry(seed)
        self._backoff_rng = seeds.python("live:supervisor:backoff")
        self._cohort_rng = seeds.python(PROCESS_STREAM)
        self._children: List[_Child] = []
        self._server: Optional[_Child] = None
        self._peer_children: List[_Child] = []
        self._port: Optional[int] = None
        # Created once the campaign runs inside a loop (see _run_in).
        self._epoch: Optional["asyncio.Future[float]"] = None
        self._report: Optional["asyncio.Future[Dict[str, Any]]"] = None
        self._shutting_down = False
        self._monitor_tasks: List["asyncio.Task[None]"] = []
        self._io_tasks: List["asyncio.Task[None]"] = []
        #: chaos bookkeeping surfaced in the final report extras.
        self.faults_executed: List[Dict[str, Any]] = []

    # -- child plumbing ------------------------------------------------------

    def _child_env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
        return env

    async def _spawn(self, child: _Child) -> None:
        child.proc = await asyncio.create_subprocess_exec(
            *child.argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=self._child_env(),
        )
        self._io_tasks.append(asyncio.create_task(
            self._read_stdout(child, child.proc),
            name=f"supervisor:{child.name}:stdout",
        ))
        self._io_tasks.append(asyncio.create_task(
            self._read_stderr(child, child.proc),
            name=f"supervisor:{child.name}:stderr",
        ))

    async def _read_stdout(
        self, child: _Child, proc: "asyncio.subprocess.Process"
    ) -> None:
        assert proc.stdout is not None
        async for line in _lines(proc.stdout):
            try:
                event = json.loads(line)
                self._on_event(child, event if isinstance(event, dict) else {})
            except (KeyError, TypeError, ValueError):
                continue  # not JSON, or a field of the wrong type

    async def _read_stderr(
        self, child: _Child, proc: "asyncio.subprocess.Process"
    ) -> None:
        assert proc.stderr is not None
        async for line in _lines(proc.stderr):
            child.stderr_tail.append(
                line.decode("utf-8", "replace").rstrip()
            )

    def _on_event(self, child: _Child, event: Dict[str, Any]) -> None:
        kind = event.get("type")
        if child is not self._server:
            return
        if self._port is None and "port" in event and kind is None:
            self._port = int(event["port"])
        elif kind in ("started", "resumed"):
            epoch = event.get("epoch")
            if (
                epoch is not None
                and self._epoch is not None
                and not self._epoch.done()
            ):
                self._epoch.set_result(float(epoch))
        elif kind == "report":
            if self._report is not None and not self._report.done():
                self._report.set_result(dict(event["report"]))

    async def _monitor(self, child: _Child) -> None:
        """Respawn *child* on unexpected death, within the restart budget."""
        while True:
            proc = child.proc
            assert proc is not None
            await proc.wait()
            if self._shutting_down or child.expected_exit:
                return
            if child.restarts >= self.policy.max_restarts:
                child.failed = True
                if self._report is not None and not self._report.done():
                    self._report.set_exception(RuntimeError(
                        f"child {child.name} exhausted its restart budget "
                        f"({self.policy.max_restarts}); last stderr:\n"
                        + "\n".join(child.stderr_tail)
                    ))
                return
            child.restarts += 1
            await asyncio.sleep(self.policy.delay(
                child.restarts, self._backoff_rng.random()
            ))
            if self._shutting_down:
                return
            await self._spawn(child)

    # -- command lines -------------------------------------------------------

    def _serve_argv(
        self, params_file: str, checkpoint: str, port: int
    ) -> List[str]:
        return [
            sys.executable, "-m", "repro", "live", "serve",
            "--seed", str(self.seed),
            "--host", self.host,
            "--port", str(port),
            "--time-scale", str(self.time_scale),
            "--warmup", str(self.warmup),
            "--duration", str(self.duration),
            "--expect-peers", str(self.params.n_peers),
            "--params-json", params_file,
            "--checkpoint", checkpoint,
        ]

    def _peer_argv(self, base_slot: int, count: int) -> List[str]:
        assert self._port is not None
        return [
            sys.executable, "-m", "repro", "live", "peer",
            "--server-host", self.host,
            "--server-port", str(self._port),
            "--slot", str(base_slot),
            "--count", str(count),
        ]

    def _peer_partition(self) -> List[Tuple[int, int]]:
        """Split n_peers slots into peer_procs contiguous (base, count)s."""
        n, k = self.params.n_peers, self.peer_procs
        shares = [n // k + (1 if i < n % k else 0) for i in range(k)]
        parts: List[Tuple[int, int]] = []
        base = 0
        for count in shares:
            parts.append((base, count))
            base += count
        return parts

    # -- the chaos plane -----------------------------------------------------

    async def _execute_faults(self) -> None:
        """Deliver each process fault as a real signal at its sim onset."""
        plan = self.params.faults
        if plan is None or not plan.process_faults:
            return
        assert self._epoch is not None
        epoch = await asyncio.shield(self._epoch)
        loop = asyncio.get_running_loop()
        for kind, at, duration, fraction in plan.process_faults:
            deadline = epoch + at / self.time_scale
            delay = deadline - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self._execute_one(kind, duration, fraction)
            self.faults_executed.append({
                "kind": kind, "at": at,
                "duration": duration, "fraction": fraction,
            })

    async def _execute_one(
        self, kind: str, duration: float, fraction: float
    ) -> None:
        if kind in (PROC_KILL_SERVER, PROC_STOP_SERVER):
            server = self._server
            assert server is not None
            proc = server.proc
            if proc is None or proc.returncode is not None:
                return
            if kind == PROC_KILL_SERVER:
                proc.kill()
            else:
                await self._stop_window(proc, duration)
            return
        cohort = sample_process_cohort(
            self._cohort_rng, fraction, self.peer_procs
        )
        for index in cohort:
            child = self._peer_children[index]
            proc = child.proc
            if proc is None or proc.returncode is not None:
                continue
            if kind == PROC_KILL_PEERS:
                proc.kill()
            elif kind == PROC_STOP_PEERS:
                await self._stop_window(proc, duration)

    async def _stop_window(
        self, proc: "asyncio.subprocess.Process", duration: float
    ) -> None:
        """SIGSTOP now, SIGCONT after *duration* sim units (detached)."""
        try:
            proc.send_signal(signal.SIGSTOP)
        except ProcessLookupError:
            return

        async def _resume() -> None:
            await asyncio.sleep(duration / self.time_scale)
            try:
                proc.send_signal(signal.SIGCONT)
            except ProcessLookupError:
                pass

        self._io_tasks.append(
            asyncio.create_task(_resume(), name="supervisor:sigcont")
        )

    # -- campaign ------------------------------------------------------------

    async def run(self) -> Dict[str, Any]:
        """Run the supervised window end to end; returns the live report."""
        with tempfile.TemporaryDirectory(prefix="repro-live-sup-") as tmp:
            return await self._run_in(Path(tmp))

    async def _run_in(self, tmp: Path) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        self._epoch = loop.create_future()
        self._report = loop.create_future()
        params_file = tmp / "params.json"
        params_file.write_text(json.dumps(encode(self.params)))
        checkpoint = tmp / "server.ckpt"

        self._server = _Child(
            "server", self._serve_argv(str(params_file), str(checkpoint), 0)
        )
        self._children = [self._server]
        try:
            await self._spawn(self._server)
            await self._await_port()
            # Pin the port for every respawn: reconnecting peers re-dial
            # the address they already know.
            self._server.argv = self._serve_argv(
                str(params_file), str(checkpoint), self._port or 0
            )
            for base, count in self._peer_partition():
                child = _Child(
                    f"peers{base}", self._peer_argv(base, count)
                )
                self._peer_children.append(child)
                self._children.append(child)
                await self._spawn(child)
            self._monitor_tasks = [
                asyncio.create_task(
                    self._monitor(child),
                    name=f"supervisor:{child.name}:monitor",
                )
                for child in self._children
            ]
            chaos = asyncio.create_task(
                self._execute_faults(), name="supervisor:chaos"
            )
            self._io_tasks.append(chaos)
            budget = (
                (self.warmup + self.duration) / self.time_scale + self.grace
            )
            assert self._report is not None
            report = await asyncio.wait_for(
                asyncio.shield(self._report), timeout=budget
            )
        except asyncio.TimeoutError:
            raise RuntimeError(
                "supervised swarm missed its wall-clock budget; server "
                "stderr:\n"
                + "\n".join(
                    self._server.stderr_tail if self._server else []
                )
            ) from None
        finally:
            await self._teardown()
        report.setdefault("supervised", True)
        report["peer_proc_restarts"] = sum(
            child.restarts for child in self._peer_children
        )
        report["supervisor_server_restarts"] = self._server.restarts
        report["process_faults_executed"] = list(self.faults_executed)
        return report

    async def _await_port(self, timeout: float = 30.0) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._port is None:
            if loop.time() > deadline:
                raise RuntimeError(
                    "server child never reported its endpoint; stderr:\n"
                    + "\n".join(
                        self._server.stderr_tail if self._server else []
                    )
                )
            await asyncio.sleep(0.02)

    async def _teardown(self) -> None:
        self._shutting_down = True
        for child in self._children:
            child.expected_exit = True
            proc = child.proc
            if proc is not None and proc.returncode is None:
                # SIGCONT first: a SIGSTOPped child cannot act on SIGKILL
                # bookkeeping (wait() would hang on a stopped zombie).
                try:
                    proc.send_signal(signal.SIGCONT)
                except ProcessLookupError:
                    pass
                proc.kill()
        for child in self._children:
            if child.proc is not None:
                try:
                    await asyncio.wait_for(child.proc.wait(), timeout=10.0)
                except asyncio.TimeoutError:
                    pass
        for task in [*self._monitor_tasks, *self._io_tasks]:
            task.cancel()
        await asyncio.gather(
            *self._monitor_tasks, *self._io_tasks, return_exceptions=True
        )


def supervised_cell(
    params: Parameters,
    seed: int,
    warmup: float,
    duration: float,
    time_scale: float = 1.0,
    peer_procs: int = 4,
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Synchronous supervised cell shaped like ``live_cell``."""
    report = asyncio.run(LiveSupervisor(
        params, seed, warmup, duration,
        time_scale=time_scale, peer_procs=peer_procs,
    ).run())
    if metrics is None:
        return report
    return {name: report.get(name) for name in metrics}


__all__ = [
    "DEFAULT_GRACE",
    "LiveSupervisor",
    "RestartPolicy",
    "supervised_cell",
]
