"""The five end-to-end workloads and how one run of each is measured.

Every workload is driven through the program's public API only.  The four
simulator workloads are closed batch jobs (a fixed amount of simulated time
at a stated size); ``live_swarm`` is an open loop: the peers' and servers'
own Poisson schedules offer a fixed rate whatever the process can sustain.

Sizes are given for ``--seconds 20`` and scale linearly with ``--seconds``
(one common factor for every warm-up and window), so the same seed and the
same ``--seconds`` always run the same work.  The window after warm-up is
cut into :data:`CHUNKS` equal pieces of simulated time that are timed one by
one; correctness checks run between them, outside the timers.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adversary.plan import AdversaryPlan
from repro.coding.block import SegmentDescriptor
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.fastsim.engine import TauLeapStepper
from repro.fastsim.system import FastCollectionSystem
from repro.faults.plan import FaultPlan
from repro.live.clock import LiveClock
from repro.live.harness import JOIN_TIMEOUT, START_BATCH, START_DELAY
from repro.live.livemetrics import aggregate_report
from repro.live.peer import LivePeer
from repro.live.server import LiveLoggingServer
from repro.stats.workload import DiurnalWorkload

from bench.trace import Tracer

CHUNKS = 20
NOMINAL_SECONDS = 20.0

#: Simulated units per wall second of the live swarm: at 0.5 the 128-peer
#: swarm keeps one core about half busy, so busy time is what is measured,
#: not a schedule that has stalled.
LIVE_TIME_SCALE = 0.5
LIVE_HOST = "127.0.0.1"
#: A swarm of 128 peers closes in about 50 ms.
CLOSE_TIMEOUT = 2.0
#: Period of the benchmark's own sleeper that measures event-loop lag.
LAG_PERIOD = 0.010


@dataclass
class Measurement:
    """Raw outcome of one measured window."""

    setup_s: List[float]
    #: per timed chunk: (cpu seconds, wall seconds, simulated units)
    laps: List[Tuple[float, float, float]]
    #: per timed chunk: the tracer's span delta (traced runs only)
    deltas: List[Dict[str, Any]]
    report: Dict[str, Any]
    counters: Dict[str, Any]
    attempted: int
    failed: int
    digest: Optional[str]


def report_digest(report: Dict[str, float]) -> str:
    """SHA-256 of the report's sorted JSON: equal digests, equal statistics."""
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# -- simulator sessions ---------------------------------------------------------


def payload_rows(seed: int, descriptor: SegmentDescriptor, length: int) -> np.ndarray:
    """The original rows of one segment, regenerable from its identity."""
    rng = np.random.default_rng([seed, descriptor.segment_id])
    return rng.integers(0, 256, size=(descriptor.size, length), dtype=np.uint8)


class EventSession:
    """A :class:`CollectionSystem` driven chunk by chunk."""

    def __init__(
        self, params: Parameters, seed: int, workload: Any = None
    ) -> None:
        self._seed = seed
        self._length = params.payload_bytes
        provider = self._payloads if params.payload_bytes else None
        self.system = CollectionSystem(
            params, seed=seed, workload=workload, payload_provider=provider
        )
        self._decoded_before: frozenset = frozenset()
        self._perf = self.system.engine_perf()

    def _payloads(self, descriptor: SegmentDescriptor) -> np.ndarray:
        return payload_rows(self._seed, descriptor, self._length)

    def warm_up(self, units: float) -> None:
        self.system.run_until(self.system.now + units)

    def begin_window(self) -> None:
        self.system.metrics.begin_window(self.system.now)
        self._decoded_before = frozenset(self.system.collected_data)
        self._perf = self.system.engine_perf()

    def advance(self, units: float) -> None:
        self.system.run_until(self.system.now + units)

    def check(self) -> None:
        self.system.consistency_check()

    def report(self) -> Dict[str, float]:
        system = self.system
        return system.metrics.report(
            system.now, engine=system.engine_perf()
        ).as_dict()

    def counters(self) -> Dict[str, float]:
        perf = self.system.engine_perf()
        return {
            "events_fired": perf.events_fired - self._perf.events_fired,
            "events_cancelled": perf.events_cancelled - self._perf.events_cancelled,
            "heap_compactions": perf.heap_compactions - self._perf.heap_compactions,
        }

    def verify(self) -> Tuple[int, int]:
        """Segments decoded in the window, and how many decoded wrongly."""
        decoded = [
            entry
            for segment_id, entry in self.system.collected_data.items()
            if segment_id not in self._decoded_before
        ]
        wrong = sum(
            not np.array_equal(rows, self._payloads(descriptor))
            for descriptor, rows in decoded
        )
        return len(decoded), wrong


class FastSession:
    """A :class:`FastCollectionSystem` under the tau-leap stepper, driven the
    way ``FastCollectionSystem.run`` drives it but chunk by chunk."""

    def __init__(self, params: Parameters, seed: int) -> None:
        self.system = FastCollectionSystem(params, seed=seed)
        self._stepper = TauLeapStepper(self.system, params.tau)
        self._events = 0

    def warm_up(self, units: float) -> None:
        self._stepper.run_until(self.system.now + units)

    def begin_window(self) -> None:
        self.system.push_averages(self.system.now, segments=True)
        self.system.metrics.begin_window(self.system.now)
        self._events = self.system.events_applied

    def advance(self, units: float) -> None:
        self._stepper.run_until(self.system.now + units)

    def check(self) -> None:
        self.system.consistency_check()

    def report(self) -> Dict[str, float]:
        self.system.push_averages(self.system.now, segments=True)
        return self.system.report().as_dict()

    def counters(self) -> Dict[str, float]:
        return {"events_applied": self.system.events_applied - self._events}

    def verify(self) -> Tuple[int, int]:
        return 0, 0


def measure_simulator(
    make_session: Callable[[], Any],
    warmup: float,
    window: float,
    n_chunks: int,
    tracer: Optional[Tracer],
    setups: int,
) -> Measurement:
    """Set up *setups* times, then time *n_chunks* chunks of the window."""
    setup_s: List[float] = []
    session: Any = None
    for _ in range(setups):
        if session is not None:
            session = None
            gc.collect()  # the discarded system must not count as peak memory
        start = time.perf_counter()
        session = make_session()
        session.warm_up(warmup)
        setup_s.append(time.perf_counter() - start)

    chunk = window / CHUNKS
    laps: List[Tuple[float, float, float]] = []
    deltas: List[Dict[str, Any]] = []
    attempted = failed = 0
    session.begin_window()
    for _ in range(n_chunks):
        before = tracer.snapshot() if tracer else None
        cpu, wall = time.process_time(), time.perf_counter()
        session.advance(chunk)
        laps.append(
            (time.process_time() - cpu, time.perf_counter() - wall, chunk)
        )
        if tracer is not None and before is not None:
            deltas.append(tracer.since(before))
        attempted += 1
        try:
            session.check()
        except AssertionError as error:  # InvariantViolation subclasses it
            failed += 1
            print(f"invariant violated: {error}", file=sys.stderr)
    report = session.report()
    decoded, wrong = session.verify()
    counters = session.counters()
    return Measurement(
        setup_s=setup_s,
        laps=laps,
        deltas=deltas,
        report=report,
        counters=counters,
        attempted=attempted + decoded,
        failed=failed + wrong,
        digest=report_digest(report),
    )


# -- live swarm -------------------------------------------------------------------


class _Swarm:
    """One logging server and its in-process peers on loopback TCP, driven
    through the same public calls as ``repro.live.harness.run_swarm``."""

    def __init__(self, params: Parameters, seed: int) -> None:
        self.params = params
        self.clock = LiveClock(LIVE_TIME_SCALE)
        self.server = LiveLoggingServer(
            params, seed, clock=self.clock, host=LIVE_HOST
        )
        self.peers: List[LivePeer] = []
        self._seed = seed
        self.join_s = 0.0

    async def start(self, warmup: float) -> None:
        """Start, wait until every peer is registered, begin, warm up."""
        start = time.perf_counter()
        await self.server.start()
        for slot in range(self.params.n_peers):
            self.peers.append(
                LivePeer(
                    slot, self.params, self._seed, LIVE_HOST, self.server.port,
                    clock=self.clock, listen_host=LIVE_HOST,
                )
            )
        for base in range(0, len(self.peers), START_BATCH):
            batch = self.peers[base : base + START_BATCH]
            await asyncio.gather(*(peer.start() for peer in batch))
        await self.server.wait_for_peers(
            self.params.n_peers, timeout=JOIN_TIMEOUT
        )
        self.join_s = time.perf_counter() - start
        await self.server.begin(START_DELAY)
        await asyncio.sleep(START_DELAY + self.clock.wall_interval(warmup))

    async def close(self) -> None:
        await asyncio.gather(
            *(_close_peer(peer) for peer in self.peers), return_exceptions=True
        )
        await self.server.close()


async def _close_peer(peer: LivePeer) -> None:
    """``LivePeer.close()`` that cannot wait forever.

    On Python < 3.12 ``asyncio.wait_for`` raises TimeoutError instead of
    CancelledError when its timeout fires in the same loop iteration as the
    cancellation; the peer's expiry loop then swallows the cancel and
    ``close()`` waits for it forever (about 1 teardown in 50 here).  Timing
    the close out cancels the stuck task a second time; the second
    ``close()`` then finishes the teardown.
    """
    for _ in range(3):
        try:
            await asyncio.wait_for(peer.close(), CLOSE_TIMEOUT)
            return
        except asyncio.TimeoutError:
            continue


async def _sample_loop_lag(samples: List[float]) -> None:
    """How late the loop wakes a task that asked for LAG_PERIOD of sleep."""
    loop = asyncio.get_running_loop()
    while True:
        asked = loop.time()
        await asyncio.sleep(LAG_PERIOD)
        samples.append(loop.time() - asked - LAG_PERIOD)


async def _measure_live(
    params: Parameters,
    seed: int,
    warmup: float,
    window: float,
    n_chunks: int,
    tracer: Optional[Tracer],
    setups: int,
) -> Measurement:
    setup_s: List[float] = []
    swarm: Optional[_Swarm] = None
    sampler: Optional["asyncio.Task[None]"] = None
    try:
        for _ in range(setups):
            if swarm is not None:
                await swarm.close()
            start = time.perf_counter()
            swarm = _Swarm(params, seed)
            await swarm.start(warmup)
            setup_s.append(time.perf_counter() - start)
        assert swarm is not None
        server, clock = swarm.server, swarm.clock

        lag: List[float] = []
        if tracer is not None:
            sampler = asyncio.ensure_future(_sample_loop_lag(lag))
        chunk = window / CHUNKS
        laps: List[Tuple[float, float, float]] = []
        deltas: List[Dict[str, Any]] = []
        loop = asyncio.get_running_loop()
        await server.mark()
        mark_at = clock.now()
        deadline = loop.time()
        for _ in range(n_chunks):
            # Absolute deadlines: a late chunk does not push the next one.
            deadline += clock.wall_interval(chunk)
            before = tracer.snapshot() if tracer else None
            cpu, wall = time.process_time(), time.perf_counter()
            await asyncio.sleep(max(0.0, deadline - loop.time()))
            laps.append(
                (time.process_time() - cpu, time.perf_counter() - wall, chunk)
            )
            if tracer is not None and before is not None:
                deltas.append(tracer.since(before))
        await server.stop_protocol()
        stop_at = clock.now()
        if sampler is not None:
            sampler.cancel()
        summaries = [
            await server.request_metrics(slot)
            for slot in range(params.n_peers)
        ]
        span = stop_at - mark_at
        report = aggregate_report(
            params, span, server.stats.summary(stop_at, span), summaries
        )
        return Measurement(
            setup_s=setup_s,
            laps=laps,
            deltas=deltas,
            report=report,
            counters={"join_s": swarm.join_s, "loop_lag": lag},
            attempted=report["hash_verified"] + report["hash_failures"],
            failed=report["hash_failures"],
            digest=None,
        )
    finally:
        if sampler is not None:
            sampler.cancel()
        if swarm is not None:
            await swarm.close()


# -- the five workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One workload: its inputs, and its size at NOMINAL_SECONDS."""

    name: str
    why: str
    warmup: float
    window: float
    params: Parameters
    #: (params, seed, window) -> simulator session; None for the live swarm
    session: Optional[Callable[[Parameters, int, float], Any]]


def measure(
    spec: Spec,
    seed: int,
    seconds: float,
    n_chunks: int = CHUNKS,
    tracer: Optional[Tracer] = None,
    setups: int = 1,
) -> Measurement:
    """Set up *setups* times, then time the first *n_chunks* chunks."""
    scale = seconds / NOMINAL_SECONDS
    warmup, window = spec.warmup * scale, spec.window * scale
    if spec.session is None:
        return asyncio.run(
            _measure_live(
                spec.params, seed, warmup, window, n_chunks, tracer, setups
            )
        )
    session = spec.session
    return measure_simulator(
        lambda: session(spec.params, seed, window),
        warmup, window, n_chunks, tracer, setups,
    )


def _figure_params(n_peers: int, **overrides: Any) -> Parameters:
    """The rates of the ``full`` experiment preset."""
    return Parameters(
        n_peers=n_peers,
        arrival_rate=20.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=8.0,
        segment_size=20,
        n_servers=4,
        **overrides,
    )


_ABSTRACT = _figure_params(250)
_RLNC = _figure_params(100, mode="rlnc", payload_bytes=256)
_HOSTILE = _figure_params(
    250,
    mean_lifetime=5.0,
    # Ten percent downtime, one percent of the peers burst-killed and a quarter
    # percent turned sybil per unit time, as many short events rather than a
    # few long ones: with a handful of unit-long outages per window, their
    # Poisson count alone moved normalized_throughput by 6 % between seeds.
    faults=FaultPlan(
        gossip_loss_rate=0.05,
        pull_loss_rate=0.05,
        pollution_fraction=0.05,
        outage_rate=0.5,
        outage_duration=0.2,
        burst_rate=0.5,
        burst_fraction=0.02,
    ),
    adversary=AdversaryPlan(
        liar_fraction=0.05,
        freerider_fraction=0.05,
        polluter_fraction=0.05,
        sybil_rate=0.25,
        sybil_fraction=0.01,
    ),
    pull_scoring=True,
    advert_discounting=True,
)
_FAST = Parameters(
    n_peers=100_000,
    arrival_rate=6.0,
    gossip_rate=8.0,
    deletion_rate=1.0,
    normalized_capacity=8.0,
    segment_size=5,
    engine="fast",
    tau=0.05,
)
_LIVE = Parameters(
    n_peers=128,
    arrival_rate=2.0,
    gossip_rate=4.0,
    deletion_rate=1.0,
    normalized_capacity=2.0,
    segment_size=4,
    n_servers=2,
    mode="rlnc",
    payload_bytes=256,
)

SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "event_abstract",
            "what every figure/theorem experiment runs: engine and protocol "
            "bookkeeping do all the work, coding none",
            10.0, 100.0, _ABSTRACT,
            lambda params, seed, window: EventSession(params, seed),
        ),
        Spec(
            "event_rlnc",
            "real GF(256) recode/decode on every gossip and pull: coding "
            "dominates, the engine barely shows; decodes are verified",
            10.0, 50.0, _RLNC,
            lambda params, seed, window: EventSession(params, seed),
        ),
        Spec(
            "event_hostile",
            "same engine and core under churn, faults, adversaries, defenses "
            "and a diurnal load: punishes fast paths that assume none",
            10.0, 100.0, _HOSTILE,
            # One diurnal cycle per timed chunk, so the chunks are comparable.
            lambda params, seed, window: EventSession(
                params, seed, DiurnalWorkload(20.0, 0.5, window / CHUNKS)
            ),
        ),
        Spec(
            "fastsim_100k",
            "numpy kernels over struct-of-arrays state do all the work; the "
            "only workload where peak memory is material",
            5.0, 20.0, _FAST,
            lambda params, seed, window: FastSession(params, seed),
        ),
        Spec(
            "live_swarm",
            "128 real TCP peers in one asyncio loop at a fixed offered load: "
            "the only workload exercising framing, transport and asyncio",
            2.0, 10.0, _LIVE, None,
        ),
    )
}
