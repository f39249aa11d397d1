"""The indirect collection system: full wiring of the Sec. 2 protocol.

:class:`CollectionSystem` assembles every component — peers with TTL-aged
buffers, the gossip protocol, the coupon-collector server pool, the segment
registry, optional churn, and optional time-varying workloads — on top of
the discrete-event engine, and exposes the measurement lifecycle the
experiments drive.

Fidelity modes (``Parameters.mode``):

- ``"abstract"`` — blocks are bare tokens (edges of the Sec. 3 bipartite
  graph); every coded block is assumed innovative, exactly as the paper's
  analysis assumes.  Fast; used for all figure-scale simulations.
- ``"rlnc"`` — blocks carry real GF(2^8) coefficient vectors (and optionally
  payload bytes); innovation is decided by actual rank arithmetic and
  completed segments can be decoded back into the original statistics data.

Every Poisson clock of the model is an independent exponential timer:

====================== ============================ =======================
process                rate                         per
====================== ============================ =======================
segment injection      λ/s (or workload(t)/s)       peer
gossip transmission    μ                            peer
server pull            c_s = c·N/N_s                server
block TTL expiry       γ                            block
churn departure        1/L                          peer slot
====================== ============================ =======================
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coding.block import (
    CodedBlock,
    SegmentDescriptor,
    make_abstract_blocks,
    make_source_blocks,
)
from repro.adversary.defense import PullSourceScorer
from repro.adversary.injector import AdversaryInjector
from repro.core.gossip import GossipProtocol
from repro.core.params import MODE_RLNC, Parameters
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry, SegmentState
from repro.core.server import ServerPool
from repro.faults.injector import FaultInjector
from repro.sim.churn import ChurnModel
from repro.sim.engine import (
    EnginePerf,
    PoissonProcess,
    Simulator,
    ThinnedPoissonProcess,
)
from repro.sim.metrics import MetricsCollector, MetricsReport
from repro.sim.rng import SeedSequenceRegistry
from repro.sim.topology import CompleteTopology, Topology
from repro.sim.trace import (
    KIND_BURST,
    KIND_COLLECT,
    KIND_COMPLETE,
    KIND_DEPART,
    KIND_DROP,
    KIND_EXPIRE,
    KIND_GOSSIP,
    KIND_INJECT,
    KIND_LOST,
    KIND_SYBIL,
    Tracer,
)
from repro.stats.workload import Workload
from repro.util.randomset import RandomizedSet

PayloadProvider = Callable[[SegmentDescriptor], np.ndarray]


class SourceRecovery:
    """Aggregate recovery accounting over a set of source generations.

    Three progressively weaker notions of "the servers have the data":

    - ``delivered`` — originals of fully reconstructed segments,
    - ``collected`` — coded blocks usefully pulled (the paper's intake
      metric; includes partial segments),
    - ``recoverable`` — originals of live incomplete segments the servers
      can still finish from network-buffered blocks.
    """

    __slots__ = ("injected", "delivered", "recoverable", "collected")

    def __init__(
        self,
        injected: int = 0,
        delivered: int = 0,
        recoverable: int = 0,
        collected: int = 0,
    ) -> None:
        self.injected = injected
        self.delivered = delivered
        self.recoverable = recoverable
        self.collected = collected

    @property
    def delivered_fraction(self) -> float:
        """Originals already reconstructed at the servers / originals made."""
        return self.delivered / self.injected if self.injected else 0.0

    @property
    def collected_fraction(self) -> float:
        """Usefully collected coded blocks / originals made (intake)."""
        return self.collected / self.injected if self.injected else 0.0

    def __repr__(self) -> str:
        return (
            f"SourceRecovery(injected={self.injected}, "
            f"delivered={self.delivered}, recoverable={self.recoverable}, "
            f"collected={self.collected})"
        )


class PostmortemReport:
    """Recovery accounting split by whether the source peer has departed.

    This operationalizes the Sec. 1 motivation: "statistics from departed
    peers may be the most useful to diagnose system outages" — the indirect
    design keeps such data collectable because coded copies outlive their
    source, whereas a direct design loses a departing peer's backlog.
    """

    __slots__ = ("departed", "live")

    def __init__(self, departed: SourceRecovery, live: SourceRecovery) -> None:
        self.departed = departed
        self.live = live

    def __repr__(self) -> str:
        return f"PostmortemReport(departed={self.departed}, live={self.live})"


class MeasuredRun:
    """The measurement lifecycle every event-engine system shares: warm up,
    then open a metric window, run it and report."""

    sim: Simulator
    metrics: MetricsCollector

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def run(self, warmup: float, duration: float) -> MetricsReport:
        """Warm up, measure for *duration*, and return the window's report."""
        if warmup < 0 or duration <= 0:
            raise ValueError(
                f"need warmup >= 0 and duration > 0, got {warmup}, {duration}"
            )
        if warmup > 0:
            self.sim.run_until(self.sim.now + warmup)
        return self.run_phase(duration)

    def run_phase(self, duration: float) -> MetricsReport:
        """Open a fresh measurement window, run *duration*, and report.

        Successive phases let an experiment watch regimes evolve (e.g. a
        flash crowd burst, then the post-burst drain of Theorem 4).
        """
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.metrics.begin_window(self.sim.now)
        self.sim.run_until(self.sim.now + duration)
        return self.metrics.report(self.sim.now, engine=self.sim.perf())

    def run_until(self, end_time: float) -> None:
        """Advance raw simulation time without touching metric windows."""
        self.sim.run_until(end_time)


class CollectionSystem(MeasuredRun):
    """One simulated collection session.

    Args:
        params: Protocol configuration (see :class:`Parameters`).
        seed: Root seed; identical seeds give bit-identical runs.
        workload: Optional time-varying per-peer generation profile; when
            omitted, injection is homogeneous Poisson at rate λ/s.
        topology: Optional overlay; defaults to the mean-field complete
            graph the paper analyzes.
        payload_provider: RLNC mode only — returns the ``(s, payload_bytes)``
            original data rows for each injected segment.  Defaults to
            uniformly random bytes.

    Typical use::

        system = CollectionSystem(params, seed=1)
        report = system.run(warmup=10.0, duration=20.0)
        print(report.normalized_throughput)
    """

    def __init__(
        self,
        params: Parameters,
        seed: int = 0,
        workload: Optional[Workload] = None,
        topology: Optional[Topology] = None,
        payload_provider: Optional[PayloadProvider] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.params = params
        self.tracer = tracer
        self.seeds = SeedSequenceRegistry(seed)
        self.sim = Simulator()
        self.topology = topology or CompleteTopology(params.n_peers)
        if self.topology.n_slots != params.n_peers:
            raise ValueError(
                f"topology has {self.topology.n_slots} slots but parameters "
                f"specify {params.n_peers} peers"
            )
        self.workload = workload
        self._rlnc = params.mode == MODE_RLNC
        #: bound once: every pending TTL entry holds it, and a bound method
        #: per entry is one more tracked object per buffered block.
        self._expire = self._expire_block
        if payload_provider is not None and not self._rlnc:
            raise ValueError("payload_provider requires mode='rlnc'")
        self._payload_provider = payload_provider
        if self._rlnc and params.payload_bytes and payload_provider is None:
            self._payload_provider = self._random_payloads

        # Named RNG substreams: adding a component never shifts the others.
        self._injection_rng = self.seeds.python("injection")
        self._gossip_rng = self.seeds.python("gossip")
        self._server_rng = self.seeds.python("server")
        self._ttl_rng = self.seeds.python("ttl")
        self._churn_rng = self.seeds.python("churn")
        self._selection_rng = self.seeds.python("selection")
        self._coding_rng = self.seeds.numpy("coding")

        self.metrics = MetricsCollector(
            n_peers=params.n_peers,
            arrival_rate=params.arrival_rate,
            segment_size=params.segment_size,
            normalized_capacity=params.normalized_capacity,
            now=0.0,
        )
        self.metrics.set_deletion_rate(params.deletion_rate)
        self.registry = SegmentRegistry(self.metrics, use_decoders=self._rlnc)

        #: fault injector, created only for a non-null plan so fault-free
        #: systems carry no injector at all (the cheapest form of the
        #: bitwise-neutral guarantee — every hook guards on None).  Its
        #: "faults" substream is independent by name, so enabling faults
        #: never perturbs the protocol's own clocks.
        self.faults: Optional[FaultInjector] = None
        if params.has_faults:
            self.faults = FaultInjector(
                plan=params.faults,
                sim=self.sim,
                rng=self.seeds.python("faults"),
                n_slots=params.n_peers,
                metrics=self.metrics,
                tracer=tracer,
            )

        #: adversary injector, mirroring the fault injector's construction
        #: rule: only a non-null plan gets one, every hook guards on None,
        #: and its "adversary" substream is independent by name.
        self.adversary: Optional[AdversaryInjector] = None
        if params.has_adversary:
            self.adversary = AdversaryInjector(
                plan=params.adversary,
                sim=self.sim,
                rng=self.seeds.python("adversary"),
                n_slots=params.n_peers,
                metrics=self.metrics,
                tracer=tracer,
            )
        #: server-side defense state, constructed when either defense is on
        #: (the scorer is deterministic and draws no randomness, so its
        #: presence cannot shift any RNG substream).
        self.scorer: Optional[PullSourceScorer] = None
        if params.has_defenses:
            self.scorer = PullSourceScorer(quarantine=params.pull_scoring)

        capacity = params.effective_buffer_capacity
        self.peers: List[Peer] = [
            Peer(slot, capacity) for slot in range(params.n_peers)
        ]
        self._nonempty: RandomizedSet[int] = RandomizedSet()

        self.gossip = GossipProtocol(
            params=params,
            topology=self.topology,
            rng=self._selection_rng,
            coding_rng=self._coding_rng,
            peers=self.peers,
            # No lossy link, latency or tracer: a delivered block is stored.
            store_block=self._store_block
            if self.faults is None and tracer is None and not params.gossip_latency
            else self._store_gossip_block,
            registry=self.registry,
            metrics=self.metrics,
            faults=self.faults,
            adversary=self.adversary,
            clock=self.sim,
        )
        self.servers = ServerPool(
            n_servers=params.n_servers,
            registry=self.registry,
            metrics=self.metrics,
            rng=self._selection_rng,
            coding_rng=self._coding_rng,
            sample_nonempty_peer=self._sample_nonempty_peer,
            rlnc_mode=self._rlnc,
            segment_selection=params.segment_selection,
            pull_policy=params.pull_policy,
            all_peers=self.peers.__getitem__,
            n_slots=params.n_peers,
            faults=self.faults,
            tracer=tracer,
            adversary=self.adversary,
            scorer=self.scorer,
            discounting=params.advert_discounting,
            on_quarantine=self._on_quarantine,
            clock=self.sim,
        )

        #: decoded original data of completed segments (RLNC+payload mode):
        #: segment_id -> (descriptor, payload rows).  Filled automatically at
        #: completion time, before extinction can discard the decoder.
        self.collected_data: Dict[
            int, Tuple[SegmentDescriptor, np.ndarray]
        ] = {}
        #: per-source accounting for postmortem analysis: maps
        #: (slot, generation) -> blocks injected / blocks delivered.  Lets an
        #: experiment ask "how much data of a peer that has since departed
        #: did the servers recover?" — the Sec. 1 resilience claim.
        self.injected_by_source: Dict[Tuple[int, int], int] = {}
        self.delivered_by_source: Dict[Tuple[int, int], int] = {}
        #: coded blocks usefully collected per source, regardless of whether
        #: the segment has completed yet — the paper's intake notion.
        self.collected_by_source: Dict[Tuple[int, int], int] = {}
        self.registry.on_complete = self._on_segment_complete
        self.registry.on_useful_pull = self._on_useful_pull
        if tracer is not None:
            self.registry.on_lost = self._on_segment_lost

        self._processes: List[PoissonProcess] = []
        #: the server pull clocks, kept separately so an outage can pause
        #: exactly them (memorylessness makes stop/start distribution-exact).
        self._server_processes: List[PoissonProcess] = []
        self._build_processes()

        self.churn = ChurnModel(
            sim=self.sim,
            rng=self._churn_rng,
            n_slots=params.n_peers,
            mean_lifetime=params.mean_lifetime,
            on_replace=self._replace_peer,
        )
        self.churn.start()

        if self.faults is not None:
            self.faults.bind(
                pause_servers=self._pause_servers,
                resume_servers=self._resume_servers,
                kill_slots=self._burst_kill,
            )
            self.faults.start()

        if self.adversary is not None:
            self.adversary.bind(
                kill_slots=self._sybil_burst,
                get_generation=lambda slot: self.peers[slot].generation,
            )
            self.adversary.start()

    # -- construction ----------------------------------------------------------

    def _build_processes(self) -> None:
        params = self.params
        for slot in range(params.n_peers):
            if self.workload is None:
                self._processes.append(
                    PoissonProcess(
                        self.sim,
                        self._injection_rng,
                        params.segment_arrival_rate,
                        self._inject,
                        slot,
                    )
                )
            else:
                segment_size = params.segment_size
                workload = self.workload
                self._processes.append(
                    ThinnedPoissonProcess(
                        self.sim,
                        self._injection_rng,
                        workload.max_rate / segment_size,
                        lambda t, w=workload, s=segment_size: w.rate(t) / s,
                        self._inject,
                        slot,
                    )
                )
            if params.gossip_rate > 0:
                self._processes.append(
                    PoissonProcess(
                        self.sim,
                        self._gossip_rng,
                        params.gossip_rate,
                        self.gossip.tick,
                        slot,
                    )
                )
        for index in range(params.n_servers):
            process = PoissonProcess(
                self.sim,
                self._server_rng,
                params.per_server_rate,
                self.servers.pull,
                index,
            )
            self._processes.append(process)
            self._server_processes.append(process)

    def _random_payloads(self, descriptor: SegmentDescriptor) -> np.ndarray:
        return self._coding_rng.integers(
            0, 256, size=(descriptor.size, self.params.payload_bytes), dtype=np.uint8
        )

    # -- accessors ---------------------------------------------------------------

    def _sample_nonempty_peer(self) -> Optional[Peer]:
        try:
            slot = self._nonempty.sample(self._selection_rng)
        except IndexError:  # every buffer is empty
            return None
        return self.peers[slot]

    # -- event handlers ------------------------------------------------------------

    def _inject(self, slot: int) -> None:
        """Poisson injection: a new segment of s blocks appears at the peer."""
        params = self.params
        peer = self.peers[slot]
        if not peer.can_inject(params.segment_size):
            # Buffer too full for a whole segment (degree > B - s): the
            # freshly generated statistics cannot be buffered and are lost.
            self.metrics.blocked_injections += 1
            return
        state = self.registry.create(
            source_peer=slot,
            size=params.segment_size,
            now=self.sim.now,
            generation=peer.generation,
        )
        source = (slot, peer.generation)
        self.injected_by_source[source] = (
            self.injected_by_source.get(source, 0) + params.segment_size
        )
        if self._rlnc:
            payloads = (
                self._payload_provider(state.descriptor)
                if self._payload_provider is not None
                else None
            )
            blocks = make_source_blocks(state.descriptor, payloads, self.sim.now)
        else:
            blocks = make_abstract_blocks(
                state.descriptor, params.segment_size, self.sim.now
            )
        self.metrics.injected_segments += 1
        self.metrics.injected_blocks += params.segment_size
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now,
                KIND_INJECT,
                peer=slot,
                segment=state.segment_id,
                size=params.segment_size,
            )
        for block in blocks:
            self._store_block(peer, block)

    def _store_gossip_block(self, peer: Peer, block: CodedBlock) -> None:
        """Store a gossip-received block, possibly after transfer latency.

        With zero latency (the paper's model) the block lands immediately.
        Otherwise it spends an exponential in-flight time and is re-checked
        on arrival: the target may have filled up, satisfied the segment, or
        been replaced by churn, and the segment may have gone extinct — any
        of which wastes the transmission (``gossip_undeliverable``).

        Under fault injection the transfer may also be lost outright on the
        lossy link (``gossip_loss_rate``); the sender's bandwidth is spent
        (the tick already counted a transfer) but nothing arrives.
        """
        if self.faults is not None and self.faults.drop_gossip():
            self.metrics.transfers_dropped += 1
            if self.tracer is not None:
                self.tracer.record(
                    self.sim.now,
                    KIND_DROP,
                    peer=peer.slot,
                    segment=block.segment.segment_id,
                )
            return
        latency = self.params.gossip_latency
        if latency <= 0.0:
            self._land_gossip_block(peer, block)
            return
        delay = self._ttl_rng.expovariate(1.0 / latency)
        # Fire-and-forget delivery: handle-free fast path.
        self.sim.schedule_call(
            delay, self._arrive_gossip_block, peer.slot, peer.generation, block
        )

    def _arrive_gossip_block(
        self, slot: int, generation: int, block: CodedBlock
    ) -> None:
        """An in-flight coded block reaches its target peer."""
        peer = self.peers[slot]
        segment_id = block.segment.segment_id
        deliverable = (
            peer.generation == generation
            and segment_id in self.registry
            and peer.needs_segment(segment_id, block.segment.size)
        )
        if not deliverable:
            self.metrics.gossip_undeliverable += 1
            return
        self._land_gossip_block(peer, block)

    def _land_gossip_block(self, peer: Peer, block: CodedBlock) -> None:
        """Finalize a gossip delivery with accounting and tracing."""
        self._store_block(peer, block)
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now,
                KIND_GOSSIP,
                peer=peer.slot,
                segment=block.segment.segment_id,
            )

    def _store_block(self, peer: Peer, block: CodedBlock) -> None:
        """Buffer *block* at *peer* with full accounting and a TTL clock."""
        sim = self.sim
        now = sim.now
        registry = self.registry
        was_empty = peer.block_count == 0
        peer.add_block(block)
        registry.on_block_added(registry.get(block.segment.segment_id), now)
        self.metrics.total_blocks.add(now, 1)
        if was_empty:
            self._nonempty.add(peer.slot)
            self.metrics.empty_peers.add(now, -1)
        # TTL expiries are never cancelled (expiry itself checks liveness),
        # so they ride the handle-free fast path; Parameters validated γ > 0.
        # The gap is Random.expovariate's expression, inlined.
        ttl = -math.log(1.0 - self._ttl_rng.random()) / self.params.deletion_rate
        sim.schedule_call(ttl, self._expire, peer, block)

    def _expire_block(self, peer: Peer, block: CodedBlock) -> None:
        """TTL expiry: delete the block unless churn already destroyed it."""
        if not block.alive:
            return
        block.alive = False
        if not peer.remove_block(block):
            raise RuntimeError(
                f"live block of segment {block.segment.segment_id} missing "
                f"from peer {peer.slot}'s buffer"
            )
        now = self.sim.now
        metrics = self.metrics
        metrics.blocks_expired += 1
        metrics.total_blocks.add(now, -1)
        if peer.block_count == 0:
            self._nonempty.discard(peer.slot)
            metrics.empty_peers.add(now, 1)
        state = self.registry.get(block.segment.segment_id)
        self.registry.on_block_removed(state, now)
        if self.tracer is not None:
            self.tracer.record(
                now, KIND_EXPIRE, peer=peer.slot, segment=state.segment_id
            )

    def _replace_peer(self, slot: int) -> None:
        """Churn: the slot's occupant departs; a fresh peer takes its place.

        Every block in the departed peer's buffer is destroyed — this is the
        data-loss mechanism that makes coded redundancy valuable.
        """
        now = self.sim.now
        old = self.peers[slot]
        blocks = old.all_blocks()
        for block in blocks:
            block.alive = False
            state = self.registry.get(block.segment.segment_id)
            self.registry.on_block_removed(state, now)
        lost = len(blocks)
        if lost:
            self.metrics.blocks_lost_to_churn += lost
            self.metrics.total_blocks.add(now, -lost)
            self._nonempty.discard(slot)
            self.metrics.empty_peers.add(now, 1)
        self.metrics.departures += 1
        if self.tracer is not None:
            self.tracer.record(
                now, KIND_DEPART, peer=slot, blocks_lost=float(lost)
            )
        self.peers[slot] = Peer(
            slot, self.params.effective_buffer_capacity, old.generation + 1, now
        )
        if self.adversary is not None:
            self.adversary.slot_replaced(slot)

    # -- fault hooks (bound into the FaultInjector) -----------------------------------

    def _pause_servers(self) -> None:
        """Outage onset: every server's pull clock stops mid-gap."""
        for process in self._server_processes:
            process.stop()

    def _resume_servers(self, elapsed: float) -> None:
        """Outage end: restart pull clocks, then fire a bounded catch-up.

        A recovering server drains its backlog as a burst of immediate
        pulls (:meth:`FaultVerdicts.catchup_pulls` sizes it).
        """
        catchup = 0
        if self.faults is not None:
            catchup = self.faults.catchup_pulls(
                elapsed, self.params.per_server_rate
            )
        for index, process in enumerate(self._server_processes):
            process.start()
            for _ in range(catchup):
                self.servers.pull(index, self.sim.now)

    def _burst_kill(self, slots: Sequence[int]) -> None:
        """Correlated churn burst: force-depart every slot in *slots* now."""
        for slot in slots:
            self.churn.force_depart(slot)
        self.metrics.burst_departures += len(slots)
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, KIND_BURST, killed=float(len(slots))
            )

    # -- adversary hooks (bound into the AdversaryInjector) -----------------------------

    def _sybil_burst(self, slots: Sequence[int]) -> None:
        """Sybil burst: each slot's occupant departs and the replacement
        identity (the post-burst generation) is adversarial."""
        for slot in slots:
            self.churn.force_depart(slot)
        self.metrics.sybil_conversions += len(slots)
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now, KIND_SYBIL, converted=float(len(slots))
            )

    def _on_quarantine(self, slot: int, generation: int) -> None:
        """Classify a fresh quarantine as a hit or a false positive."""
        adversary = self.adversary
        if adversary is None or not adversary.is_adversarial(slot, generation):
            self.metrics.false_quarantines += 1

    # -- measurement lifecycle -------------------------------------------------------

    def run_phase(self, duration: float) -> MetricsReport:
        # Under pytest (tests/conftest.py sets REPRO_AUTO_CONSISTENCY) every
        # measured phase ends with a full invariant sweep; in normal runs
        # the flag is unset and this costs one dict lookup.
        report = super().run_phase(duration)
        if os.environ.get("REPRO_AUTO_CONSISTENCY"):
            self.consistency_check()
        return report

    def engine_perf(self) -> "EnginePerf":
        """Event-engine perf counters for this run (see Simulator.perf)."""
        return self.sim.perf()

    def shutdown(self) -> None:
        """Stop every recurring clock (Poisson processes, churn, faults).

        Call when a long-lived process runs many systems against shared
        tooling and wants this one's clocks silenced; a shut-down system can
        still be inspected but will not advance further state.
        """
        for process in self._processes:
            process.stop()
        self.churn.drain()
        if self.faults is not None:
            self.faults.stop()
        if self.adversary is not None:
            self.adversary.stop()

    # -- completion archive (RLNC + payload mode) --------------------------------------

    def _on_useful_pull(self, state: SegmentState) -> None:
        """Attribute one usefully collected coded block to its source."""
        descriptor = state.descriptor
        source = (descriptor.source_peer, descriptor.generation)
        self.collected_by_source[source] = (
            self.collected_by_source.get(source, 0) + 1
        )
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now,
                KIND_COLLECT,
                peer=descriptor.source_peer,
                segment=state.segment_id,
                collected=float(state.collected),
            )

    def _on_segment_complete(self, state: SegmentState) -> None:
        """Completion hook: per-source accounting plus payload archiving.

        Runs at the completion instant, while the decoder is still alive —
        a completed segment's blocks keep circulating and eventually all
        expire, at which point the registry drops the entry.
        """
        descriptor = state.descriptor
        source = (descriptor.source_peer, descriptor.generation)
        self.delivered_by_source[source] = (
            self.delivered_by_source.get(source, 0) + descriptor.size
        )
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now,
                KIND_COMPLETE,
                peer=descriptor.source_peer,
                segment=state.segment_id,
                delay=self.sim.now - descriptor.injected_at,
            )
        if state.decoder is not None and self._payload_provider is not None:
            if state.segment_id not in self.collected_data:
                self.collected_data[state.segment_id] = (
                    descriptor,
                    state.decoder.decode(),
                )

    def _on_segment_lost(self, state: SegmentState) -> None:
        """Tracing hook: a segment went extinct before the servers got it."""
        if self.tracer is not None:
            self.tracer.record(
                self.sim.now,
                KIND_LOST,
                peer=state.descriptor.source_peer,
                segment=state.segment_id,
                collected=float(state.collected),
            )

    # -- postmortem analysis -----------------------------------------------------------

    def postmortem(self) -> PostmortemReport:
        """Recovery accounting at the current instant, split by departure.

        A source generation (slot, g) is *departed* when the slot's current
        occupant has a higher generation.  Delivered counts completed
        segments; recoverable counts live incomplete segments the servers
        can still finish (network degree >= blocks still missing).
        """
        recoverable_by_source: Dict[Tuple[int, int], int] = {}
        for state in self.registry.live_states():
            if state.is_complete:
                continue
            missing = state.size - state.collected
            if state.network_degree >= missing:
                descriptor = state.descriptor
                source = (descriptor.source_peer, descriptor.generation)
                recoverable_by_source[source] = (
                    recoverable_by_source.get(source, 0) + state.size
                )
        departed = SourceRecovery()
        live = SourceRecovery()
        for source, injected in sorted(self.injected_by_source.items()):
            slot, generation = source
            bucket = (
                departed if generation < self.peers[slot].generation else live
            )
            bucket.injected += injected
            bucket.delivered += self.delivered_by_source.get(source, 0)
            bucket.recoverable += recoverable_by_source.get(source, 0)
            bucket.collected += self.collected_by_source.get(source, 0)
        return PostmortemReport(departed=departed, live=live)

    # -- diagnostics ----------------------------------------------------------------------

    def peer_degree_histogram(self) -> Dict[int, int]:
        """Map degree i -> number of peers holding i blocks (Y_i of Sec. 3)."""
        histogram: Dict[int, int] = {}
        for peer in self.peers:
            histogram[peer.block_count] = histogram.get(peer.block_count, 0) + 1
        return histogram

    def rescaled_peer_degrees(self) -> List[float]:
        """The z_i vector: fraction of peers at each degree 0..B."""
        histogram = self.peer_degree_histogram()
        capacity = self.params.effective_buffer_capacity
        n = self.params.n_peers
        return [histogram.get(i, 0) / n for i in range(capacity + 1)]

    def segment_degree_histogram(self) -> Dict[int, int]:
        """Map degree i -> number of live segments with i blocks (X_i)."""
        return self.registry.degree_histogram()

    def total_blocks_in_network(self) -> int:
        """Total live blocks (edge count E of the bipartite graph)."""
        return sum(peer.block_count for peer in self.peers)

    def empty_peer_count(self) -> int:
        """Peers with empty buffers (the z₀ population)."""
        return sum(1 for peer in self.peers if peer.is_empty)

    def consistency_check(self) -> None:
        """Verify cross-component invariants; raises AssertionError on drift.

        Intended for tests: edge counts agree between the peer side, the
        segment side, and the time-weighted metric state.  Delegates to the
        chaos layer's end-state monitors (:mod:`repro.chaos.monitors`) so
        this test-facing entry point and the mid-run chaos checks share one
        implementation and cannot drift; the violations they raise subclass
        ``AssertionError``, preserving this method's historical contract.
        """
        # Late import: chaos sits above core in the layer diagram.
        from repro.chaos.monitors import end_state_monitors

        now = self.sim.now
        for monitor in end_state_monitors():
            monitor.check(self, now)

    def record_payloads(self) -> Dict[int, np.ndarray]:
        """Archive each injected segment's original payload rows by id.

        Wraps the payload provider so every future injection also stores a
        copy of its source rows in the returned dict — the ground truth the
        chaos layer's decode-fidelity monitor compares completed segments
        against.  The wrapper draws no extra randomness, so a recorded run
        is event-for-event identical to an unrecorded one.  Call before the
        first injection; requires RLNC mode with payloads.
        """
        inner = self._payload_provider
        if inner is None:
            raise ValueError(
                "payload recording requires mode='rlnc' with payload_bytes > 0"
            )
        originals: Dict[int, np.ndarray] = {}

        def recording_provider(descriptor: SegmentDescriptor) -> np.ndarray:
            payloads = inner(descriptor)
            originals[descriptor.segment_id] = payloads.copy()
            return payloads

        self._payload_provider = recording_provider
        return originals
