"""Baseline: the traditional centralized pull of Fig. 1(a).

Logging servers pull statistics blocks *directly* from the peers that
generated them — no gossip, no coding, no decentralized buffering.  Each
pull trial picks a uniformly random peer with pending data and retrieves
(and removes) its oldest waiting block, so every delivered block is useful
by construction: the baseline's weakness is not redundancy but *capacity*
and *persistence*:

- throughput is hard-capped at the aggregate server rate ``c·N``, so any
  demand peak above it builds an unbounded backlog, and
- a block waiting at its generating peer is lost the moment that peer
  departs (churn) or ages the block out (TTL) — the "statistics from
  departed peers may be the most useful" failure of Sec. 1.

The baseline reuses the same engine, churn model, workloads, and metrics as
the indirect system, so head-to-head comparisons differ only in mechanism.
Delivered blocks are reported through the same metric channels (a delivered
block counts as a completed size-1 segment, giving per-block delay).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.params import Parameters
from repro.core.system import MeasuredRun, PostmortemReport, SourceRecovery
from repro.sim.churn import ChurnModel
from repro.sim.engine import PoissonProcess, Simulator, ThinnedPoissonProcess
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import SeedSequenceRegistry, exponential
from repro.stats.workload import Workload
from repro.util.randomset import RandomizedSet


class _PendingBlock:
    """One statistics block waiting at its generating peer."""

    __slots__ = ("created_at", "alive")

    def __init__(self, created_at: float) -> None:
        self.created_at = created_at
        self.alive = True


class _DirectPeer:
    """FIFO buffer of pending blocks at one peer."""

    __slots__ = ("slot", "generation", "capacity", "queue")

    def __init__(self, slot: int, capacity: int, generation: int = 0) -> None:
        self.slot = slot
        self.generation = generation
        self.capacity = capacity
        self.queue: Deque[_PendingBlock] = deque()

    def live_count(self) -> int:
        return sum(1 for block in self.queue if block.alive)

    def compact(self) -> None:
        """Drop dead (expired) blocks from the head so pops stay O(1)."""
        while self.queue and not self.queue[0].alive:
            self.queue.popleft()


class DirectCollectionSystem(MeasuredRun):
    """Traditional pull-based collection (the paper's strawman).

    Configuration reuses :class:`Parameters`: ``arrival_rate``,
    ``normalized_capacity``, ``n_servers``, ``deletion_rate`` (how long a
    peer retains un-collected statistics), ``buffer_capacity`` and
    ``mean_lifetime`` apply; ``gossip_rate`` and ``segment_size`` are
    ignored (there is no gossip and no coding).

    Set ``retain_forever=True`` to disable TTL aging (peers hold data until
    collected or departed), isolating churn as the only loss channel.

    By default the server is *generous*: it knows which peers have pending
    data and always probes one of them (an oracle a million-peer deployment
    would not have).  ``blind=True`` removes the oracle: each pull probes a
    uniformly random peer and comes back empty-handed if that peer has
    nothing pending — the "leaving most of the peers waiting for service"
    reality of Sec. 1.
    """

    def __init__(
        self,
        params: Parameters,
        seed: int = 0,
        workload: Optional[Workload] = None,
        retain_forever: bool = False,
        blind: bool = False,
    ) -> None:
        self.params = params
        self.retain_forever = retain_forever
        self.blind = blind
        self.seeds = SeedSequenceRegistry(seed)
        self.sim = Simulator()
        self.workload = workload

        self._injection_rng = self.seeds.python("injection")
        self._server_rng = self.seeds.python("server")
        self._ttl_rng = self.seeds.python("ttl")
        self._churn_rng = self.seeds.python("churn")
        self._selection_rng = self.seeds.python("selection")

        # segment_size is forced to 1: direct collection moves raw blocks.
        self.metrics = MetricsCollector(
            n_peers=params.n_peers,
            arrival_rate=params.arrival_rate,
            segment_size=1,
            normalized_capacity=params.normalized_capacity,
            now=0.0,
        )
        self.metrics.set_deletion_rate(params.deletion_rate)

        capacity = params.effective_buffer_capacity
        self.peers: List[_DirectPeer] = [
            _DirectPeer(slot, capacity) for slot in range(params.n_peers)
        ]
        self._pending: RandomizedSet[int] = RandomizedSet()
        self.delivered = 0
        self.lost_to_churn = 0
        self.lost_to_ttl = 0
        self.lost_to_overflow = 0
        #: per-source accounting for postmortem comparison with the
        #: indirect system: (slot, generation) -> blocks generated/delivered.
        self.injected_by_source: Dict[Tuple[int, int], int] = {}
        self.delivered_by_source: Dict[Tuple[int, int], int] = {}

        self._processes: List[PoissonProcess] = []
        for slot in range(params.n_peers):
            if workload is None:
                self._processes.append(
                    PoissonProcess(
                        self.sim,
                        self._injection_rng,
                        params.arrival_rate,
                        self._generate,
                        slot,
                    )
                )
            else:
                self._processes.append(
                    ThinnedPoissonProcess(
                        self.sim,
                        self._injection_rng,
                        workload.max_rate,
                        workload.rate,
                        self._generate,
                        slot,
                    )
                )
        for index in range(params.n_servers):
            self._processes.append(
                PoissonProcess(
                    self.sim,
                    self._server_rng,
                    params.per_server_rate,
                    self._server_pull,
                )
            )

        self.churn = ChurnModel(
            sim=self.sim,
            rng=self._churn_rng,
            n_slots=params.n_peers,
            mean_lifetime=params.mean_lifetime,
            on_replace=self._replace_peer,
        )
        self.churn.start()

    # -- event handlers ---------------------------------------------------------

    def _generate(self, slot: int) -> None:
        peer = self.peers[slot]
        peer.compact()
        if peer.live_count() >= peer.capacity:
            self.lost_to_overflow += 1
            self.metrics.blocked_injections += 1
            return
        block = _PendingBlock(self.sim.now)
        peer.queue.append(block)
        source = (slot, peer.generation)
        self.injected_by_source[source] = (
            self.injected_by_source.get(source, 0) + 1
        )
        self.metrics.injected_blocks += 1
        self.metrics.injected_segments += 1
        self.metrics.total_blocks.add(self.sim.now, 1)
        if peer.live_count() == 1:
            self._pending.add(slot)
            self.metrics.empty_peers.add(self.sim.now, -1)
        if not self.retain_forever:
            ttl = exponential(self._ttl_rng, self.params.deletion_rate)
            self.sim.schedule_call(
                ttl, self._expire, slot, peer.generation, block
            )

    def _expire(self, slot: int, generation: int, block: _PendingBlock) -> None:
        if not block.alive:
            return
        peer = self.peers[slot]
        if peer.generation != generation:
            return  # churn already destroyed this buffer
        block.alive = False
        self.lost_to_ttl += 1
        self.metrics.blocks_expired += 1
        self.metrics.total_blocks.add(self.sim.now, -1)
        self.metrics.segments_lost += 1
        peer.compact()
        if peer.live_count() == 0:
            self._pending.discard(slot)
            self.metrics.empty_peers.add(self.sim.now, 1)

    def _server_pull(self) -> None:
        self.metrics.pulls += 1
        if self.blind:
            # Oracle-free probe: any peer, pending or not.
            slot = self._selection_rng.randrange(self.params.n_peers)
            if slot not in self._pending:
                self.metrics.idle_pulls += 1
                return
        elif not self._pending:
            self.metrics.idle_pulls += 1
            return
        else:
            slot = self._pending.sample(self._selection_rng)
        peer = self.peers[slot]
        peer.compact()
        block = peer.queue.popleft()
        block.alive = False
        self.delivered += 1
        source = (slot, peer.generation)
        self.delivered_by_source[source] = (
            self.delivered_by_source.get(source, 0) + 1
        )
        self.metrics.useful_pulls += 1
        self.metrics.total_blocks.add(self.sim.now, -1)
        # A delivered raw block is a completed "segment" of size 1, which
        # feeds the shared delay accounting.
        self.metrics.on_segment_completed(self.sim.now, block.created_at, 1)
        self.metrics.segments_completed += 1
        peer.compact()
        if peer.live_count() == 0:
            self._pending.discard(slot)
            self.metrics.empty_peers.add(self.sim.now, 1)

    def _replace_peer(self, slot: int) -> None:
        peer = self.peers[slot]
        lost = 0
        for block in peer.queue:
            if block.alive:
                block.alive = False
                lost += 1
        if lost:
            self.lost_to_churn += lost
            self.metrics.blocks_lost_to_churn += lost
            self.metrics.segments_lost += lost
            self.metrics.total_blocks.add(self.sim.now, -lost)
            self._pending.discard(slot)
            self.metrics.empty_peers.add(self.sim.now, 1)
        self.metrics.departures += 1
        self.peers[slot] = _DirectPeer(
            slot, self.params.effective_buffer_capacity, peer.generation + 1
        )

    def backlog(self) -> int:
        """Blocks currently waiting at peers (the server-side debt)."""
        return sum(peer.live_count() for peer in self.peers)

    def postmortem(self) -> PostmortemReport:
        """Recovery accounting split by source departure.

        Direct collection keeps a peer's un-pulled blocks only at that peer,
        so nothing of a departed generation is ever recoverable — the
        structural weakness the indirect design removes.  Live generations'
        surviving backlog is still collectable.
        """
        departed = SourceRecovery()
        live = SourceRecovery()
        live_backlog: Dict[Tuple[int, int], int] = {}
        for peer in self.peers:
            count = peer.live_count()
            if count:
                live_backlog[(peer.slot, peer.generation)] = count
        for source, injected in sorted(self.injected_by_source.items()):
            slot, generation = source
            bucket = (
                departed if generation < self.peers[slot].generation else live
            )
            bucket.injected += injected
            delivered = self.delivered_by_source.get(source, 0)
            bucket.delivered += delivered
            bucket.collected += delivered  # every direct pull is an original
            bucket.recoverable += live_backlog.get(source, 0)
        return PostmortemReport(departed=departed, live=live)
