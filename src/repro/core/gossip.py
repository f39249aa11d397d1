"""The gossip protocol of Sec. 2: how coded blocks spread between peers.

"1) At rate μ, each peer, say peer A, chooses a segment r uniformly at
random from among all the segments of which it has at least one (coded)
block in its buffer to generate a coded block q; 2) A then transmits q to
peer B chosen u.a.r. from among its neighbors which have not received s
linearly-independent coded blocks of segment r."

Implementation notes:

- The per-peer gossip clock ticks at rate μ unconditionally and acts only
  when the buffer is non-empty, so the realized transfer rate is
  ``(1 - z₀)·μ·N`` — the exact factor in Eqs. (1)-(2) of the analysis.
- Target selection uses rejection sampling over the topology's neighbor
  draw: each candidate is accepted iff it still needs the segment (fewer
  than ``s`` independent blocks) *and* has buffer room (degree < B).  Under
  the mean-field (complete) topology with many peers almost every candidate
  qualifies, so the expected cost is O(1); a bounded retry budget keeps the
  worst case bounded, with exhausted budgets counted as ``gossip_no_target``
  ticks (the transmission opportunity is wasted, exactly as a real gossip
  round with no eligible neighbor would be).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

import numpy as np

from repro.adversary.injector import AdversaryInjector
from repro.coding.block import CodedBlock, corrupt_block
from repro.core.params import (
    GOSSIP_TARGET_TRIES, Parameters, SELECTION_UNIFORM,
)
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry
from repro.faults.injector import FaultInjector
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.topology import Topology


class GossipProtocol:
    """Executes gossip ticks for the collection system."""

    def __init__(
        self,
        params: Parameters,
        topology: Topology,
        rng: random.Random,
        coding_rng: np.random.Generator,
        peers: Sequence[Peer],
        store_block: Callable[[Peer, CodedBlock], None],
        registry: SegmentRegistry,
        metrics: MetricsCollector,
        faults: Optional[FaultInjector] = None,
        adversary: Optional[AdversaryInjector] = None,
        clock: Optional[Simulator] = None,
    ) -> None:
        self._uniform = params.segment_selection == SELECTION_UNIFORM
        self._topology = topology
        self._rng = rng
        self._coding_rng = coding_rng
        #: every slot's current occupant, read in place (churn replaces
        #: entries, never the sequence).
        self._peers = peers
        #: whose time a tick called without *now* (the μ-clock's call) uses.
        self._clock = clock
        self._store_block = store_block
        self._registry = registry
        self._metrics = metrics
        #: optional FaultInjector; when set, polluter peers corrupt their
        #: emissions here, at the source (transfer loss is the receiver's
        #: problem and lives in the system's store callback).
        self._faults = faults
        #: optional AdversaryInjector; free-riders/sybils suppress their
        #: ticks here and strategic polluters steer + corrupt emissions.
        self._adversary = adversary

    def tick(self, slot: int, now: Optional[float] = None) -> bool:
        """One gossip opportunity for the peer in *slot* at *now* (default:
        the clock's time).  Returns True iff a block was transferred."""
        if now is None:
            assert self._clock is not None, "a tick without now needs a clock"
            now = self._clock.now
        peers = self._peers
        sender = peers[slot]
        if not sender.block_count:
            # Idle tick: the μ-clock ran but there was nothing to send.
            return False

        metrics = self._metrics
        rng = self._rng
        adversary = self._adversary
        if adversary is not None and adversary.suppress_gossip(
            slot, sender.generation
        ):
            # Free-riders (and active sybils) consume blocks but contribute
            # nothing: the μ-clock tick is silently wasted.
            metrics.gossip_suppressed += 1
            return False

        if adversary is not None and adversary.targets_low_degree(slot):
            # Strategic polluter: aim at the held segment with the least
            # network-wide redundancy (ties broken by lowest id for
            # determinism) — exactly the segment least able to absorb junk.
            segment_id = min(
                sender.holdings,
                key=lambda sid: (
                    self._registry.get(sid).network_degree,
                    sid,
                ),
            )
        else:
            segment_id = sender.draw_segment(rng, self._uniform)

        # Rejection-sample an eligible neighbor for the segment.
        size = self._registry.get(segment_id).size
        sample_neighbor = self._topology.sample_neighbor
        target = None
        for _ in range(GOSSIP_TARGET_TRIES):
            candidate_slot = sample_neighbor(slot, rng)
            if candidate_slot is None:
                break
            candidate = peers[candidate_slot]
            if candidate.needs_segment(segment_id, size):
                target = candidate
                break
        if target is None:
            metrics.gossip_no_target += 1
            return False

        holding = sender.holdings[segment_id]
        block = holding.make_coded_block(self._coding_rng, now)
        if self._faults is not None:
            self._faults.maybe_pollute(slot, holding, block)
        if adversary is not None and adversary.pollutes_gossip(slot):
            corrupt_block(block)
        self._store_block(target, block)
        metrics.gossip_transfers += 1
        return True
