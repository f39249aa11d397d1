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
from typing import Callable, Optional

import numpy as np

from repro.adversary.injector import AdversaryInjector
from repro.coding.block import CodedBlock, corrupt_block
from repro.core.params import (
    GOSSIP_TARGET_TRIES, Parameters, SELECTION_UNIFORM,
)
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry
from repro.faults.injector import FaultInjector
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
        get_peer: Callable[[int], Peer],
        store_block: Callable[[Peer, CodedBlock], None],
        registry: SegmentRegistry,
        metrics: MetricsCollector,
        faults: Optional[FaultInjector] = None,
        adversary: Optional[AdversaryInjector] = None,
    ) -> None:
        self._params = params
        self._topology = topology
        self._rng = rng
        self._coding_rng = coding_rng
        self._get_peer = get_peer
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

    def tick(self, slot: int, now: float) -> bool:
        """One gossip opportunity for the peer in *slot*.

        Returns True iff a block was actually transferred.
        """
        sender = self._get_peer(slot)
        if sender.is_empty:
            # Idle tick: the μ-clock ran but there was nothing to send.
            return False

        adversary = self._adversary
        if adversary is not None and adversary.suppress_gossip(
            slot, sender.generation
        ):
            # Free-riders (and active sybils) consume blocks but contribute
            # nothing: the μ-clock tick is silently wasted.
            self._metrics.gossip_suppressed.increment(self._metrics.in_window)
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
            segment_id = sender.draw_segment(
                self._rng,
                self._params.segment_selection == SELECTION_UNIFORM,
            )
        target = self._find_target(slot, segment_id)
        if target is None:
            self._metrics.gossip_no_target.increment(self._metrics.in_window)
            return False

        holding = sender.holdings[segment_id]
        block = holding.make_coded_block(self._coding_rng, now)
        if self._faults is not None:
            self._faults.maybe_pollute(slot, holding, block)
        if adversary is not None and adversary.pollutes_gossip(slot):
            corrupt_block(block)
        self._store_block(target, block)
        self._metrics.gossip_transfers.increment(self._metrics.in_window)
        return True

    def _find_target(self, sender_slot: int, segment_id: int) -> Optional[Peer]:
        """Rejection-sample an eligible neighbor for *segment_id*."""
        size = self._registry.get(segment_id).size
        for _ in range(GOSSIP_TARGET_TRIES):
            candidate_slot = self._topology.sample_neighbor(sender_slot, self._rng)
            if candidate_slot is None:
                return None
            candidate = self._get_peer(candidate_slot)
            if candidate.needs_segment(segment_id, size):
                return candidate
        return None
