"""Tests for the server pool and the gossip protocol in isolation."""

import random

import numpy as np
import pytest

from repro.coding.block import CodedBlock
from repro.core.gossip import GossipProtocol
from repro.core.params import Parameters
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry
from repro.core.server import LoggingServer, ServerPool
from repro.sim.metrics import MetricsCollector
from repro.sim.topology import CompleteTopology


def make_world(n_peers=5, s=2, capacity=50, selection="proportional"):
    metrics = MetricsCollector(
        n_peers=n_peers, arrival_rate=1.0, segment_size=s, normalized_capacity=1.0
    )
    metrics.begin_window(0.0)
    registry = SegmentRegistry(metrics, use_decoders=False)
    peers = [Peer(slot, capacity) for slot in range(n_peers)]
    return metrics, registry, peers


def add_abstract_segment(registry, peer, size=2, copies=1, now=0.0):
    state = registry.create(source_peer=peer.slot, size=size, now=now)
    for _ in range(copies):
        block = CodedBlock(segment=state.descriptor, created_at=now)
        peer.add_block(block)
        registry.on_block_added(state, now)
    return state


class TestServerPool:
    def make_pool(self, peers, registry, metrics, n_servers=2, selection="proportional"):
        nonempty = [p for p in peers if not p.is_empty]
        rng = random.Random(0)

        def sample():
            candidates = [p for p in peers if not p.is_empty]
            if not candidates:
                return None
            return candidates[rng.randrange(len(candidates))]

        return ServerPool(
            n_servers=n_servers,
            registry=registry,
            metrics=metrics,
            rng=rng,
            coding_rng=np.random.default_rng(0),
            sample_nonempty_peer=sample,
            rlnc_mode=False,
            segment_selection=selection,
        )

    def test_validates_configuration(self):
        metrics, registry, peers = make_world()
        with pytest.raises(ValueError):
            self.make_pool(peers, registry, metrics, n_servers=0)
        with pytest.raises(ValueError):
            ServerPool(
                n_servers=1,
                registry=registry,
                metrics=metrics,
                rng=random.Random(0),
                coding_rng=None,
                sample_nonempty_peer=lambda: None,
                rlnc_mode=False,
                segment_selection="nope",
            )

    def test_idle_pull_when_network_empty(self):
        metrics, registry, peers = make_world()
        pool = self.make_pool(peers, registry, metrics)
        pool.pull(0, now=0.0)
        assert pool.servers[0].idle_pulls == 1
        assert metrics.window_count("idle_pulls") == 1
        assert metrics.window_count("pulls") == 1

    def test_useful_pull_advances_state(self):
        metrics, registry, peers = make_world()
        state = add_abstract_segment(registry, peers[0], size=2, copies=2)
        pool = self.make_pool(peers, registry, metrics)
        pool.pull(0, now=0.0)
        assert state.collected == 1
        assert pool.servers[0].useful_pulls == 1

    def test_redundant_pull_on_complete_segment(self):
        metrics, registry, peers = make_world()
        state = add_abstract_segment(registry, peers[0], size=1, copies=1)
        pool = self.make_pool(peers, registry, metrics)
        pool.pull(0, now=0.0)
        assert state.is_complete
        pool.pull(1, now=0.1)
        assert pool.servers[1].redundant_pulls == 1
        assert metrics.window_count("redundant_pulls") == 1

    def test_pool_accounting(self):
        metrics, registry, peers = make_world()
        add_abstract_segment(registry, peers[0], size=1, copies=1)
        pool = self.make_pool(peers, registry, metrics)
        for i in range(4):
            pool.pull(i % 2, now=float(i))
        assert pool.total_pulls() == 4
        assert 0.0 < pool.pool_efficiency() <= 1.0
        assert pool.load_balance() == pytest.approx(1.0)

    def test_server_efficiency_property(self):
        server = LoggingServer(server_id=0)
        assert server.efficiency == 0.0
        server.pulls = 4
        server.useful_pulls = 3
        assert server.efficiency == 0.75


class TestGossipProtocol:
    def make_gossip(self, peers, registry, metrics, stored, selection="proportional"):
        params = Parameters(
            n_peers=len(peers),
            arrival_rate=1.0,
            gossip_rate=1.0,
            deletion_rate=1.0,
            normalized_capacity=0.5,
            segment_size=2,
            n_servers=1,
            segment_selection=selection,
        )

        def store(peer, block):
            peer.add_block(block)
            registry.on_block_added(registry.get(block.segment.segment_id), 0.0)
            stored.append((peer.slot, block))

        return GossipProtocol(
            params=params,
            topology=CompleteTopology(len(peers)),
            rng=random.Random(1),
            coding_rng=np.random.default_rng(1),
            peers=peers,
            store_block=store,
            registry=registry,
            metrics=metrics,
        )

    def test_empty_sender_is_idle(self):
        metrics, registry, peers = make_world()
        stored = []
        gossip = self.make_gossip(peers, registry, metrics, stored)
        assert not gossip.tick(0, now=0.0)
        assert not stored

    def test_transfer_to_needy_peer(self):
        metrics, registry, peers = make_world()
        add_abstract_segment(registry, peers[0], size=2, copies=2)
        stored = []
        gossip = self.make_gossip(peers, registry, metrics, stored)
        assert gossip.tick(0, now=0.0)
        assert len(stored) == 1
        target_slot, block = stored[0]
        assert target_slot != 0
        assert metrics.window_count("gossip_transfers") == 1

    def test_no_eligible_target_counted(self):
        metrics, registry, peers = make_world(n_peers=2)
        state = add_abstract_segment(registry, peers[0], size=2, copies=2)
        # peer 1 already has s independent blocks of the segment
        for _ in range(2):
            block = CodedBlock(segment=state.descriptor)
            peers[1].add_block(block)
            registry.on_block_added(state, 0.0)
        stored = []
        gossip = self.make_gossip(peers, registry, metrics, stored)
        assert not gossip.tick(0, now=0.0)
        assert metrics.window_count("gossip_no_target") == 1

    def test_full_target_skipped(self):
        metrics, registry, peers = make_world(n_peers=2, capacity=2)
        add_abstract_segment(registry, peers[0], size=2, copies=2)
        # fill peer 1 with an unrelated segment
        add_abstract_segment(registry, peers[1], size=2, copies=2)
        stored = []
        gossip = self.make_gossip(peers, registry, metrics, stored)
        assert not gossip.tick(0, now=0.0)

    def test_single_peer_network_no_target(self):
        metrics, registry, peers = make_world(n_peers=1)
        add_abstract_segment(registry, peers[0], size=2, copies=2)
        stored = []
        gossip = self.make_gossip(peers, registry, metrics, stored)
        assert not gossip.tick(0, now=0.0)

    def test_uniform_selection_draws_distinct_segments(self):
        metrics, registry, peers = make_world(n_peers=6, s=2)
        # segment A: 9 copies; segment B: 1 copy at the same sender
        add_abstract_segment(registry, peers[0], size=2, copies=9)
        state_b = add_abstract_segment(registry, peers[0], size=2, copies=1)
        stored = []
        gossip = self.make_gossip(peers, registry, metrics, stored,
                                  selection="uniform")
        for _ in range(400):
            gossip.tick(0, now=0.0)
        b_transfers = sum(
            1
            for _, block in stored
            if block.segment.segment_id == state_b.segment_id
        )
        share = b_transfers / len(stored)
        assert abs(share - 0.5) < 0.1  # uniform over the two segments
