"""Integration tests for the full indirect collection system."""

import gc
import math
import types

import pytest

from repro.coding.block import CodedBlock
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.sim.topology import CompleteTopology, random_regular_topology
from repro.stats.workload import ConstantWorkload, ShutoffWorkload


def params(**overrides):
    defaults = dict(
        n_peers=40,
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=4,
        n_servers=2,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


class TestConstruction:
    def test_topology_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CollectionSystem(params(), topology=CompleteTopology(5))

    def test_payload_provider_requires_rlnc(self):
        with pytest.raises(ValueError):
            CollectionSystem(params(), payload_provider=lambda d: None)

    def test_initial_network_empty(self):
        system = CollectionSystem(params(), seed=1)
        assert system.total_blocks_in_network() == 0
        assert system.empty_peer_count() == 40
        assert system.now == 0.0


class TestInvariants:
    def test_consistency_through_time(self):
        system = CollectionSystem(params(), seed=2)
        for _ in range(5):
            system.run_until(system.now + 2.0)
            system.consistency_check()

    def test_consistency_under_churn(self):
        system = CollectionSystem(params(mean_lifetime=1.5), seed=3)
        for _ in range(5):
            system.run_until(system.now + 2.0)
            system.consistency_check()

    def test_consistency_in_rlnc_mode(self):
        system = CollectionSystem(
            params(n_peers=20, mode="rlnc", segment_size=3, arrival_rate=3.0),
            seed=4,
        )
        system.run_until(6.0)
        system.consistency_check()

    def test_buffer_cap_never_exceeded(self):
        system = CollectionSystem(params(buffer_capacity=12), seed=5)
        for _ in range(4):
            system.run_until(system.now + 2.0)
            assert all(
                peer.block_count <= 12 for peer in system.peers
            )

    def test_degree_histograms_sum_correctly(self):
        system = CollectionSystem(params(), seed=6)
        system.run_until(8.0)
        peer_hist = system.peer_degree_histogram()
        assert sum(peer_hist.values()) == 40
        edge_count_from_peers = sum(d * c for d, c in peer_hist.items())
        seg_hist = system.segment_degree_histogram()
        edge_count_from_segments = sum(d * c for d, c in seg_hist.items())
        assert edge_count_from_peers == edge_count_from_segments

    def test_rescaled_degrees_sum_to_one(self):
        system = CollectionSystem(params(), seed=7)
        system.run_until(5.0)
        z = system.rescaled_peer_degrees()
        assert sum(z) == pytest.approx(1.0)


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = CollectionSystem(params(), seed=11).run(4.0, 6.0)
        b = CollectionSystem(params(), seed=11).run(4.0, 6.0)
        assert a == b

    def test_different_seed_different_results(self):
        a = CollectionSystem(params(), seed=11).run(4.0, 6.0)
        b = CollectionSystem(params(), seed=12).run(4.0, 6.0)
        assert a != b

    def test_rlnc_mode_deterministic(self):
        config = params(n_peers=16, mode="rlnc", segment_size=3, arrival_rate=3.0)
        a = CollectionSystem(config, seed=13).run(3.0, 4.0)
        b = CollectionSystem(config, seed=13).run(3.0, 4.0)
        assert a == b


class TestSteadyStateAgainstTheory:
    def test_occupancy_matches_theorem1(self):
        # lambda=6, mu=8, gamma=1 -> rho ~ (1-z0)*8 + 6 ~ 14 (z0 ~ 0)
        system = CollectionSystem(params(n_peers=80), seed=21)
        report = system.run(10.0, 15.0)
        assert report.mean_buffer_occupancy == pytest.approx(14.0, rel=0.1)

    def test_throughput_below_capacity_and_demand(self):
        system = CollectionSystem(params(n_peers=80), seed=22)
        report = system.run(10.0, 15.0)
        assert 0.0 < report.normalized_throughput <= 3.0 / 6.0 + 0.05

    def test_gossip_disabled_means_no_transfers(self):
        system = CollectionSystem(params(gossip_rate=0.0), seed=23)
        report = system.run(4.0, 6.0)
        assert report.gossip_transfers == 0
        # occupancy reduces to lambda/gamma
        assert report.mean_buffer_occupancy == pytest.approx(6.0, rel=0.15)


class TestChurnEffects:
    def test_departures_counted(self):
        system = CollectionSystem(params(mean_lifetime=2.0), seed=31)
        report = system.run(2.0, 8.0)
        # expected departures in window: 40 * 8 / 2 = 160
        assert 100 < report.departures < 230
        assert report.blocks_lost_to_churn > 0

    def test_generations_advance(self):
        system = CollectionSystem(params(mean_lifetime=1.0), seed=32)
        system.run_until(6.0)
        assert any(peer.generation > 0 for peer in system.peers)

    def test_static_network_has_no_departures(self):
        system = CollectionSystem(params(), seed=33)
        report = system.run(2.0, 6.0)
        assert report.departures == 0
        assert report.blocks_lost_to_churn == 0


class TestWorkloads:
    def test_shutoff_leaves_delayed_delivery_reserve(self):
        """When demand stops, the buffered pool shrinks but keeps serving —
        the Theorem 4 "future delivery" behavior.  (The pool does NOT drain
        to zero quickly: gossip replication nearly balances TTL deletion, so
        a self-sustaining reserve persists for a long while.)"""
        system = CollectionSystem(
            params(), seed=41, workload=ShutoffWorkload(6.0, cutoff=5.0)
        )
        system.run_until(5.0)
        at_cutoff = system.total_blocks_in_network()
        assert at_cutoff > 0
        pulls_at_cutoff = system.metrics.useful_pulls.total
        system.run_until(25.0)
        # the pool decays below its driven level...
        assert system.total_blocks_in_network() < at_cutoff
        # ...while the servers keep collecting from it (delayed delivery)
        assert system.metrics.useful_pulls.total > pulls_at_cutoff

    def test_constant_workload_equals_default(self):
        """A ConstantWorkload(lam) drives the same average injection rate as
        the built-in Poisson injection."""
        base = CollectionSystem(params(n_peers=60), seed=42).run(5.0, 10.0)
        wrapped = CollectionSystem(
            params(n_peers=60), seed=43, workload=ConstantWorkload(6.0)
        ).run(5.0, 10.0)
        assert wrapped.injected_blocks == pytest.approx(
            base.injected_blocks, rel=0.15
        )


class TestRlncPayloads:
    def test_end_to_end_payload_recovery(self):
        config = params(
            n_peers=20,
            arrival_rate=2.0,
            segment_size=3,
            normalized_capacity=2.0,
            mode="rlnc",
            payload_bytes=16,
        )
        system = CollectionSystem(config, seed=51)
        system.run_until(10.0)
        assert system.collected_data, "no segments decoded"
        for descriptor, payloads in system.collected_data.values():
            assert payloads.shape == (3, 16)

    def test_custom_payload_provider_roundtrip(self):
        import numpy as np

        def provider(descriptor):
            base = descriptor.segment_id % 251
            return np.full((descriptor.size, 8), base, dtype=np.uint8)

        config = params(
            n_peers=20,
            arrival_rate=2.0,
            segment_size=2,
            normalized_capacity=2.0,
            mode="rlnc",
            payload_bytes=8,
        )
        system = CollectionSystem(config, seed=52, payload_provider=provider)
        system.run_until(10.0)
        assert system.collected_data
        for descriptor, payloads in system.collected_data.values():
            expected = descriptor.segment_id % 251
            assert (payloads == expected).all()


class TestPostmortem:
    def test_sums_match_global_counters(self):
        system = CollectionSystem(params(mean_lifetime=2.0), seed=61)
        system.run_until(8.0)
        report = system.postmortem()
        total_injected = report.departed.injected + report.live.injected
        assert total_injected == sum(system.injected_by_source.values())
        total_delivered = report.departed.delivered + report.live.delivered
        assert total_delivered == sum(system.delivered_by_source.values())

    def test_departed_bucket_empty_without_churn(self):
        system = CollectionSystem(params(), seed=62)
        system.run_until(5.0)
        report = system.postmortem()
        assert report.departed.injected == 0
        assert report.live.injected > 0

    def test_fractions_bounded(self):
        system = CollectionSystem(params(mean_lifetime=2.0), seed=63)
        system.run_until(8.0)
        report = system.postmortem()
        for bucket in (report.departed, report.live):
            assert 0.0 <= bucket.delivered_fraction <= 1.0
            assert bucket.delivered <= bucket.collected


class TestTopologies:
    def test_sparse_overlay_still_collects(self):
        import random as random_module

        topo = random_regular_topology(40, 6, random_module.Random(5))
        system = CollectionSystem(params(), seed=71, topology=topo)
        report = system.run(5.0, 10.0)
        assert report.useful_pulls > 0
        assert report.gossip_transfers > 0

    def test_sparse_overlay_close_to_meanfield(self):
        """A moderately dense random-regular overlay should be within ~15%
        of the complete graph on throughput (mean-field robustness)."""
        import random as random_module

        dense = CollectionSystem(params(n_peers=60), seed=72).run(8.0, 10.0)
        topo = random_regular_topology(60, 10, random_module.Random(6))
        sparse = CollectionSystem(params(n_peers=60), seed=72, topology=topo).run(
            8.0, 10.0
        )
        assert sparse.normalized_throughput == pytest.approx(
            dense.normalized_throughput, rel=0.2
        )


class TestGossipLatency:
    def test_zero_latency_identical_to_default(self):
        base = CollectionSystem(params(), seed=91).run(4.0, 6.0)
        explicit = CollectionSystem(params(gossip_latency=0.0), seed=91).run(4.0, 6.0)
        assert base == explicit

    def test_latency_keeps_invariants(self):
        system = CollectionSystem(
            params(gossip_latency=0.2, mean_lifetime=3.0), seed=92
        )
        for _ in range(4):
            system.run_until(system.now + 2.0)
            system.consistency_check()

    def test_large_latency_wastes_transmissions(self):
        report = CollectionSystem(params(gossip_latency=1.0), seed=93).run(
            4.0, 8.0
        )
        assert report.gossip_undeliverable > 0

    def test_small_latency_barely_changes_throughput(self):
        instant = CollectionSystem(params(n_peers=80), seed=94).run(8.0, 10.0)
        delayed = CollectionSystem(
            params(n_peers=80, gossip_latency=0.02), seed=94
        ).run(8.0, 10.0)
        assert delayed.normalized_throughput == pytest.approx(
            instant.normalized_throughput, rel=0.1
        )

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            params(gossip_latency=-0.1)


class TestRunApi:
    def test_invalid_run_arguments(self):
        system = CollectionSystem(params(), seed=81)
        with pytest.raises(ValueError):
            system.run(-1.0, 5.0)
        with pytest.raises(ValueError):
            system.run(1.0, 0.0)
        with pytest.raises(ValueError):
            system.run_phase(0.0)

    def test_phases_are_contiguous(self):
        system = CollectionSystem(params(), seed=82)
        first = system.run_phase(3.0)
        assert system.now == 3.0
        second = system.run_phase(2.0)
        assert system.now == 5.0
        assert first.window == pytest.approx(3.0)
        assert second.window == pytest.approx(2.0)


class TestBlockAllocations:
    """What one buffered block costs the allocator and the cyclic collector:
    the block and its heap entry, not a ``__dict__`` and a closure on top."""

    def _warm_system(self):
        system = CollectionSystem(params(normalized_capacity=6.0), seed=4)
        system.run_until(3.0)
        return system

    def test_coded_block_has_no_instance_dict(self):
        system = self._warm_system()
        block = next(iter(system.peers[0].buffered_blocks))
        assert not hasattr(block, "__dict__")
        with pytest.raises(AttributeError):
            block.scratch = 1

    def test_ttl_entries_share_one_callable(self):
        system = self._warm_system()
        expiries = [
            entry for entry in system.sim._heap
            if isinstance(entry[-1], CodedBlock) and entry[-1].alive
        ]
        assert len(expiries) == system.total_blocks_in_network() > 50
        assert len({id(entry[2]) for entry in expiries}) == 1
        time, _, action, peer, block = expiries[0]
        assert isinstance(action, types.MethodType)
        assert action.__func__ is CollectionSystem._expire_block
        assert peer.buffered_blocks[block.position] is block

    def test_tracked_objects_per_buffered_block(self):
        system = self._warm_system()
        peer = min(system.peers, key=lambda p: p.block_count)
        count = peer.capacity - peer.block_count
        assert count >= 8
        segment = next(iter(system.registry.live_states())).descriptor
        gc.collect()
        before = len(gc.get_objects())
        for _ in range(count):
            system._store_block(peer, CodedBlock(segment, created_at=system.now))
        gc.collect()
        grown = len(gc.get_objects()) - before
        system.consistency_check()
        # the block and its (time, seq, fn, peer, block) entry, plus the
        # amortized new holding; the parent allocated about 7 per block
        assert grown <= 3 * count
