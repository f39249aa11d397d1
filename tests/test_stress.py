"""Stress and property tests: random configurations, pathological corners.

The simulator must stay internally consistent (no counter drift, no
invariant violations) under *any* legal configuration — including corners
that never appear in the paper's figures: starved servers, brutal churn,
buffers barely larger than a segment, gossip turned off entirely.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.params import Parameters
from repro.core.system import CollectionSystem

configs = st.fixed_dictionaries(
    {
        "n_peers": st.integers(5, 40),
        "arrival_rate": st.floats(0.5, 12.0),
        "gossip_rate": st.floats(0.0, 12.0),
        "deletion_rate": st.floats(0.3, 4.0),
        "normalized_capacity": st.floats(0.2, 8.0),
        "segment_size": st.integers(1, 6),
        "n_servers": st.integers(1, 3),
        "segment_selection": st.sampled_from(["proportional", "uniform"]),
        "mean_lifetime": st.one_of(st.none(), st.floats(0.5, 10.0)),
    }
)


class TestRandomConfigurations:
    @given(configs, st.integers(0, 2**16))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_invariants_hold_for_any_legal_config(self, config, seed):
        params = Parameters(**config)
        system = CollectionSystem(params, seed=seed)
        system.run_until(4.0)
        system.consistency_check()
        # hard physical invariants
        capacity = params.effective_buffer_capacity
        assert all(peer.block_count <= capacity for peer in system.peers)
        report = system.metrics.report(system.now)
        assert report.useful_pulls + report.redundant_pulls + report.idle_pulls == report.pulls
        assert 0.0 <= report.efficiency <= 1.0
        assert report.mean_buffer_occupancy <= capacity

    @given(configs, st.integers(0, 2**16))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_determinism_for_any_legal_config(self, config, seed):
        params = Parameters(**config)
        a = CollectionSystem(params, seed=seed).run(1.0, 2.0)
        b = CollectionSystem(params, seed=seed).run(1.0, 2.0)
        assert a == b


class TestPathologicalCorners:
    def test_buffer_exactly_one_segment(self):
        """B == s: a peer can hold exactly one segment and nothing else."""
        params = Parameters(
            n_peers=10,
            arrival_rate=4.0,
            gossip_rate=4.0,
            deletion_rate=1.0,
            normalized_capacity=1.0,
            segment_size=4,
            n_servers=1,
            buffer_capacity=4,
        )
        system = CollectionSystem(params, seed=1)
        report = system.run(2.0, 4.0)
        system.consistency_check()
        assert report.blocked_injections > 0  # the cap binds hard

    def test_brutal_churn(self):
        """Mean lifetime far below every other timescale."""
        params = Parameters(
            n_peers=20,
            arrival_rate=4.0,
            gossip_rate=6.0,
            deletion_rate=1.0,
            normalized_capacity=2.0,
            segment_size=3,
            n_servers=2,
            mean_lifetime=0.2,
        )
        system = CollectionSystem(params, seed=2)
        report = system.run(2.0, 4.0)
        system.consistency_check()
        assert report.departures > 200
        assert report.blocks_lost_to_churn > 0

    def test_starved_servers(self):
        """Tiny capacity: almost everything is eventually lost, cleanly."""
        params = Parameters(
            n_peers=20,
            arrival_rate=8.0,
            gossip_rate=4.0,
            deletion_rate=2.0,
            normalized_capacity=0.05,
            segment_size=2,
            n_servers=1,
        )
        system = CollectionSystem(params, seed=3)
        report = system.run(2.0, 6.0)
        system.consistency_check()
        assert report.segments_lost > report.segments_completed

    def test_gossip_disabled_no_coding_degenerates_to_local_buffering(self):
        params = Parameters(
            n_peers=15,
            arrival_rate=3.0,
            gossip_rate=0.0,
            deletion_rate=1.0,
            normalized_capacity=1.0,
            segment_size=1,
            n_servers=1,
        )
        system = CollectionSystem(params, seed=4)
        report = system.run(3.0, 5.0)
        assert report.gossip_transfers == 0
        # every block lives only at its source: degree == source multiplicity
        for state in system.registry.live_states():
            holders = sum(
                1 for peer in system.peers if state.segment_id in peer.holdings
            )
            assert holders <= 1

    def test_single_peer_session(self):
        """One peer, one server: gossip has no targets, pulls still work."""
        params = Parameters(
            n_peers=1,
            arrival_rate=3.0,
            gossip_rate=5.0,
            deletion_rate=1.0,
            normalized_capacity=2.0,
            segment_size=2,
            n_servers=1,
        )
        system = CollectionSystem(params, seed=5)
        report = system.run(2.0, 5.0)
        system.consistency_check()
        assert report.gossip_transfers == 0
        assert report.useful_pulls > 0

    def test_rlnc_under_churn_stays_consistent(self):
        params = Parameters(
            n_peers=15,
            arrival_rate=2.0,
            gossip_rate=5.0,
            deletion_rate=1.0,
            normalized_capacity=1.5,
            segment_size=3,
            n_servers=1,
            mean_lifetime=1.0,
            mode="rlnc",
        )
        system = CollectionSystem(params, seed=6)
        system.run_until(6.0)
        system.consistency_check()

    def test_extreme_ttl_rates(self):
        """Blocks die almost immediately: the network barely holds data."""
        params = Parameters(
            n_peers=15,
            arrival_rate=4.0,
            gossip_rate=4.0,
            deletion_rate=20.0,
            normalized_capacity=2.0,
            segment_size=2,
            n_servers=1,
        )
        system = CollectionSystem(params, seed=7)
        report = system.run(2.0, 4.0)
        system.consistency_check()
        # occupancy ~ (lambda + mu') / gamma: well under one block per peer
        assert report.mean_buffer_occupancy < 1.5
