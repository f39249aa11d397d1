"""Tests for protocol parameter validation and derived quantities."""

import math

import pytest

from repro.core.params import (
    MODE_ABSTRACT,
    MODE_RLNC,
    Parameters,
    SELECTION_PROPORTIONAL,
    SELECTION_UNIFORM,
)


def make(**overrides):
    defaults = dict(
        n_peers=100,
        arrival_rate=20.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=8.0,
        segment_size=10,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


class TestValidation:
    def test_valid_defaults(self):
        params = make()
        assert params.mode == MODE_ABSTRACT
        assert params.segment_selection == SELECTION_PROPORTIONAL

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_peers", 0),
            ("n_peers", -5),
            ("arrival_rate", 0.0),
            ("arrival_rate", -1.0),
            ("gossip_rate", -1.0),
            ("deletion_rate", 0.0),
            ("normalized_capacity", 0.0),
            ("segment_size", 0),
            ("n_servers", 0),
            ("mean_lifetime", 0.0),
            ("mean_lifetime", -2.0),
            ("payload_bytes", -1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            make(**{field: value})

    def test_zero_gossip_rate_allowed(self):
        assert make(gossip_rate=0.0).gossip_rate == 0.0

    def test_more_servers_than_peers_rejected(self):
        with pytest.raises(ValueError):
            make(n_peers=4, n_servers=5)

    def test_buffer_below_segment_rejected(self):
        with pytest.raises(ValueError):
            make(segment_size=10, buffer_capacity=5)

    def test_payload_requires_rlnc(self):
        with pytest.raises(ValueError):
            make(payload_bytes=32)
        assert make(payload_bytes=32, mode=MODE_RLNC).payload_bytes == 32

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make(mode="quantum")

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            make(segment_selection="by-vibes")

    def test_frozen(self):
        with pytest.raises(Exception):
            make().n_peers = 5


class TestDerived:
    def test_segment_arrival_rate(self):
        assert make(arrival_rate=20.0, segment_size=10).segment_arrival_rate == 2.0

    def test_per_server_rate(self):
        params = make(n_peers=100, normalized_capacity=8.0, n_servers=4)
        assert params.per_server_rate == 200.0
        assert params.aggregate_capacity == 800.0

    def test_capacity_ratio(self):
        assert make(normalized_capacity=8.0, arrival_rate=20.0).capacity_ratio == 0.4

    def test_occupancy_bounds(self):
        params = make(arrival_rate=20.0, gossip_rate=10.0, deletion_rate=2.0)
        assert params.occupancy_upper_bound == 15.0
        assert params.storage_overhead_bound == 5.0

    def test_auto_buffer_capacity_clears_occupancy(self):
        params = make()
        assert params.effective_buffer_capacity > params.occupancy_upper_bound
        assert params.effective_buffer_capacity >= 3 * params.segment_size

    def test_explicit_buffer_capacity_respected(self):
        assert make(buffer_capacity=64).effective_buffer_capacity == 64

    def test_churn_enabled(self):
        assert not make().churn_enabled
        assert not make(mean_lifetime=math.inf).churn_enabled
        assert make(mean_lifetime=5.0).churn_enabled

    def test_is_coded(self):
        assert not make(segment_size=1).is_coded
        assert make(segment_size=2).is_coded

    def test_capacity_assumption(self):
        assert make(normalized_capacity=8.0, gossip_rate=10.0).satisfies_capacity_assumption
        assert not make(normalized_capacity=12.0, gossip_rate=10.0).satisfies_capacity_assumption

    def test_with_changes(self):
        params = make()
        changed = params.with_changes(segment_size=5)
        assert changed.segment_size == 5
        assert params.segment_size == 10
        with pytest.raises(ValueError):
            params.with_changes(segment_size=0)

    def test_describe_mentions_key_symbols(self):
        text = make(mean_lifetime=5.0).describe()
        for token in ("N=100", "s=10", "L=5", "mode=abstract"):
            assert token in text
        assert "static" in make().describe()
