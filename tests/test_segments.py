"""Tests for the segment registry: degrees, states, lifecycle accounting."""

import pytest

from repro.core.segments import SegmentRegistry, SegmentState
from repro.sim.metrics import MetricsCollector


def make_registry(use_decoders=False, n=10, s=3):
    metrics = MetricsCollector(
        n_peers=n, arrival_rate=1.0, segment_size=s, normalized_capacity=1.0
    )
    metrics.begin_window(0.0)
    return SegmentRegistry(metrics, use_decoders=use_decoders), metrics


class TestLifecycle:
    def test_create_assigns_unique_ids(self):
        registry, _ = make_registry()
        a = registry.create(source_peer=0, size=3, now=0.0)
        b = registry.create(source_peer=1, size=3, now=0.0)
        assert a.segment_id != b.segment_id
        assert len(registry) == 2
        assert a.segment_id in registry

    def test_degree_tracking(self):
        registry, _ = make_registry()
        state = registry.create(source_peer=0, size=3, now=0.0)
        for _ in range(3):
            registry.on_block_added(state, 0.0)
        assert state.network_degree == 3
        registry.on_block_removed(state, 1.0)
        assert state.network_degree == 2

    def test_degree_underflow_raises(self):
        registry, _ = make_registry()
        state = registry.create(source_peer=0, size=3, now=0.0)
        with pytest.raises(RuntimeError):
            registry.on_block_removed(state, 0.0)

    def test_extinction_removes_and_counts_loss(self):
        registry, metrics = make_registry()
        state = registry.create(source_peer=0, size=3, now=0.0)
        registry.on_block_added(state, 0.0)
        registry.on_block_removed(state, 1.0)
        assert state.segment_id not in registry
        assert metrics.window_count("segments_lost") == 1
        assert registry.lost_segment_ids == [state.segment_id]

    def test_extinction_after_completion_is_not_loss(self):
        registry, metrics = make_registry(s=1)
        state = registry.create(source_peer=0, size=1, now=0.0)
        registry.on_block_added(state, 0.0)
        assert registry.on_server_block(state, 0.5)
        registry.on_block_removed(state, 1.0)
        assert metrics.window_count("segments_lost") == 0
        assert registry.completed_count == 1


class TestServerCollection:
    def test_abstract_state_advances_until_complete(self):
        registry, metrics = make_registry(s=3)
        state = registry.create(source_peer=0, size=3, now=0.0)
        registry.on_block_added(state, 0.0)
        assert registry.on_server_block(state, 0.1)
        assert registry.on_server_block(state, 0.2)
        assert not state.is_complete
        assert registry.on_server_block(state, 0.3)
        assert state.is_complete
        assert state.completed_at == 0.3
        assert not registry.on_server_block(state, 0.4)  # redundant
        assert state.collected == 3

    def test_completion_records_delay(self):
        registry, metrics = make_registry(s=2)
        state = registry.create(source_peer=0, size=2, now=1.0)
        registry.on_block_added(state, 1.0)
        registry.on_server_block(state, 2.0)
        registry.on_server_block(state, 5.0)
        report = metrics.report(10.0)
        assert report.mean_segment_delay == pytest.approx(4.0)
        assert report.segments_completed == 1

    def test_on_complete_callback_fires_once(self):
        registry, _ = make_registry(s=1)
        seen = []
        registry.on_complete = seen.append
        state = registry.create(source_peer=2, size=1, now=0.0)
        registry.on_block_added(state, 0.0)
        registry.on_server_block(state, 0.1)
        registry.on_server_block(state, 0.2)
        assert seen == [state]

    def test_on_useful_pull_callback(self):
        registry, _ = make_registry(s=2)
        pulls = []
        registry.on_useful_pull = pulls.append
        state = registry.create(source_peer=0, size=2, now=0.0)
        registry.on_block_added(state, 0.0)
        registry.on_server_block(state, 0.1)
        registry.on_server_block(state, 0.2)
        registry.on_server_block(state, 0.3)  # redundant, no callback
        assert pulls == [state, state]

    def test_rlnc_mode_requires_block(self):
        registry, _ = make_registry(use_decoders=True, s=2)
        state = registry.create(source_peer=0, size=2, now=0.0)
        with pytest.raises(ValueError):
            registry.on_server_block(state, 0.0)


class TestPopulations:
    def test_decodable_and_saved_flags(self):
        registry, metrics = make_registry(s=2)
        state = registry.create(source_peer=0, size=2, now=0.0)
        registry.on_block_added(state, 0.0)
        assert metrics.decodable_segments.value == 0
        registry.on_block_added(state, 0.0)
        assert metrics.decodable_segments.value == 1
        assert metrics.saved_segments.value == 1
        # completion clears "saved" but not "decodable"
        registry.on_server_block(state, 0.1)
        registry.on_server_block(state, 0.2)
        assert metrics.saved_segments.value == 0
        assert metrics.decodable_segments.value == 1
        # dropping below s clears decodable
        registry.on_block_removed(state, 0.3)
        assert metrics.decodable_segments.value == 0

    def test_saved_segment_count_scan_matches_flags(self):
        registry, metrics = make_registry(s=2)
        for i in range(4):
            state = registry.create(source_peer=i, size=2, now=0.0)
            for _ in range(i + 1):
                registry.on_block_added(state, 0.0)
        assert registry.saved_segment_count() == int(
            metrics.saved_segments.value
        )

    def test_histograms(self):
        registry, _ = make_registry(s=2)
        a = registry.create(source_peer=0, size=2, now=0.0)
        b = registry.create(source_peer=1, size=2, now=0.0)
        registry.on_block_added(a, 0.0)
        registry.on_block_added(b, 0.0)
        registry.on_block_added(b, 0.0)
        assert registry.degree_histogram() == {1: 1, 2: 1}
        registry.on_server_block(b, 0.1)
        matrix = registry.collection_matrix()
        assert matrix[1] == {0: 1}
        assert matrix[2] == {1: 1}

    def test_get_unknown_raises(self):
        registry, _ = make_registry()
        with pytest.raises(KeyError):
            registry.get(999)
