"""Tests for the measurement instrumentation."""

import math

import pytest

from repro.sim.metrics import MetricsCollector, WindowedAverage


class TestWindowedAverage:
    def test_constant_value(self):
        avg = WindowedAverage(5.0, now=0.0)
        assert avg.average(10.0) == 5.0

    def test_step_change(self):
        avg = WindowedAverage(0.0, now=0.0)
        avg.update(5.0, 10.0)  # 0 for 5 units, then 10
        assert avg.average(10.0) == pytest.approx(5.0)

    def test_add_delta(self):
        avg = WindowedAverage(2.0, now=0.0)
        avg.add(4.0, 3.0)  # 2 for 4 units, then 5
        assert avg.average(8.0) == pytest.approx((2 * 4 + 5 * 4) / 8)

    def test_reset_discards_history(self):
        avg = WindowedAverage(100.0, now=0.0)
        avg.update(10.0, 1.0)
        avg.reset(10.0)
        assert avg.average(20.0) == pytest.approx(1.0)

    def test_zero_width_window(self):
        avg = WindowedAverage(3.0, now=2.0)
        assert avg.average(2.0) == 3.0

    def test_time_backwards_raises(self):
        avg = WindowedAverage(0.0, now=5.0)
        with pytest.raises(ValueError):
            avg.update(4.0, 1.0)

    def test_value_attribute_tracks_current(self):
        avg = WindowedAverage(0.0, now=0.0)
        avg.add(1.0, 2.0)
        avg.add(2.0, -1.0)
        assert avg.value == 1.0


class TestWindowCounts:
    def test_counts_before_the_window_stay_out_of_it(self):
        collector = MetricsCollector(
            n_peers=1, arrival_rate=1.0, segment_size=1, normalized_capacity=1.0
        )
        collector.pulls += 1
        assert collector.window_count("pulls") == 0  # no window yet
        collector.begin_window(1.0)
        collector.pulls += 3
        assert collector.pulls == 4
        assert collector.window_count("pulls") == 3
        collector.begin_window(2.0)
        assert collector.pulls == 4
        assert collector.window_count("pulls") == 0
        assert collector.snapshot(2.0)["counters"]["pulls"] == 0


class TestMetricsCollector:
    def make(self, n=10, lam=2.0, s=4, c=1.0):
        collector = MetricsCollector(
            n_peers=n, arrival_rate=lam, segment_size=s, normalized_capacity=c
        )
        collector.set_deletion_rate(1.0)
        return collector

    def test_initial_state_all_empty(self):
        collector = self.make()
        assert collector.empty_peers.value == 10.0
        assert collector.total_blocks.value == 0.0
        assert not collector.in_window

    def test_begin_window_resets(self):
        collector = self.make()
        collector.pulls += 5
        collector.begin_window(10.0)
        assert collector.in_window
        assert collector.window_count("pulls") == 0
        assert collector.pulls == 5

    def test_report_throughput_math(self):
        collector = self.make(n=10, lam=2.0)
        collector.begin_window(0.0)
        for _ in range(40):
            collector.pulls += 1
            collector.useful_pulls += 1
        report = collector.report(10.0)
        assert report.throughput == pytest.approx(4.0)
        # demand = 10 * 2 = 20
        assert report.normalized_throughput == pytest.approx(0.2)
        assert report.efficiency == 1.0
        assert report.window == 10.0

    def test_report_efficiency_with_redundant(self):
        collector = self.make()
        collector.begin_window(0.0)
        for _ in range(3):
            collector.pulls += 1
        collector.useful_pulls += 1
        collector.redundant_pulls += 2
        report = collector.report(1.0)
        assert report.efficiency == pytest.approx(1 / 3)
        assert report.redundant_pulls == 2

    def test_delay_accounting(self):
        collector = self.make(s=4)
        collector.begin_window(0.0)
        collector.on_segment_completed(10.0, injected_at=2.0, size=4)
        collector.on_segment_completed(12.0, injected_at=4.0, size=4)
        report = collector.report(20.0)
        assert report.mean_segment_delay == pytest.approx(8.0)
        assert report.mean_block_delay == pytest.approx(2.0)
        assert report.delay_samples == 2
        # goodput: 8 original blocks over 20 time units
        assert report.goodput == pytest.approx(0.4)

    def test_no_delay_samples_reports_none(self):
        collector = self.make()
        collector.begin_window(0.0)
        report = collector.report(5.0)
        assert report.mean_segment_delay is None
        assert report.mean_block_delay is None
        assert report.p50_block_delay is None
        assert report.p95_block_delay is None

    def test_delay_percentiles(self):
        collector = self.make(s=2)
        collector.begin_window(0.0)
        for delay in (2.0, 4.0, 6.0, 8.0, 100.0):
            collector.on_segment_completed(delay, injected_at=0.0, size=2)
        report = collector.report(200.0)
        assert report.p50_block_delay == pytest.approx(6.0 / 2)
        assert report.p95_block_delay > report.p50_block_delay
        assert report.p95_block_delay <= 100.0 / 2
        assert report.delay_samples == 5

    def test_completions_before_window_ignored(self):
        collector = self.make()
        collector.on_segment_completed(1.0, injected_at=0.0, size=4)
        collector.begin_window(2.0)
        report = collector.report(10.0)
        assert report.delay_samples == 0
        assert report.segments_completed == 0

    def test_storage_overhead_derivation(self):
        collector = self.make(n=2, lam=3.0)
        collector.begin_window(0.0)
        collector.total_blocks.update(0.0, 16.0)  # 8 per peer
        report = collector.report(4.0)
        assert report.mean_buffer_occupancy == pytest.approx(8.0)
        # overhead = rho - lambda/gamma = 8 - 3
        assert report.storage_overhead == pytest.approx(5.0)

    def test_storage_overhead_nan_without_gamma(self):
        collector = MetricsCollector(
            n_peers=2, arrival_rate=1.0, segment_size=1, normalized_capacity=1.0
        )
        collector.begin_window(0.0)
        assert math.isnan(collector.report(1.0).storage_overhead)

    def test_saved_blocks_per_peer(self):
        collector = self.make(n=5, s=4)
        collector.begin_window(0.0)
        collector.saved_segments.update(0.0, 10.0)
        report = collector.report(2.0)
        # 10 segments * 4 blocks / 5 peers
        assert report.saved_blocks_per_peer == pytest.approx(8.0)

    def test_as_dict_replaces_none_with_nan(self):
        collector = self.make()
        collector.begin_window(0.0)
        flat = collector.report(1.0).as_dict()
        assert math.isnan(flat["mean_block_delay"])
        assert flat["n_peers"] == 10.0
