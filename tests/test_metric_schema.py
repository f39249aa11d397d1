"""One table of metric names, one fold from snapshots to report fields.

``repro.sim.metrics`` names every window counter once (``COUNTERS``) and
computes every report once (``fold_report``); the event engine's collector,
the fastsim shard merge and the live swarm aggregate all go through it.
These tests pin the fold's algebra — a split of the same tallies over any
number of observers reports what one observer of all of them reports — and
guard the single statement against growing back copies.
"""

import ast
import dataclasses
import inspect
import math
import re
import textwrap
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fastsim.shard
import repro.sim.metrics
from repro.core.params import Parameters
from repro.fastsim.system import FastCollectionSystem
from repro.live.livemetrics import (
    COLLECTOR_COUNTERS,
    LIVE_ONLY_COUNTERS,
    PEER_COUNTERS,
    CollectorStats,
    PeerStats,
    aggregate_report,
)
from repro.sim.metrics import (
    AVERAGES,
    COUNTERS,
    DelaySummary,
    MetricsCollector,
    MetricsReport,
    fold_report,
)

SRC = Path(repro.sim.metrics.__file__).resolve().parents[1]

#: Times are multiples of 1/8 inside a window of width 8 and every tally is
#: an integer, so each integral, average and sum below is exact in doubles
#: and "equals" can mean ``==``.
MARK, END = 2.0, 10.0
POPULATION_AVERAGES = AVERAGES[:-1]

ticks = st.integers(min_value=0, max_value=64).map(lambda k: MARK + k / 8)
events = st.lists(
    st.tuples(
        ticks,
        st.integers(min_value=0, max_value=3),  # which observer
        st.one_of(
            st.tuples(
                st.sampled_from(COUNTERS), st.integers(min_value=1, max_value=9)
            ),
            st.tuples(
                st.sampled_from(POPULATION_AVERAGES),
                st.integers(min_value=0, max_value=5),
            ),
            st.tuples(st.just("servers_down"), st.integers(0, 1)),
            st.tuples(st.just("completed"), st.integers(1, 40)),
        ),
    ),
    max_size=60,
).map(lambda rows: sorted(rows, key=lambda row: row[0]))


def collector(n_peers):
    metrics = MetricsCollector(n_peers, 0.5, 4, 0.25)
    metrics.set_deletion_rate(0.125)
    metrics.begin_window(MARK)
    return metrics


def apply(metrics, now, what, amount):
    if what in COUNTERS:
        setattr(metrics, what, getattr(metrics, what) + amount)
    elif what == "completed":
        metrics.on_segment_completed(now, now - amount / 8, 4)
    elif what == "servers_down":
        # an indicator every observer of the servers shares, not a total
        metrics.servers_down.update(now, float(amount))
    else:
        getattr(metrics, what).add(now, float(amount))


class TestFoldAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(events, st.integers(min_value=1, max_value=4))
    def test_split_over_k_collectors_folds_to_one(self, script, k):
        sizes = [8, 4, 2, 2][:k]
        parts = [collector(size) for size in sizes]
        whole = collector(sum(sizes))
        for now, index, (what, amount) in script:
            if what == "servers_down":
                for metrics in parts + [whole]:
                    apply(metrics, now, what, amount)
                continue
            if what == "completed":
                # delays reach the fold as one summary; the parts only
                # split the completion counter
                whole.on_segment_completed(now, now - amount / 8, 4)
                parts[index % k].segments_completed += 1
                continue
            apply(parts[index % k], now, what, amount)
            apply(whole, now, what, amount)
        report = whole.report(END)
        delays = DelaySummary.of_samples(
            whole._delay_samples, whole._delivered_original_blocks
        )
        echo = whole.snapshot(END)
        folded = fold_report(
            echo, [metrics.snapshot(END) for metrics in parts], delays
        )
        expected = dataclasses.asdict(report)
        for name in folded:
            assert folded[name] == expected[name], name
        assert set(expected) - set(folded) == {
            "engine_events_fired",
            "engine_events_cancelled",
            "engine_heap_compactions",
        }

    @settings(max_examples=60, deadline=None)
    @given(events)
    def test_live_split_reports_what_one_collector_reports(self, script):
        """Peers hold the peer-side tallies, the collector the rest: the
        swarm aggregate equals one MetricsCollector that saw everything."""
        n = 4
        params = Parameters(
            n_peers=n, arrival_rate=0.5, gossip_rate=1.0, deletion_rate=0.125,
            normalized_capacity=0.25, segment_size=4, n_servers=1,
        )
        whole = collector(n)
        whole.empty_peers.update(MARK, 0.0)
        peers = [PeerStats() for _ in range(n)]
        server = CollectorStats()
        for stats in peers:
            stats.empty.update(0.0, 0.0)
            stats.begin_window(MARK)
        server.begin_window(MARK)
        for now, index, (what, amount) in script:
            peer = peers[index]
            if what == "servers_down":
                server.servers_down.update(now, float(amount))
            elif what == "completed":
                server.on_segment_completed(now, now - amount / 8, 4)
            elif what == "total_blocks":
                peer.occupancy.add(now, float(amount))
            elif what == "empty_peers":
                peer.empty.add(now, float(amount))
            elif what in PEER_COUNTERS and what in COLLECTOR_COUNTERS:
                side = peer if amount % 2 else server
                setattr(side, what, getattr(side, what) + amount)
            elif what in PEER_COUNTERS:
                setattr(peer, what, getattr(peer, what) + amount)
            elif what in COLLECTOR_COUNTERS:
                setattr(server, what, getattr(server, what) + amount)
            else:
                continue  # nobody in a live swarm observes it
            apply(whole, now, what, amount)
        live = aggregate_report(
            params,
            END - MARK,
            server.summary(END, END - MARK),
            [stats.to_wire(END) for stats in peers],
        )
        expected = dataclasses.asdict(whole.report(END))
        for name in expected:
            if not name.startswith("engine_"):
                assert live[name] == expected[name], name
        assert set(live) - set(expected) == set(LIVE_ONLY_COUNTERS)

    def test_a_silent_peer_shrinks_the_population_not_the_mean(self):
        params = Parameters(
            n_peers=2, arrival_rate=0.5, gossip_rate=1.0, deletion_rate=0.125,
            normalized_capacity=0.25, segment_size=4, n_servers=1,
        )
        heard = PeerStats()
        heard.on_buffer_change(0.0, 6)
        live = aggregate_report(
            params, 1.0, CollectorStats().summary(1.0, 1.0), [heard.to_wire(1.0)]
        )
        assert live["n_peers"] == 2
        assert live["mean_buffer_occupancy"] == 6.0
        assert live["empty_peer_fraction"] == 0.0

    def test_unknown_gamma_makes_the_overhead_nan(self):
        snap = collector(1).snapshot(END)
        folded = fold_report(
            {**snap, "deletion_rate": 0.0}, [snap], DelaySummary.of_samples([], 0)
        )
        assert math.isnan(folded["storage_overhead"])
        assert folded["mean_block_delay"] is None


class TestNamedOnce:
    """Every counter is a typed report field plus one table row — no third
    list of names, no second statement of a formula."""

    def test_table_rows_are_report_fields_and_collector_attributes(self):
        fields = {f.name for f in dataclasses.fields(MetricsReport)}
        assert set(COUNTERS) <= fields
        assert len(set(COUNTERS)) == len(COUNTERS)
        metrics = collector(3)
        for name in COUNTERS + AVERAGES:
            assert name in vars(metrics), name  # plain instance attributes

    def test_live_split_names_come_from_the_table(self):
        live = set(PEER_COUNTERS) | set(COLLECTOR_COUNTERS)
        assert set(LIVE_ONLY_COUNTERS) == {
            "offers_sent", "pull_blocks_served", "pull_empty_races",
            "hash_verified", "hash_failures",
        }
        assert live - set(LIVE_ONLY_COUNTERS) - {
            "delivered_original_blocks"
        } <= set(COUNTERS)

    def test_each_counter_is_quoted_once_where_metrics_are_defined(self):
        """In the files that used to enumerate the names, the table quotes
        each once and the engines' metric plumbing quotes none."""
        table = (SRC / "sim" / "metrics.py").read_text()
        plumbing = "".join(
            (SRC / relative).read_text()
            for relative in (
                "fastsim/shard.py", "fastsim/system.py", "fastsim/engine.py",
                "live/livemetrics.py", "live/server.py", "live/peer.py",
                "live/harness.py",
            )
        )
        read_back = ("pulls", "useful_pulls")  # the fold's efficiency
        for name in COUNTERS:
            quoted = re.compile("[\"']%s[\"']" % name)
            assert len(quoted.findall(table)) == 1 + (name in read_back), name
            assert not quoted.search(plumbing), name

    def test_the_copies_are_gone(self):
        for module, names in [
            (repro.fastsim.shard, ("COUNTER_NAMES", "AVERAGE_NAMES")),
            (repro.sim.metrics, ("derived_fields",)),
        ]:
            for name in names:
                assert not hasattr(module, name), name
        for cls in (MetricsCollector, PeerStats, CollectorStats):
            assert not hasattr(cls, "_counters")
            assert not hasattr(cls, "_counter_names")
        # the fold's callers derive nothing themselves
        for caller in (
            repro.fastsim.shard.merge_shard_payloads,
            FastCollectionSystem.report,
            aggregate_report,
        ):
            tree = ast.parse(textwrap.dedent(inspect.getsource(caller)))
            arithmetic = [
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Div, ast.Mult))
            ]
            assert arithmetic == [], caller.__name__
