"""The random bipartite graph process of Sec. 3, as the event engine runs it.

Abstract-mode :class:`CollectionSystem` with proportional selection and
random pulls *is* the finite-N graph process: blocks are edges between
peers and segments, and the four operations (inject, gossip, delete,
collect) are its Poisson channels.  Its agreement with the ODE limit and
Theorem 1 lives in ``test_crossmodel.py``; these are the graph identities
and measured trends no other test states.
"""

import pytest

from repro.core.params import Parameters
from repro.core.system import CollectionSystem


def system(seed=0, **overrides):
    defaults = dict(
        n_peers=120,
        arrival_rate=6.0,
        gossip_rate=6.0,
        deletion_rate=1.0,
        segment_size=3,
        normalized_capacity=2.0,
    )
    defaults.update(overrides)
    return CollectionSystem(Parameters(**defaults), seed=seed)


class TestDynamics:
    def test_edges_match_histograms(self):
        s = system()
        s.run_until(6.0)
        edges = s.total_blocks_in_network()
        assert edges > 0
        seg_hist = s.segment_degree_histogram()
        assert sum(d * c for d, c in seg_hist.items()) == edges
        matrix = s.registry.collection_matrix()
        assert sum(d * sum(row.values()) for d, row in matrix.items()) == edges
        assert {d: sum(row.values()) for d, row in matrix.items()} == seg_hist


class TestAgainstTheory:
    def test_throughput_increases_with_s(self):
        low = system(seed=5, segment_size=1).run(8.0, 10.0)
        high = system(seed=5, segment_size=8).run(8.0, 10.0)
        assert high.normalized_throughput > low.normalized_throughput


class TestMeasurement:
    def test_window_excludes_warmup(self):
        report = system(seed=9).run(4.0, 6.0)
        assert report.window == pytest.approx(6.0)
        # pulls in the window should be about c*N*duration
        expected_pulls = 2.0 * 120 * 6.0
        assert report.pulls == pytest.approx(expected_pulls, rel=0.15)
