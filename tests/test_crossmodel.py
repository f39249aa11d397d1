"""Cross-model agreement: the three fidelity levels must tell one story.

DESIGN.md §4 promises that the ODE limit, the abstract event simulator (the
finite-N bipartite graph process), and the full-RLNC simulator validate
each other.
These tests pin that agreement with explicit tolerances at one mid-size
configuration per comparison (kept small enough for CI).
"""

import pytest

from repro.analysis.ode import CollectionODE
from repro.analysis.theorems import (
    analyze,
    theorem1_storage,
    theorem2_throughput,
    theorem2_throughput_s1,
)
from repro.core.params import Parameters
from repro.core.system import CollectionSystem

LAM, MU, GAMMA, C = 10.0, 8.0, 1.0, 4.0


def simulate(s, n_peers=150, seed=1, **overrides):
    params = Parameters(
        n_peers=n_peers,
        arrival_rate=LAM,
        gossip_rate=MU,
        deletion_rate=GAMMA,
        normalized_capacity=C,
        segment_size=s,
        n_servers=3,
        **overrides,
    )
    return CollectionSystem(params, seed=seed).run(warmup=12.0, duration=15.0)


class TestThroughputAgreement:
    def test_sim_matches_ode_coded(self):
        steady = CollectionODE(LAM, MU, GAMMA, 8, C).steady_state()
        predicted = theorem2_throughput(steady, LAM, C, 8).normalized_throughput
        report = simulate(8)
        assert report.normalized_throughput == pytest.approx(predicted, rel=0.06)

    def test_sim_matches_closed_form_uncoded(self):
        predicted = theorem2_throughput_s1(LAM, MU, GAMMA, C).normalized_throughput
        report = simulate(1)
        assert report.normalized_throughput == pytest.approx(predicted, rel=0.06)

    def test_rlnc_close_to_abstract(self):
        """Real GF(2^8) coding loses only a little to non-innovative draws."""
        abstract = simulate(4, n_peers=50, seed=3)
        rlnc = simulate(4, n_peers=50, seed=3, mode="rlnc")
        assert rlnc.normalized_throughput <= abstract.normalized_throughput + 0.02
        assert rlnc.normalized_throughput > 0.6 * abstract.normalized_throughput


class TestOccupancyAgreement:
    def test_all_models_agree_on_rho(self):
        closed = theorem1_storage(LAM, MU, GAMMA).occupancy
        steady = CollectionODE(LAM, MU, GAMMA, 4, C).steady_state()
        assert steady.e == pytest.approx(closed, rel=0.02)

        report = simulate(4)
        assert report.mean_buffer_occupancy == pytest.approx(closed, rel=0.08)

    def test_empty_fraction_agrees(self):
        lam, mu = 1.0, 1.5  # a sparse regime where z0 is substantial
        closed = theorem1_storage(lam, mu, GAMMA)
        params = Parameters(
            n_peers=200,
            arrival_rate=lam,
            gossip_rate=mu,
            deletion_rate=GAMMA,
            normalized_capacity=0.5,
            segment_size=1,
            n_servers=2,
        )
        report = CollectionSystem(params, seed=5).run(15.0, 20.0)
        assert report.empty_peer_fraction == pytest.approx(closed.z0, abs=0.05)


@pytest.fixture(scope="module")
def busy_s8():
    """One busy s = 8 run, shared by the Theorem 1 and Theorem 4 checks."""
    params = Parameters(
        n_peers=120,
        arrival_rate=LAM,
        gossip_rate=MU,
        deletion_rate=GAMMA,
        normalized_capacity=C,
        segment_size=8,
        n_servers=3,
    )
    report = CollectionSystem(params, seed=5).run(10.0, 14.0)
    return report, analyze(LAM, MU, GAMMA, 8, C)


class TestSavedDataAgreement:
    def test_saved_blocks_match_theorem4(self, busy_s8):
        """Finite N saves ~8-11% less than the limit over seeds 1-5."""
        report, point = busy_s8
        predicted = point.saved.saved_blocks_per_peer
        assert report.saved_blocks_per_peer == pytest.approx(predicted, rel=0.15)

    def test_busy_network_has_no_empty_peers(self, busy_s8):
        """z0 ~ 1e-8 here, so the check is on an absolute 0.01 scale."""
        report, point = busy_s8
        assert point.storage.z0 < 1e-6
        assert report.empty_peer_fraction == pytest.approx(point.storage.z0, abs=0.01)


class TestDistributionAgreement:
    def test_peer_degrees_are_poisson_like(self):
        """Theorem 1's z_i = z0 rho^i / i! against a simulated snapshot."""
        from repro.analysis.theorems import poisson_degree_distribution

        lam, mu = 3.0, 2.0  # rho = 5: distribution fits in a short range
        params = Parameters(
            n_peers=400,
            arrival_rate=lam,
            gossip_rate=mu,
            deletion_rate=GAMMA,
            normalized_capacity=1.0,
            segment_size=1,
            n_servers=2,
        )
        system = CollectionSystem(params, seed=6)
        system.run_until(25.0)
        observed = system.rescaled_peer_degrees()
        storage = theorem1_storage(lam, mu, GAMMA)
        predicted = poisson_degree_distribution(
            storage.occupancy, storage.z0, len(observed) - 1
        )
        # total-variation distance between snapshot and Poisson prediction
        tv = 0.5 * sum(
            abs(o - p) for o, p in zip(observed, predicted)
        )
        assert tv < 0.12

    def test_segment_degree_means_agree(self):
        """Mean segment degree e / (segments per peer): ODE vs simulator."""
        steady = CollectionODE(LAM, MU, GAMMA, 4, C).steady_state()
        ode_mean_degree = steady.e / steady.segments_per_peer

        system = CollectionSystem(
            Parameters(
                n_peers=150,
                arrival_rate=LAM,
                gossip_rate=MU,
                deletion_rate=GAMMA,
                normalized_capacity=C,
                segment_size=4,
                n_servers=3,
            ),
            seed=7,
        )
        system.run_until(20.0)
        histogram = system.segment_degree_histogram()
        total_segments = sum(histogram.values())
        total_edges = sum(d * c for d, c in histogram.items())
        sim_mean_degree = total_edges / total_segments
        assert sim_mean_degree == pytest.approx(ode_mean_degree, rel=0.15)
