"""Tests for the fluid-limit transient model (time-varying demand)."""

import numpy as np
import pytest

from repro.analysis.ode import CollectionODE
from repro.analysis.transient import Trajectory, TransientCollectionODE
from repro.stats.workload import ConstantWorkload, FlashCrowdWorkload, ShutoffWorkload


def make_model(workload, s=4, mu=8.0, gamma=1.0, c=3.0):
    return TransientCollectionODE(
        workload=workload,
        gossip_rate=mu,
        deletion_rate=gamma,
        segment_size=s,
        normalized_capacity=c,
    )


class TestConstruction:
    def test_truncation_sized_for_peak(self):
        flash = FlashCrowdWorkload(2.0, 5.0, 8.0, 10.0)  # peak 20
        constant = ConstantWorkload(2.0)
        assert make_model(flash).B > make_model(constant).B

    def test_simulate_validates_arguments(self):
        model = make_model(ConstantWorkload(2.0))
        with pytest.raises(ValueError):
            model.simulate(-1.0)
        with pytest.raises(ValueError):
            model.simulate(5.0, n_points=1)


class TestConstantDemandConsistency:
    def test_converges_to_steady_state(self):
        """Under constant demand the transient must settle onto the
        steady state of the time-invariant model."""
        lam, mu, gamma, s, c = 6.0, 6.0, 1.0, 2, 2.0
        transient = make_model(ConstantWorkload(lam), s=s, mu=mu, gamma=gamma, c=c)
        trajectory = transient.simulate(60.0, n_points=60)
        steady = CollectionODE(lam, mu, gamma, s, c).steady_state()
        assert trajectory.occupancy[-1] == pytest.approx(steady.e, rel=0.02)
        assert trajectory.empty_fraction[-1] == pytest.approx(
            steady.z0, abs=5e-3
        )

    def test_occupancy_monotone_rampup_from_empty(self):
        trajectory = make_model(ConstantWorkload(4.0)).simulate(20.0, n_points=40)
        assert trajectory.occupancy[0] == pytest.approx(0.0, abs=1e-6)
        diffs = np.diff(trajectory.occupancy)
        assert (diffs > -1e-6).all()


class TestFlashCrowd:
    def make_trajectory(self):
        workload = FlashCrowdWorkload(
            base_rate=4.0, burst_start=10.0, burst_end=15.0, multiplier=5.0
        )
        model = make_model(workload, s=4, mu=8.0, gamma=0.5, c=5.0)
        return model.simulate(40.0, n_points=120)

    def test_buffer_swells_through_burst_and_drains(self):
        trajectory = self.make_trajectory()
        times = trajectory.times
        pre = trajectory.occupancy[(times > 8.0) & (times < 10.0)].mean()
        peak = trajectory.peak_occupancy()
        post = trajectory.occupancy[times > 35.0].mean()
        assert peak > 1.5 * pre  # the buffering zone absorbs the burst
        assert post < 1.2 * pre  # and drains back down afterwards

    def test_collection_rate_smoother_than_demand(self):
        """The smoothing factor: server intake varies far less than the
        offered load does."""
        trajectory = self.make_trajectory()
        demand_swing = trajectory.demand.max() / trajectory.demand.min()
        window = trajectory.collection_rate[trajectory.times > 5.0]
        intake_swing = window.max() / window.min()
        assert demand_swing == pytest.approx(5.0)
        assert intake_swing < demand_swing / 2.0

    def test_collection_capped_by_capacity(self):
        trajectory = self.make_trajectory()
        assert (trajectory.collection_rate <= 5.0 + 1e-9).all()

    def test_collected_fraction_below_one(self):
        trajectory = self.make_trajectory()
        assert 0.0 < trajectory.collected_fraction() < 1.0


class TestShutoff:
    def test_saved_reserve_serves_after_demand_ends(self):
        """Theorem 4's scenario at the fluid level: demand stops, the
        buffered reserve keeps the servers collecting."""
        model = make_model(ShutoffWorkload(6.0, cutoff=10.0), s=4, c=2.0)
        trajectory = model.simulate(30.0, n_points=90)
        after = trajectory.times > 11.0
        assert trajectory.demand[after].max() == 0.0
        # collection continues from the reserve for a while after cutoff
        just_after = trajectory.collection_rate[(trajectory.times > 11.0) & (trajectory.times < 15.0)]
        assert just_after.min() > 0.2
        # and the reserve itself decays toward zero
        assert trajectory.saved_blocks[-1] < trajectory.saved_blocks[after][0]


class TestTrajectoryDataclass:
    def test_fields_aligned(self):
        trajectory = make_model(ConstantWorkload(2.0)).simulate(5.0, n_points=10)
        assert isinstance(trajectory, Trajectory)
        n = trajectory.times.shape[0]
        for name in (
            "demand",
            "occupancy",
            "empty_fraction",
            "collection_rate",
            "saved_blocks",
        ):
            assert getattr(trajectory, name).shape == (n,)
