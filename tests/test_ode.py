"""Tests for the ODE systems of Sec. 3 and their steady-state solver."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.ode import CollectionODE
from repro.analysis.transient import TransientCollectionODE
from repro.stats.workload import ConstantWorkload
from repro.util.validation import (
    require_positive,
    require_positive_int,
    require_rate,
)


def model(s=1, lam=8.0, mu=6.0, gamma=1.0, c=2.0):
    return CollectionODE(
        arrival_rate=lam,
        gossip_rate=mu,
        deletion_rate=gamma,
        segment_size=s,
        normalized_capacity=c,
    )


class TestConfiguration:
    def test_auto_truncations_scale_with_parameters(self):
        small = model(s=1, lam=2.0, mu=2.0)
        large = model(s=1, lam=40.0, mu=20.0)
        assert large.B > small.B
        assert large.i_max > small.i_max

    def test_segment_size_drives_minimums(self):
        m = model(s=30)
        assert m.B >= 90
        assert m.i_max >= 90

    def test_from_parameters(self):
        from repro.core.params import Parameters

        params = Parameters(
            n_peers=10,
            arrival_rate=8.0,
            gossip_rate=6.0,
            deletion_rate=1.0,
            normalized_capacity=2.0,
            segment_size=4,
        )
        m = CollectionODE.from_parameters(params)
        assert m.s == 4 and m.lam == 8.0


class TestConservationLaws:
    def test_z_mass_conserved_by_rhs(self):
        """sum_i dz_i/dt = 0: peers are neither created nor destroyed."""
        m = model(s=4)
        rng = np.random.default_rng(0)
        y = m.initial_state()
        # a random-ish valid state: normalized z plus arbitrary m mass
        z = rng.random(m.B + 1)
        z /= z.sum()
        y[: m.B + 1] = z
        y[m.B + 1 :] = rng.random(y.size - m.B - 1) * 0.1
        dz = m.rhs(0.0, y)[: m.B + 1]
        assert abs(dz.sum()) < 1e-10

    def test_m_mass_balance(self):
        """sum dm/dt = injection - extinction exactly."""
        m = model(s=2)
        rng = np.random.default_rng(1)
        y = m.initial_state()
        z = rng.random(m.B + 1)
        z /= z.sum()
        y[: m.B + 1] = z
        m_rows = rng.random((m.i_max, m.s + 1)) * 0.05
        y[m.B + 1 :] = m_rows.reshape(-1)
        dm = m.rhs(0.0, y)[m.B + 1 :].reshape(m.i_max, m.s + 1)
        injection = m.lam / m.s * z[: m.B - m.s + 1].sum()
        extinction = m_rows[0, :].sum() * m.gamma  # degree-1 rows dying
        assert dm.sum() == pytest.approx(injection - extinction, rel=1e-9)

    def test_empty_network_is_rhs_zero_except_injection(self):
        m = model(s=3)
        y = m.initial_state()
        dy = m.rhs(0.0, y)
        dz = dy[: m.B + 1]
        # only injection moves z: z0 decreases, z_s increases
        assert dz[0] == pytest.approx(-m.lam / m.s)
        assert dz[m.s] == pytest.approx(m.lam / m.s)


class TestSteadyState:
    def test_z_sums_to_one(self):
        steady = model(s=1).steady_state()
        assert steady.z.sum() == pytest.approx(1.0, abs=1e-6)
        assert (steady.z >= -1e-9).all()

    def test_occupancy_matches_theorem1(self):
        # rho = (1 - z0) mu/gamma + lambda/gamma with z0 ~ e^-rho ~ 0
        steady = model(s=1, lam=8.0, mu=6.0, gamma=1.0).steady_state()
        assert steady.e == pytest.approx(14.0, rel=0.01)

    def test_residual_is_small(self):
        steady = model(s=2).steady_state()
        assert steady.residual < 1e-12

    def test_w_is_row_sum_of_m(self):
        steady = model(s=3).steady_state()
        assert np.allclose(steady.w, steady.m.sum(axis=1))

    def test_m_nonnegative(self):
        steady = model(s=4).steady_state()
        assert (steady.m >= 0).all()

    def test_tail_mass_negligible(self):
        steady = model(s=2).steady_state()
        assert steady.tail_mass < 1e-6 * max(steady.w.max(), 1.0)

    def test_edge_density_consistent_between_sides(self):
        """sum i*w_i (segment side) equals sum i*z_i (peer side)."""
        steady = model(s=2).steady_state()
        degrees = np.arange(steady.w.shape[0], dtype=float)
        from_segments = float(degrees @ steady.w)
        assert from_segments == pytest.approx(steady.e, rel=0.01)

    def test_gossip_free_network(self):
        """mu = 0: blocks never replicate; segment degree <= s."""
        steady = model(s=2, mu=0.0).steady_state()
        assert steady.e == pytest.approx(8.0, rel=0.02)  # lambda/gamma
        assert steady.w[3:].sum() < 1e-8

    def test_occupancy_independent_of_s(self):
        """Theorem 1: rho does not depend on the segment size."""
        occupancies = [
            model(s=s).steady_state().e for s in (1, 2, 4, 8)
        ]
        for occupancy in occupancies[1:]:
            assert occupancy == pytest.approx(occupancies[0], rel=0.05)


class TestSteadyZAgainstIntegration:
    """The z fixed point against Eq. (7) integrated to a long horizon, with
    the rules written out here rather than read from the model."""

    @staticmethod
    def eq7(m, z):
        dz = np.zeros_like(z)
        degree = np.arange(m.B + 1, dtype=float)
        if m.mu > 0.0:
            gossip = (1.0 - z[0]) * m.mu / max(1.0 - z[m.B], 1e-12)
            dz[1:] += gossip * z[:-1]
            dz[:-1] -= gossip * z[:-1]
        inject = m.lam / m.s * z[: m.B - m.s + 1]
        dz[: m.B - m.s + 1] -= inject
        dz[m.s :] += inject
        dz[:-1] += m.gamma * degree[1:] * z[1:]
        dz -= m.gamma * degree * z
        return dz

    @pytest.mark.parametrize(
        "lam, mu, s",
        [(8.0, 6.0, 1), (8.0, 0.0, 2), (20.0, 10.0, 5), (8.0, 6.0, 30), (1.0, 2.0, 1)],
    )
    def test_matches_long_lsoda_run(self, lam, mu, s):
        from scipy.integrate import solve_ivp

        m = model(s=s, lam=lam, mu=mu)
        z_start = np.zeros(m.B + 1)
        z_start[0] = 1.0
        solution = solve_ivp(
            lambda t, z: self.eq7(m, z), (0.0, 200.0), z_start,
            method="LSODA", rtol=1e-11, atol=1e-14,
        )
        assert solution.success
        z, residual = m.steady_z()
        assert np.max(np.abs(z - solution.y[:, -1])) < 1e-9
        assert residual < 1e-12

    def test_near_critical_gossip_takes_few_solves(self, monkeypatch):
        """At lambda=0.01, mu=1.1 the plain map shrinks its step by only
        ~0.84 a solve (187 solves); the guarded secant on the gossip rate
        needs 23."""
        solve, solves = np.linalg.solve, []

        def counted(a, b):
            solves.append(a)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        z, residual = model(s=1, lam=0.01, mu=1.1).steady_z()
        assert len(solves) <= 30
        assert residual < 1e-12
        assert z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_step_cap_raises(self, monkeypatch):
        from repro.analysis import ode

        monkeypatch.setattr(ode, "_MAX_FIXED_POINT_STEPS", 2)
        with pytest.raises(RuntimeError, match="fixed point"):
            model(s=1).steady_z()


class _DemandTurnsNaN(ConstantWorkload):
    """Constant demand that turns NaN after t = 1, breaking the solve."""

    def rate(self, t):
        return math.nan if t > 1.0 else super().rate(t)


class TestTransient:
    def test_integration_failure_surfaces(self):
        """The fluid model's time integration raises rather than returning
        a trajectory: on a bad horizon, and when the solve itself breaks."""
        m = TransientCollectionODE(ConstantWorkload(8.0), 6.0, 1.0, 1, 2.0)
        with pytest.raises((RuntimeError, ValueError)):
            m.simulate(float("nan"))
        broken = TransientCollectionODE(_DemandTurnsNaN(8.0), 6.0, 1.0, 1, 2.0)
        with pytest.raises((RuntimeError, ValueError)):
            broken.simulate(5.0)


class SegmentDegreeODE:
    """Standalone integrator of Eq. (8) for the w_i system.

    Exists to *verify* the identity ``w_i = sum_j m_i^j``: the test suite
    integrates this system independently and compares with the row sums of
    the coupled model.  Requires the z-trajectory inputs ``z0`` and ``e`` to
    be supplied (in steady state they are constants).
    """

    def __init__(
        self,
        arrival_rate: float,
        gossip_rate: float,
        deletion_rate: float,
        segment_size: int,
        z0: float,
        e: float,
        i_max: int,
        injection_fraction: float = 1.0,
    ) -> None:
        self.lam = require_rate("arrival_rate", arrival_rate)
        self.mu = require_rate("gossip_rate", gossip_rate, allow_zero=True)
        self.gamma = require_rate("deletion_rate", deletion_rate)
        self.s = require_positive_int("segment_size", segment_size)
        if not 0.0 <= z0 <= 1.0:
            raise ValueError(f"z0 must lie in [0, 1], got {z0}")
        self.z0 = z0
        self.e = require_positive("e", e)
        self.i_max = require_positive_int("i_max", i_max)
        if not 0.0 <= injection_fraction <= 1.0:
            raise ValueError(
                f"injection_fraction must lie in [0, 1], got {injection_fraction}"
            )
        self.injection_fraction = injection_fraction
        self._degrees = np.arange(1, i_max + 1, dtype=float)

    def rhs(self, t: float, w: np.ndarray) -> np.ndarray:
        dw = np.zeros_like(w)
        i = self._degrees
        if self.mu > 0.0:
            growth = (1.0 - self.z0) * self.mu / self.e
            flux = i * w * growth
            flux[-1] = 0.0
            dw -= flux
            dw[1:] += flux[:-1]
        decay = i * w * self.gamma
        dw -= decay
        dw[:-1] += decay[1:]
        dw[self.s - 1] += self.lam / self.s * self.injection_fraction
        return dw

    def steady_state(self, t_end: float = 200.0) -> np.ndarray:
        """Integrate from empty to *t_end*; returns w with a zero row 0."""
        from scipy.integrate import solve_ivp
        solution = solve_ivp(
            self.rhs,
            (0.0, t_end / self.gamma),
            np.zeros(self.i_max),
            method="LSODA",
            rtol=1e-9,
            atol=1e-11,
        )
        if not solution.success:
            raise RuntimeError(f"w-system integration failed: {solution.message}")
        w = np.zeros(self.i_max + 1)
        w[1:] = solution.y[:, -1]
        return w


class TestSegmentDegreeODE:
    def test_matches_coupled_system_row_sums(self):
        """Independent integration of Eq. (8) must agree with the m row
        sums of the coupled system — the w = sum_j m^j identity."""
        coupled = model(s=2, lam=6.0, mu=4.0, c=1.5)
        steady = coupled.steady_state()
        z0 = steady.z0
        standalone = SegmentDegreeODE(
            arrival_rate=6.0,
            gossip_rate=4.0,
            deletion_rate=1.0,
            segment_size=2,
            z0=z0,
            e=steady.e,
            i_max=coupled.i_max,
            injection_fraction=float(
                steady.z[: coupled.B - coupled.s + 1].sum()
            ),
        )
        w_standalone = standalone.steady_state(t_end=300.0)
        assert np.allclose(w_standalone, steady.w, atol=2e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentDegreeODE(1.0, 1.0, 1.0, 1, z0=2.0, e=1.0, i_max=10)
        with pytest.raises(ValueError):
            SegmentDegreeODE(1.0, 1.0, 1.0, 1, z0=0.5, e=-1.0, i_max=10)
        with pytest.raises(ValueError):
            SegmentDegreeODE(
                1.0, 1.0, 1.0, 1, z0=0.5, e=1.0, i_max=10, injection_fraction=2.0
            )


class TestScipyLoadsOnlyInASolve:
    """scipy (~43 MB resident) serves only the analysis solves: importing
    the simulators, the live runtime, the runner or the CLI must not load
    it, so neither does any peer child or shard task."""

    def test_fresh_interpreter(self):
        script = (
            "import sys\n"
            "import repro, repro.cli, repro.core.system, repro.fastsim\n"
            "import repro.live.peer, repro.live.server, repro.runner\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "from repro import CollectionODE\n"
            "steady = CollectionODE(8.0, 6.0, 1.0, 1, 2.0).steady_state()\n"
            "assert 'scipy' in sys.modules\n"
            "print(steady.z0)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert 0.0 < float(done.stdout) < 1.0
