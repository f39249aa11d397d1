"""Fluid-limit transients: the ODE model under time-varying demand.

Sec. 3's ODEs are derived for constant λ, but nothing in the derivation
requires it: the injection terms simply pick up λ(t).  This module extends
:class:`repro.analysis.ode.CollectionODE` with a workload-driven arrival
rate and records full trajectories, giving the *fluid-limit* view of the
paper's motivating scenario — a flash crowd washing over the buffer pool —
to set against the finite-N event simulation:

- buffered blocks per peer ``e(t)`` swelling through the burst and
  draining afterwards (the "buffering zone"),
- instantaneous useful-collection rate (the "smoothing factor"),
- the saved-for-future-delivery reserve of Theorem 4 as a function of time.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

# numpy 2.x renamed trapz -> trapezoid; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from repro.analysis.ode import CollectionODE
from repro.stats.workload import Workload
from repro.util.validation import require_positive


@dataclass(frozen=True)
class Trajectory:
    """Recorded fluid trajectories on a fixed time grid (all per peer)."""

    times: np.ndarray
    demand: np.ndarray  # lambda(t)
    occupancy: np.ndarray  # e(t): buffered blocks
    empty_fraction: np.ndarray  # z0(t)
    collection_rate: np.ndarray  # useful pulls per peer per unit time
    saved_blocks: np.ndarray  # Theorem 4 reserve: s * sum_{i>=s}(w_i - m_i^s)

    def peak_occupancy(self) -> float:
        """Largest buffered volume reached during the horizon."""
        return float(self.occupancy.max())

    def collected_fraction(self) -> float:
        """Usefully collected blocks / generated blocks over the horizon."""
        generated = float(_trapezoid(self.demand, self.times))
        collected = float(_trapezoid(self.collection_rate, self.times))
        return collected / generated if generated > 0 else 0.0


class TransientCollectionODE(CollectionODE):
    """The coupled (7)+(12) systems with workload-driven λ(t).

    The peak workload rate sizes the truncations; the dynamics read
    ``workload.rate(t)`` through :meth:`arrival_rate`.  Keep the workload
    peak at or below the sizing rate or the truncation may clip mass (the
    constructor enforces this).
    """

    def __init__(
        self,
        workload: Workload,
        gossip_rate: float,
        deletion_rate: float,
        segment_size: int,
        normalized_capacity: float,
    ) -> None:
        peak = require_positive("workload.max_rate", workload.max_rate)
        super().__init__(
            arrival_rate=peak,  # size truncations for the worst case
            gossip_rate=gossip_rate,
            deletion_rate=deletion_rate,
            segment_size=segment_size,
            normalized_capacity=normalized_capacity,
        )
        self.workload = workload

    def arrival_rate(self, t: float) -> float:
        return self.workload.rate(t)

    def simulate(self, t_end: float, n_points: int = 200) -> Trajectory:
        """Integrate from empty to *t_end* recording *n_points* evenly
        spaced samples.  The system is stiff (deletion at i·γ beside
        injection at λ/s), so BDF, with the generator as its Jacobian."""
        require_positive("t_end", t_end)
        if n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {n_points}")
        from scipy.integrate import solve_ivp
        times = np.linspace(0.0, t_end, n_points)
        solution = solve_ivp(
            self.rhs,
            (0.0, t_end),
            self.initial_state(),
            method="BDF",
            t_eval=times,
            rtol=1e-6,
            atol=1e-9,
            jac=self.jac,
        )
        if not solution.success:
            raise RuntimeError(f"transient integration failed: {solution.message}")
        return self._record(times, solution.y)

    def _record(self, times: np.ndarray, states: np.ndarray) -> Trajectory:
        """Per-peer observables of the sampled states (one column each)."""
        s = self.s
        z = states[: self._n_z]
        m = states[self._n_z :].reshape(self.i_max, s + 1, -1)  # rows i = 1..
        e = self._z_degrees @ z
        # useful pull rate per peer: c * P(draw lands on a needed segment)
        # = c * (1 - redundant edge fraction)
        redundant = np.arange(1, self.i_max + 1, dtype=float) @ m[:, s]
        nonempty = e > 1e-9
        collection = np.zeros_like(e)
        collection[nonempty] = self.c * (1.0 - redundant[nonempty] / e[nonempty])
        w = m.sum(axis=1)
        return Trajectory(
            times=times,
            demand=np.array([self.workload.rate(t) for t in times]),
            occupancy=e,
            empty_fraction=z[0].copy(),
            collection_rate=collection,
            saved_blocks=s * (w[s - 1 :] - m[s - 1 :, s]).sum(axis=0),
        )
