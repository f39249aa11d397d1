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
from typing import List, Optional

import numpy as np

# numpy 2.x renamed trapz -> trapezoid; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from repro.analysis.ode import CollectionODE, ODEConfig
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

    The *arrival_rate* passed to the base class is used for truncation
    sizing only; the dynamics read ``workload.rate(t)``.  Keep the workload
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
        config: Optional[ODEConfig] = None,
    ) -> None:
        peak = require_positive("workload.max_rate", workload.max_rate)
        super().__init__(
            arrival_rate=peak,  # size truncations for the worst case
            gossip_rate=gossip_rate,
            deletion_rate=deletion_rate,
            segment_size=segment_size,
            normalized_capacity=normalized_capacity,
            config=config,
        )
        self.workload = workload

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        # Temporarily swap in the instantaneous rate; the base RHS reads
        # self.lam.  Single-threaded integration makes this safe.
        sized_lam = self.lam
        try:
            self.lam = self.workload.rate(t)
            if self.lam <= 0.0:
                # Degenerate but legal (shutoff): emulate by a vanishing rate
                # so the injection terms cancel without special-casing.
                self.lam = 1e-300
            return super().rhs(t, y)
        finally:
            self.lam = sized_lam

    def simulate(
        self,
        t_end: float,
        n_points: int = 200,
        y0: Optional[np.ndarray] = None,
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> Trajectory:
        """Integrate to *t_end* recording *n_points* evenly spaced samples."""
        require_positive("t_end", t_end)
        if n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {n_points}")
        if y0 is None:
            y0 = self.initial_state()
        from scipy.integrate import solve_ivp
        times = np.linspace(0.0, t_end, n_points)
        solution = solve_ivp(
            self.rhs,
            (0.0, t_end),
            y0,
            method="RK45",
            t_eval=times,
            rtol=rtol,
            atol=atol,
        )
        if not solution.success:
            raise RuntimeError(f"transient integration failed: {solution.message}")
        return self._record(times, solution.y)

    def _record(self, times: np.ndarray, states: np.ndarray) -> Trajectory:
        s = self.s
        degrees_z = np.arange(self.B + 1, dtype=float)
        degrees_m = np.arange(self.i_max + 1, dtype=float)
        demand: List[float] = []
        occupancy: List[float] = []
        empty: List[float] = []
        collection: List[float] = []
        saved: List[float] = []
        for index, t in enumerate(times):
            y = states[:, index]
            z = y[: self._n_z]
            m_rows = y[self._n_z :].reshape(self.i_max, s + 1)
            m = np.zeros((self.i_max + 1, s + 1))
            m[1:, :] = m_rows
            e = float(degrees_z @ z)
            demand.append(self.workload.rate(t))
            occupancy.append(e)
            empty.append(float(z[0]))
            # useful pull rate per peer: c * P(draw lands on a needed
            # segment) = c * (1 - redundant edge fraction)
            if e > 1e-9:
                redundant_edges = float(degrees_m @ m[:, s])
                collection.append(self.c * (1.0 - redundant_edges / e))
            else:
                collection.append(0.0)
            w = m.sum(axis=1)
            saved.append(s * float((w[s:] - m[s:, s]).sum()))
        return Trajectory(
            times=times,
            demand=np.array(demand),
            occupancy=np.array(occupancy),
            empty_fraction=np.array(empty),
            collection_rate=np.array(collection),
            saved_blocks=np.array(saved),
        )
