"""The differential-equation characterization of Sec. 3 (Eqs. 7, 8, 12).

The paper maps the protocol onto a random bipartite graph process (segments
versus peers) and derives, in the ``N -> infinity`` limit, three coupled ODE
systems:

- **Eq. (7)** — the rescaled peer-degree distribution ``z_i(t)``
  (``z_i = Y_i / N``: fraction of peers buffering ``i`` blocks),
- **Eq. (8)** — the rescaled segment-degree distribution ``w_i(t)``
  (``w_i = X_i / N``: segments with ``i`` blocks in the network, per peer),
- **Eq. (12)** — the rescaled segment collection matrix ``m_i^j(t)``
  (degree-``i`` segments of which the servers already hold ``j`` linearly
  independent blocks, per peer).

Since ``w_i = sum_j m_i^j`` identically (the collection terms of (12)
telescope over ``j``), we integrate ``z`` and ``m`` and obtain ``w`` as the
row sum — a consistency that the test suite verifies against a standalone
integration of (8).

Truncation: ``z`` is naturally finite (``i <= B``); the segment-degree index
is truncated at ``i_max`` with a reflecting boundary (the transfer flux out
of ``i_max`` is suppressed), which conserves segment mass; the steady-state
solver reports the boundary occupancy so a too-small ``i_max`` is visible
rather than silent.

Fidelity notes — the ODEs inherit the paper's two modeling approximations,
both of which the event simulator does *not* make:

1. degree-proportional segment selection (the "equivalence" assumed above
   Eq. (2)): servers and gossip pick segments with probability proportional
   to degree, whereas the protocol picks a uniform non-empty peer and then a
   uniform buffered segment;
2. every collected coded block of a needed segment is innovative.

Comparing ODE curves with simulation curves therefore reproduces the
analytical-versus-simulation gaps visible in the paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.params import Parameters
from repro.util.validation import (
    require_positive,
    require_positive_int,
    require_rate,
)


@dataclass(frozen=True)
class ODEConfig:
    """Numerical configuration of the ODE integration."""

    #: peer-degree truncation B; None = auto (mean + 8 sigma, >= 3 segments)
    z_max: Optional[int] = None
    #: segment-degree truncation; None = auto (max(4*rho, 3s, 60))
    i_max: Optional[int] = None
    #: integration horizon for the steady-state solve (units of 1/gamma)
    t_end: float = 120.0
    #: solver tolerances
    rtol: float = 1e-8
    atol: float = 1e-10
    #: steady-state acceptance: max |dy/dt| must fall below this
    steady_tol: float = 1e-7
    #: extend integration (doubling t_end) at most this many times
    max_extensions: int = 3

    def __post_init__(self) -> None:
        require_positive("t_end", self.t_end)
        require_positive("rtol", self.rtol)
        require_positive("atol", self.atol)
        require_positive("steady_tol", self.steady_tol)
        if self.z_max is not None:
            require_positive_int("z_max", self.z_max)
        if self.i_max is not None:
            require_positive_int("i_max", self.i_max)


@dataclass(frozen=True)
class SteadyState:
    """Steady-state solution of the coupled systems.

    Attributes:
        z: peer-degree distribution, shape (B+1,), sums to 1.
        w: segment-degree distribution per peer, shape (i_max+1,), index 0
           unused (a degree-0 segment does not exist).
        m: collection matrix per peer, shape (i_max+1, s+1), rows 1..i_max.
        e: average blocks per peer (edge density), ``sum i*z_i``.
        residual: max |dy/dt| at the accepted state.
        tail_mass: ``w[i_max]`` occupancy (truncation diagnostic).
    """

    z: np.ndarray
    w: np.ndarray
    m: np.ndarray
    e: float
    residual: float
    tail_mass: float

    @property
    def z0(self) -> float:
        """Steady-state fraction of empty peers."""
        return float(self.z[0])

    @property
    def segments_per_peer(self) -> float:
        """Total live segments per peer, ``sum_i w_i``."""
        return float(self.w[1:].sum())

    @property
    def occupancy(self) -> float:
        """Mean buffered blocks per peer (Theorem 1's rho)."""
        return self.e


class CollectionODE:
    """Integrator of the coupled (7) + (12) systems for one parameter set."""

    def __init__(
        self,
        arrival_rate: float,
        gossip_rate: float,
        deletion_rate: float,
        segment_size: int,
        normalized_capacity: float,
        config: Optional[ODEConfig] = None,
    ) -> None:
        self.lam = require_rate("arrival_rate", arrival_rate)
        self.mu = require_rate("gossip_rate", gossip_rate, allow_zero=True)
        self.gamma = require_rate("deletion_rate", deletion_rate)
        self.s = require_positive_int("segment_size", segment_size)
        self.c = require_rate("normalized_capacity", normalized_capacity)
        self.config = config or ODEConfig()

        rho_bound = (self.lam + self.mu) / self.gamma
        if self.config.z_max is not None:
            self.B = self.config.z_max
        else:
            self.B = max(
                int(math.ceil(rho_bound + 8.0 * math.sqrt(max(rho_bound, 1.0)))),
                3 * self.s,
                16,
            )
        if self.B < self.s:
            raise ValueError(
                f"z truncation B={self.B} is below the segment size s={self.s}"
            )
        if self.config.i_max is not None:
            self.i_max = self.config.i_max
        else:
            self.i_max = max(int(math.ceil(4.0 * rho_bound)), 3 * self.s, 60)

        self._n_z = self.B + 1
        self._n_m = self.i_max * (self.s + 1)  # rows i=1..i_max
        #: degree index column vector for the m rows (i = 1..i_max)
        self._degrees = np.arange(1, self.i_max + 1, dtype=float)

    @classmethod
    def from_parameters(
        cls, params: Parameters, config: Optional[ODEConfig] = None
    ) -> "CollectionODE":
        """Build the model from a full protocol :class:`Parameters`."""
        return cls(
            arrival_rate=params.arrival_rate,
            gossip_rate=params.gossip_rate,
            deletion_rate=params.deletion_rate,
            segment_size=params.segment_size,
            normalized_capacity=params.normalized_capacity,
            config=config,
        )

    # -- state packing ------------------------------------------------------

    def initial_state(self) -> np.ndarray:
        """Empty network: every peer at degree 0, no segments."""
        y = np.zeros(self._n_z + self._n_m)
        y[0] = 1.0  # z_0 = 1
        return y

    def _unpack(self, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        z = y[: self._n_z]
        m = y[self._n_z :].reshape(self.i_max, self.s + 1)
        return z, m

    # -- right-hand side ------------------------------------------------------

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """d/dt of the packed state [z, m]."""
        z, m = self._unpack(y)
        B, s = self.B, self.s
        lam, mu, gamma, c = self.lam, self.mu, self.gamma, self.c

        dz = np.zeros_like(z)
        dm = np.zeros_like(m)

        # Edge density e(t) = sum_i i*z_i; guard the early instants when the
        # network is still empty.
        degrees_z = np.arange(B + 1, dtype=float)
        e = float(degrees_z @ z)
        z0 = float(z[0])
        zB = float(z[B])

        # ---- Eq. (1): gossip transfer on the peer side -----------------------
        if mu > 0.0:
            denom = max(1.0 - zB, 1e-12)
            rate = (1.0 - z0) * mu / denom
            # gain at i from i-1; loss at i toward i+1 (none at the cap B)
            dz[1:] += z[:-1] * rate
            dz[:B] -= z[:B] * rate

        # ---- Eq. (5): segment injection (blocked above degree B - s) ---------
        inj = lam / s
        can = slice(0, B - s + 1)  # peers with degree <= B - s can inject
        dz_inj_loss = np.zeros_like(z)
        dz_inj_loss[can] = z[can] * inj
        dz -= dz_inj_loss
        dz[s : B + 1] += dz_inj_loss[0 : B - s + 1]
        injection_fraction = float(z[can].sum())  # 1 - z_(f) of Eq. (6)

        # ---- Eq. (3): block deletion on the peer side -------------------------
        dz[:B] += degrees_z[1:] * z[1:] * gamma
        dz -= degrees_z * z * gamma

        # ---- segment side (Eq. 12) -------------------------------------------
        if e > 1e-12:
            i = self._degrees[:, None]  # (i_max, 1) broadcasts over states j
            # transfer: degree-proportional growth at per-edge rate
            # (1 - z0) * mu / e; reflecting boundary at i_max.
            if mu > 0.0:
                growth = (1.0 - z0) * mu / e
                flux = i * m * growth  # outflow of row i (all j)
                flux[-1, :] = 0.0  # reflect at the truncation boundary
                dm -= flux
                dm[1:, :] += flux[:-1, :]
            # deletion: degree-proportional decay at per-edge rate gamma;
            # the i=1 outflow is segment extinction (mass leaves the system).
            decay = i * m * gamma
            dm -= decay
            dm[:-1, :] += decay[1:, :] * 1.0
            # server collection: per-edge pull rate c / e advances the state
            # j -> j+1 while j < s; state s absorbs (redundant pulls).
            pull = c / e
            collect = i * m[:, :s] * pull  # flux out of states 0..s-1
            dm[:, :s] -= collect
            dm[:, 1 : s + 1] += collect
        # injection: new segments arrive at degree s, state 0.
        dm[s - 1, 0] += inj * injection_fraction

        out = np.empty_like(y)
        out[: self._n_z] = dz
        out[self._n_z :] = dm.reshape(-1)
        return out

    # -- z subsystem (closed in itself) -------------------------------------

    def rhs_z(self, t: float, z: np.ndarray) -> np.ndarray:
        """d/dt of the peer-degree system alone (Eq. 7)."""
        y = np.zeros(self._n_z + self._n_m)
        y[: self._n_z] = z
        return self.rhs(t, y)[: self._n_z]

    def steady_z(self) -> Tuple[np.ndarray, float]:
        """Steady peer-degree distribution via integration of Eq. (7).

        Returns (z, residual).  The z-system is small (B+1 states) and
        non-stiff enough for LSODA at any parameterization we use.
        """
        from scipy.integrate import solve_ivp
        t_end = self.config.t_end / self.gamma
        z = np.zeros(self._n_z)
        z[0] = 1.0
        residual = math.inf
        for _ in range(self.config.max_extensions + 1):
            solution = solve_ivp(
                self.rhs_z,
                (0.0, t_end),
                z,
                method="LSODA",
                rtol=self.config.rtol,
                atol=self.config.atol,
            )
            if not solution.success:
                raise RuntimeError(
                    f"z-system integration failed: {solution.message}"
                )
            z = solution.y[:, -1]
            residual = float(np.max(np.abs(self.rhs_z(t_end, z))))
            if residual < self.config.steady_tol:
                return z, residual
            t_end *= 2.0
        raise RuntimeError(
            f"z steady state not reached: residual {residual:.3e} "
            f"(tol {self.config.steady_tol:.1e})"
        )

    # -- m subsystem: linear once z is frozen ----------------------------------

    def steady_m(self, z: np.ndarray) -> np.ndarray:
        """Exact steady collection matrix by sparse direct solve.

        Given the steady ``z`` (hence constant ``z0`` and ``e``), Eq. (12)
        is linear in ``m``: build the generator matrix A with the reflecting
        boundary at ``i_max`` and solve ``A m = -injection``.  Extinction at
        degree 1 makes A strictly diagonally dominant in the relevant sense
        (an M-matrix), so the solve is well posed.
        """
        from scipy.sparse import lil_matrix
        from scipy.sparse.linalg import spsolve

        s = self.s
        degrees_z = np.arange(self.B + 1, dtype=float)
        e = float(degrees_z @ z)
        if e <= 0:
            raise ValueError("steady z has zero edge density; cannot solve m")
        z0 = float(z[0])
        growth = (1.0 - z0) * self.mu / e
        pull = self.c / e
        gamma = self.gamma
        inj = self.lam / s * float(z[: self.B - s + 1].sum())

        n_cols = self.s + 1

        def idx(i: int, j: int) -> int:
            return (i - 1) * n_cols + j

        size = self.i_max * n_cols
        matrix = lil_matrix((size, size))
        rhs_vec = np.zeros(size)
        for i in range(1, self.i_max + 1):
            for j in range(n_cols):
                row = idx(i, j)
                diag = 0.0
                # growth outflow i -> i+1 (suppressed at the boundary)
                if i < self.i_max:
                    diag -= i * growth
                # growth inflow from i-1
                if i > 1:
                    matrix[row, idx(i - 1, j)] += (i - 1) * growth
                # deletion outflow i -> i-1 (extinction when i=1)
                diag -= i * gamma
                # deletion inflow from i+1
                if i < self.i_max:
                    matrix[row, idx(i + 1, j)] += (i + 1) * gamma
                # collection j -> j+1 while j < s
                if j < s:
                    diag -= i * pull
                if j >= 1:
                    matrix[row, idx(i, j - 1)] += i * pull
                matrix[row, row] = diag
        rhs_vec[idx(s, 0)] = -inj
        solution = spsolve(matrix.tocsr(), rhs_vec)
        m = solution.reshape(self.i_max, n_cols)
        # Numerical noise can leave tiny negatives; clip for downstream sums.
        return np.clip(m, 0.0, None)

    # -- integration of the coupled transient ------------------------------------

    def integrate(
        self,
        t_end: float,
        y0: Optional[np.ndarray] = None,
        method: str = "RK45",
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Integrate the full coupled transient to *t_end*.

        Used for time-dependent studies and tests; steady states should use
        :meth:`steady_state`, which is exact and much faster.  Tolerances
        default looser than the steady-state solve: the transient has
        thousands of states and explicit steppers pay for every digit.
        """
        if not math.isfinite(t_end) or t_end <= 0:
            raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
        from scipy.integrate import solve_ivp
        if y0 is None:
            y0 = self.initial_state()
        solution = solve_ivp(
            self.rhs,
            (0.0, t_end),
            y0,
            method=method,
            rtol=rtol,
            atol=atol,
        )
        if not solution.success:
            raise RuntimeError(f"ODE integration failed: {solution.message}")
        y_final = solution.y[:, -1]
        return y_final, self.rhs(t_end, y_final)

    def steady_state(self) -> SteadyState:
        """Steady state: integrate the z-system, then solve m exactly."""
        z, residual_z = self.steady_z()
        m_rows = self.steady_m(z)
        y = np.concatenate([z, m_rows.reshape(-1)])
        residual_m = float(np.max(np.abs(self.rhs(0.0, y)[self._n_z :])))
        return self._freeze(y, max(residual_z, residual_m))

    def _freeze(self, y: np.ndarray, residual: float) -> SteadyState:
        z, m_rows = self._unpack(y)
        # Re-index m with a zero row 0 so m[i, j] means degree i directly.
        m = np.zeros((self.i_max + 1, self.s + 1))
        m[1:, :] = m_rows
        w = m.sum(axis=1)
        degrees_z = np.arange(self.B + 1, dtype=float)
        e = float(degrees_z @ z)
        return SteadyState(
            z=z.copy(),
            w=w,
            m=m,
            e=e,
            residual=residual,
            tail_mass=float(w[self.i_max]),
        )


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
