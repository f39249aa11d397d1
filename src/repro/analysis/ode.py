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

Each of (7) and (12) is three constant jump operators scaled by rates
that depend on ``z`` alone.  Since ``w_i = sum_j m_i^j`` identically (the
collection terms of (12) telescope over ``j``), ``w`` is the row sum of
``m`` — a consistency that the test suite verifies against a standalone
integration of (8).

Truncation: ``z`` is naturally finite (``i <= B``); the segment-degree index
is truncated at ``i_max`` with a reflecting boundary, which conserves
segment mass; ``SteadyState.tail_mass`` makes a too-small ``i_max`` visible.

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
from functools import cached_property
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.core.params import Parameters
from repro.util.validation import (
    require_positive,
    require_positive_int,
    require_rate,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: One term of a right-hand side: a rate times a unit-rate jump operator.
Term = Tuple[float, "csr_matrix"]
Operators = Tuple["csr_matrix", "csr_matrix", "csr_matrix"]

#: ``steady_z`` gives up after this many fixed-point steps.  The experiments
#: and tests need at most 18; the map contracts by about (mu/gamma) z_0, so
#: only near-critical gossip (mu ~ gamma, tiny lambda) needs hundreds.
_MAX_FIXED_POINT_STEPS = 1000


def _jumps(
    n: int, source: np.ndarray, target: np.ndarray, weight: np.ndarray
) -> "csr_matrix":
    """Generator of the jumps ``source[k] -> target[k]`` at ``weight[k]``.

    ``dx/dt = G @ x``: column ``source`` loses what row ``target`` gains;
    a negative target leaves the system (segment extinction).
    """
    from scipy.sparse import csr_matrix

    kept = target >= 0
    rows = np.concatenate([target[kept], source])
    cols = np.concatenate([source[kept], source])
    values = np.concatenate([weight[kept], -weight])
    return csr_matrix((values, (rows, cols)), shape=(n, n))


def _apply(terms: List[Term], x: np.ndarray) -> np.ndarray:
    """``sum(rate * operator @ x)`` over *terms*."""
    out = np.zeros_like(x)
    for rate, operator in terms:
        out += rate * (operator @ x)
    return out


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
    """The coupled (7) + (12) systems for one parameter set.

    Each system is a few constant jump operators scaled by state-dependent
    rates (:meth:`_z_terms`, :meth:`_m_terms`); the right-hand side and
    both steady-state solves read those terms.
    """

    def __init__(
        self,
        arrival_rate: float,
        gossip_rate: float,
        deletion_rate: float,
        segment_size: int,
        normalized_capacity: float,
    ) -> None:
        self.lam = require_rate("arrival_rate", arrival_rate)
        self.mu = require_rate("gossip_rate", gossip_rate, allow_zero=True)
        self.gamma = require_rate("deletion_rate", deletion_rate)
        self.s = require_positive_int("segment_size", segment_size)
        self.c = require_rate("normalized_capacity", normalized_capacity)

        # Truncations: B = mean + 8 sigma of the peer degree, i_max a
        # multiple of it; both at least 3 segments.
        rho_bound = (self.lam + self.mu) / self.gamma
        self.B = max(
            int(math.ceil(rho_bound + 8.0 * math.sqrt(max(rho_bound, 1.0)))),
            3 * self.s,
            16,
        )
        self.i_max = max(int(math.ceil(4.0 * rho_bound)), 3 * self.s, 60)

        self._n_z = self.B + 1
        self._n_m = self.i_max * (self.s + 1)  # rows i=1..i_max
        self._z_degrees = np.arange(self._n_z, dtype=float)
        #: flat m index of (i = s, j = 0), where new segments arrive
        self._injection_state = (self.s - 1) * (self.s + 1)

    @classmethod
    def from_parameters(cls, params: Parameters) -> "CollectionODE":
        """Build the model from a full protocol :class:`Parameters`."""
        return cls(
            arrival_rate=params.arrival_rate,
            gossip_rate=params.gossip_rate,
            deletion_rate=params.deletion_rate,
            segment_size=params.segment_size,
            normalized_capacity=params.normalized_capacity,
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

    def _edge_density(self, z: np.ndarray) -> float:
        """Blocks per peer, ``e = sum_i i*z_i``."""
        return float(self._z_degrees @ z)

    # -- the model: six operators and their rates -----------------------------
    # Built at the first solve, so scipy loads only there.

    @cached_property
    def _z_operators(self) -> Operators:
        """Eq. (7)'s unit-rate jumps: gossip, injection, deletion."""
        B, s, n = self.B, self.s, self._n_z
        peer = np.arange(n)
        room = peer[: B - s + 1]  # peers that can take a whole segment
        return (
            _jumps(n, peer[:B], peer[:B] + 1, np.ones(B)),  # none at the cap B
            _jumps(n, room, room + s, np.ones(room.size)),
            _jumps(n, peer[1:], peer[1:] - 1, self._z_degrees[1:]),  # i blocks
        )

    @cached_property
    def _m_operators(self) -> Operators:
        """Eq. (12)'s per-edge jumps: growth, deletion, collection."""
        n, n_cols = self._n_m, self.s + 1
        # flat state k is (i, j) = (k // n_cols + 1, k % n_cols)
        state = np.arange(n)
        degree = (state // n_cols + 1).astype(float)
        grows = state[degree < self.i_max]  # reflected at i_max: mass stays
        pulls = state[state % n_cols < self.s]  # j = s absorbs
        # a copy expires, i -> i-1; at i = 1 the segment goes extinct
        expires = np.where(degree > 1, state - n_cols, -1)
        return (
            _jumps(n, grows, grows + n_cols, degree[grows]),
            _jumps(n, state, expires, degree),
            _jumps(n, pulls, pulls + 1, degree[pulls]),
        )

    def arrival_rate(self, t: float) -> float:
        """λ at time *t*: constant here, the workload's in a transient."""
        return self.lam

    def _z_terms(self, t: float, z: np.ndarray) -> List[Term]:
        """Eq. (7)'s (rate, operator) terms at the peer-degree law *z*."""
        gossip, inject, delete = self._z_operators
        terms: List[Term] = [
            (self.arrival_rate(t) / self.s, inject),
            (self.gamma, delete),
        ]
        if self.mu > 0.0:
            # a gossip from a non-empty peer lands on a non-full one
            non_full = max(1.0 - float(z[self.B]), 1e-12)
            terms.append(((1.0 - float(z[0])) * self.mu / non_full, gossip))
        return terms

    def _m_terms(self, t: float, z: np.ndarray) -> Tuple[List[Term], float]:
        """Eq. (12)'s per-edge (rate, operator) terms at *z*, and the
        injection source at (i = s, j = 0).  Nothing moves m while the
        network is empty (e ~ 0); injection still arrives."""
        growth, delete, collect = self._m_operators
        e = self._edge_density(z)
        terms: List[Term] = []
        if e > 1e-12:
            if self.mu > 0.0:
                terms.append(((1.0 - float(z[0])) * self.mu / e, growth))
            terms += [(self.gamma, delete), (self.c / e, collect)]
        # segments enter at peers with room for all s blocks (Eq. 6)
        room = float(z[: self.B - self.s + 1].sum())
        return terms, self.arrival_rate(t) / self.s * room

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        """d/dt of the packed state [z, m]."""
        z, m = y[: self._n_z], y[self._n_z :]
        m_terms, injection = self._m_terms(t, z)
        dm = _apply(m_terms, m)
        dm[self._injection_state] += injection
        return np.concatenate([_apply(self._z_terms(t, z), z), dm])

    # -- steady states: a fixed point for z, one linear solve for m ----------

    def steady_z(self) -> Tuple[np.ndarray, float]:
        """Steady peer-degree law of Eq. (7) and its residual max |dz/dt|.

        Eq. (7) couples its states only through the gossip rate, a function
        of (z_0, z_B).  At a frozen rate it is a (B+1)-state jump chain
        whose stationary law is one dense solve, with a balance row replaced
        by ``sum z = 1``.  Iterate from the empty network until z stops
        moving.  The replaced row is the cap B's: the kept balances of the
        low states give a tiny z_0 to full relative precision.
        """
        normalization = np.zeros(self._n_z)
        normalization[-1] = 1.0
        z = self.initial_state()[: self._n_z]
        for _ in range(_MAX_FIXED_POINT_STEPS):
            generator = np.zeros((self._n_z, self._n_z))
            for rate, operator in self._z_terms(0.0, z):
                generator += rate * operator.toarray()
            generator[-1, :] = 1.0
            z_next = np.linalg.solve(generator, normalization)
            if float(np.max(np.abs(z_next - z))) <= 1e-15:
                residual = np.abs(_apply(self._z_terms(0.0, z_next), z_next))
                return z_next, float(residual.max())
            z = z_next
        raise RuntimeError(
            f"z fixed point not reached in {_MAX_FIXED_POINT_STEPS} steps"
        )

    def steady_m(self, z: np.ndarray) -> np.ndarray:
        """Exact steady collection matrix by one sparse solve.

        Given the steady ``z`` (hence constant ``z0`` and ``e``), Eq. (12)
        is linear in ``m``: ``G m = -injection`` with G the rate-scaled sum
        of the three m operators.  Extinction at degree 1 makes G an
        M-matrix, so the solve is well posed.
        """
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import spsolve

        terms, injection = self._m_terms(0.0, z)
        if not terms:
            raise ValueError("steady z has zero edge density; cannot solve m")
        generator = csr_matrix((self._n_m, self._n_m))
        for rate, operator in terms:
            generator = generator + rate * operator
        source = np.zeros(self._n_m)
        source[self._injection_state] = -injection
        m = spsolve(generator, source).reshape(self.i_max, self.s + 1)
        # Numerical noise can leave tiny negatives; clip for downstream sums.
        return np.clip(m, 0.0, None)

    # -- integration of the coupled transient ------------------------------------

    def integrate(self, t_end: float) -> Tuple[np.ndarray, np.ndarray]:
        """Integrate the coupled transient from empty to *t_end*; returns
        the final state and its derivative.  RK45 at transient tolerances:
        an explicit stepper pays for every digit of thousands of states."""
        if not math.isfinite(t_end) or t_end <= 0:
            raise ValueError(f"t_end must be finite and > 0, got {t_end!r}")
        from scipy.integrate import solve_ivp
        solution = solve_ivp(
            self.rhs,
            (0.0, t_end),
            self.initial_state(),
            method="RK45",
            rtol=1e-6,
            atol=1e-9,
        )
        if not solution.success:
            raise RuntimeError(f"ODE integration failed: {solution.message}")
        y_final = solution.y[:, -1]
        return y_final, self.rhs(t_end, y_final)

    def steady_state(self) -> SteadyState:
        """Steady state: the z fixed point, then m by one linear solve."""
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
        return SteadyState(
            z=z.copy(),
            w=w,
            m=m,
            e=self._edge_density(z),
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
