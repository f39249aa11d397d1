"""Closed-form and steady-state analytical results: Theorems 1-4 of Sec. 4.

Each theorem gets one entry point returning a small result dataclass:

- :func:`theorem1_storage` — storage overhead and buffer occupancy from the
  fixed point ``z0 = exp(-(1-z0) mu/gamma - lambda/gamma)``.
- :func:`theorem2_throughput_s1` — the explicit non-coding throughput via
  the quadratic root ``theta_+``.
- :func:`theorem2_throughput` — the general-``s`` throughput from the ODE
  steady state, ``Nc (1 - sum_i i m_i^s / rho)`` (reported normalized).
- :func:`theorem3_block_delay` — Little's-law block delivery delay,
  ``sum w_i / lambda - sum m_i^s / (lambda sigma)``.
- :func:`theorem4_saved_data` — data buffered for future delivery,
  ``s * sum_{i>=s} (w_i - m_i^s)`` per peer.

All quantities are *per peer* / normalized, matching the paper's plots; the
absolute versions are the normalized values times ``N`` (and times
``lambda`` where applicable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.ode import CollectionODE, SteadyState
from repro.util.validation import require_positive_int, require_rate


@dataclass(frozen=True)
class StorageResult:
    """Theorem 1: steady-state buffering footprint of the protocol."""

    z0: float
    occupancy: float  # rho: mean blocks per peer
    overhead: float  # (1 - z0) mu / gamma: gossip-attributable part
    overhead_bound: float  # mu / gamma

    @property
    def within_bound(self) -> bool:
        """Sanity: the theorem's strict bound overhead < mu/gamma."""
        return self.overhead < self.overhead_bound or math.isclose(
            self.overhead, self.overhead_bound
        )


def solve_z0_fixed_point(
    arrival_rate: float,
    gossip_rate: float,
    deletion_rate: float,
    tol: float = 1e-14,
    max_iterations: int = 10_000,
) -> float:
    """Solve ``z0 = exp(-(1-z0) mu/gamma - lambda/gamma)`` on [0, 1].

    The right-hand side is increasing in z0 with derivative
    ``(mu/gamma) * rhs < mu/gamma * z0_max``; plain fixed-point iteration
    from 0 converges monotonically (the map is a contraction on [0, 1] for
    the regimes of interest and bounded iteration plus a bisection fallback
    covers the rest).
    """
    lam = require_rate("arrival_rate", arrival_rate)
    mu = require_rate("gossip_rate", gossip_rate, allow_zero=True)
    gamma = require_rate("deletion_rate", deletion_rate)

    def rhs(z0: float) -> float:
        return math.exp(-(1.0 - z0) * mu / gamma - lam / gamma)

    z0 = 0.0
    for _ in range(max_iterations):
        nxt = rhs(z0)
        if abs(nxt - z0) < tol:
            return nxt
        z0 = nxt
    # Bisection fallback on g(x) = x - rhs(x), which is negative at 0 and
    # positive at 1 (rhs(1) = exp(-lambda/gamma) < 1).
    low, high = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if mid - rhs(mid) < 0:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def theorem1_storage(
    arrival_rate: float, gossip_rate: float, deletion_rate: float
) -> StorageResult:
    """Theorem 1 (Storage Overhead), closed form for large B.

    The fixed-point z0 is exact for s=1; for s >= 2 the paper applies the
    same expression (the mean occupancy rho is s-independent by rate
    balance even though the full distribution is not Poisson).
    """
    z0 = solve_z0_fixed_point(arrival_rate, gossip_rate, deletion_rate)
    overhead = (1.0 - z0) * gossip_rate / deletion_rate
    rho = overhead + arrival_rate / deletion_rate
    return StorageResult(
        z0=z0,
        occupancy=rho,
        overhead=overhead,
        overhead_bound=gossip_rate / deletion_rate,
    )


def poisson_degree_distribution(rho: float, z0: float, max_degree: int) -> np.ndarray:
    """Theorem 1's peer-degree law ``z_i = z0 rho^i / i!`` up to *max_degree*."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    z = np.empty(max_degree + 1)
    z[0] = z0
    for i in range(1, max_degree + 1):
        z[i] = z[i - 1] * rho / i
    return z


@dataclass(frozen=True)
class ThroughputResult:
    """Theorem 2: session throughput of the collection session."""

    normalized_throughput: float  # Throughput / (N * lambda)
    efficiency: float  # eta: useful fraction of server pulls
    capacity_ratio: float  # c / lambda: the dashed capacity line
    segment_size: int

    @property
    def fraction_of_capacity(self) -> float:
        """How close the session runs to the server capacity line."""
        if self.capacity_ratio == 0:
            return 0.0
        return min(self.normalized_throughput / min(self.capacity_ratio, 1.0), 1.0)


def theorem2_throughput_s1(
    arrival_rate: float,
    gossip_rate: float,
    deletion_rate: float,
    normalized_capacity: float,
) -> ThroughputResult:
    """Theorem 2's explicit non-coding (s=1) throughput.

    ``Throughput(1) = N lambda (1 - 1/theta_+)`` with ``theta_+`` the larger
    root of ``alpha_2 x^2 + alpha_1 x + alpha_0 = 0`` where
    ``alpha_0 = -q gamma``, ``alpha_1 = q gamma + gamma + c/rho``,
    ``alpha_2 = -gamma`` and ``q = 1 - lambda/(rho gamma)``.
    """
    lam = require_rate("arrival_rate", arrival_rate)
    gamma = require_rate("deletion_rate", deletion_rate)
    c = require_rate("normalized_capacity", normalized_capacity)
    storage = theorem1_storage(lam, gossip_rate, gamma)
    rho = storage.occupancy
    q = 1.0 - lam / (rho * gamma)
    alpha2 = -gamma
    alpha1 = q * gamma + gamma + c / rho
    alpha0 = -q * gamma
    discriminant = alpha1 * alpha1 - 4.0 * alpha2 * alpha0
    if discriminant < 0:
        raise ValueError(
            "no real root for theta_+; parameters outside Theorem 2's regime"
        )
    theta_plus = (-alpha1 - math.sqrt(discriminant)) / (2.0 * alpha2)
    # (alpha2 < 0, so the larger root takes the minus branch.)
    if theta_plus <= 0:
        raise ValueError(f"theta_+ = {theta_plus} is not positive")
    normalized = 1.0 - 1.0 / theta_plus
    normalized = min(max(normalized, 0.0), 1.0)
    eta = normalized * lam / c if c > 0 else 0.0
    return ThroughputResult(
        normalized_throughput=normalized,
        efficiency=min(eta, 1.0),
        capacity_ratio=c / lam,
        segment_size=1,
    )


def theorem2_throughput(
    steady: SteadyState,
    arrival_rate: float,
    normalized_capacity: float,
    segment_size: int,
) -> ThroughputResult:
    """Theorem 2's general-s throughput from the ODE steady state.

    ``Throughput(s) = N c (1 - sum_i i m_i^s / rho)`` — the efficiency is
    the probability that a degree-proportional segment draw lands on a
    segment the servers still need.
    """
    lam = require_rate("arrival_rate", arrival_rate)
    c = require_rate("normalized_capacity", normalized_capacity)
    require_positive_int("segment_size", segment_size)
    degrees = np.arange(steady.m.shape[0], dtype=float)
    redundant_edges = float(degrees @ steady.m[:, segment_size])
    rho = steady.e
    eta = 1.0 - redundant_edges / rho if rho > 0 else 0.0
    eta = min(max(eta, 0.0), 1.0)
    normalized = c * eta / lam
    return ThroughputResult(
        normalized_throughput=min(normalized, 1.0),
        efficiency=eta,
        capacity_ratio=c / lam,
        segment_size=segment_size,
    )


@dataclass(frozen=True)
class DelayResult:
    """Theorem 3: average per-original-block delivery delay."""

    block_delay: float
    segment_delay: float
    segment_lifetime: float  # T_L: injection to extinction
    good_time: float  # T_M: time spent decodable-at-servers


def theorem3_block_delay(
    steady: SteadyState,
    arrival_rate: float,
    normalized_throughput: float,
    segment_size: int,
) -> DelayResult:
    """Theorem 3 (Block Delivery Delay) via Little's theorem.

    ``T(s) = sum_i w_i / lambda - sum_i m_i^s / (lambda sigma)`` where
    ``sigma`` is the normalized throughput of Theorem 2.
    """
    lam = require_rate("arrival_rate", arrival_rate)
    s = require_positive_int("segment_size", segment_size)
    if normalized_throughput <= 0:
        raise ValueError(
            f"normalized throughput must be > 0, got {normalized_throughput}"
        )
    sigma = normalized_throughput
    total_segments = float(steady.w[1:].sum())
    good_segments = float(steady.m[1:, s].sum())
    lifetime = s * total_segments / lam
    good_time = s * good_segments / (lam * sigma)
    segment_delay = lifetime - good_time
    return DelayResult(
        block_delay=segment_delay / s,
        segment_delay=segment_delay,
        segment_lifetime=lifetime,
        good_time=good_time,
    )


@dataclass(frozen=True)
class SavedDataResult:
    """Theorem 4: data buffered in the network for future delivery."""

    saved_blocks_per_peer: float
    decodable_segments_per_peer: float
    reconstructed_segments_per_peer: float


def theorem4_saved_data(steady: SteadyState, segment_size: int) -> SavedDataResult:
    """Theorem 4: ``S/N = s sum_{i>=s} (w_i - m_i^s)``.

    The population counted is segments decodable from network blocks
    (degree >= s) that the servers have not reconstructed yet; each is worth
    ``s`` original blocks once pulled.
    """
    s = require_positive_int("segment_size", segment_size)
    decodable = float(steady.w[s:].sum())
    reconstructed = float(steady.m[s:, s].sum())
    saved = s * (decodable - reconstructed)
    return SavedDataResult(
        saved_blocks_per_peer=max(saved, 0.0),
        decodable_segments_per_peer=decodable,
        reconstructed_segments_per_peer=reconstructed,
    )


@dataclass(frozen=True)
class AnalyticalPoint:
    """All four theorems evaluated for one parameter set."""

    storage: StorageResult
    throughput: ThroughputResult
    delay: DelayResult
    saved: SavedDataResult
    steady: SteadyState


def analyze(
    arrival_rate: float,
    gossip_rate: float,
    deletion_rate: float,
    segment_size: int,
    normalized_capacity: float,
) -> AnalyticalPoint:
    """Solve the ODE steady state and evaluate Theorems 1-4 on it."""
    model = CollectionODE(
        arrival_rate=arrival_rate,
        gossip_rate=gossip_rate,
        deletion_rate=deletion_rate,
        segment_size=segment_size,
        normalized_capacity=normalized_capacity,
    )
    steady = model.steady_state()
    storage = theorem1_storage(arrival_rate, gossip_rate, deletion_rate)
    throughput = theorem2_throughput(
        steady, arrival_rate, normalized_capacity, segment_size
    )
    delay = theorem3_block_delay(
        steady, arrival_rate, max(throughput.normalized_throughput, 1e-12),
        segment_size,
    )
    saved = theorem4_saved_data(steady, segment_size)
    return AnalyticalPoint(
        storage=storage,
        throughput=throughput,
        delay=delay,
        saved=saved,
        steady=steady,
    )
