"""Analytical layer: ODE systems of Sec. 3, Theorems 1-4."""

from repro.analysis.ode import CollectionODE, SteadyState
from repro.analysis.transient import Trajectory, TransientCollectionODE
from repro.analysis.theorems import (
    AnalyticalPoint,
    DelayResult,
    SavedDataResult,
    StorageResult,
    ThroughputResult,
    analyze,
    poisson_degree_distribution,
    solve_z0_fixed_point,
    theorem1_storage,
    theorem2_throughput,
    theorem2_throughput_s1,
    theorem3_block_delay,
    theorem4_saved_data,
)

__all__ = [
    "CollectionODE",
    "SteadyState",
    "Trajectory",
    "TransientCollectionODE",
    "AnalyticalPoint",
    "DelayResult",
    "SavedDataResult",
    "StorageResult",
    "ThroughputResult",
    "analyze",
    "poisson_degree_distribution",
    "solve_z0_fixed_point",
    "theorem1_storage",
    "theorem2_throughput",
    "theorem2_throughput_s1",
    "theorem3_block_delay",
    "theorem4_saved_data",
]
