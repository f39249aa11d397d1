"""Simulation substrate: event engine, RNG, topology, churn, metrics."""

from repro.sim.churn import ChurnModel
from repro.sim.engine import (
    EventHandle,
    PoissonProcess,
    Simulator,
    ThinnedPoissonProcess,
)
from repro.sim.metrics import MetricsCollector, MetricsReport, WindowedAverage
from repro.sim.rng import SeedSequenceRegistry, exponential
from repro.sim.trace import TraceEvent, Tracer
from repro.sim.topology import (
    CompleteTopology,
    ExplicitTopology,
    Topology,
    erdos_renyi_topology,
    random_regular_topology,
)

__all__ = [
    "ChurnModel",
    "EventHandle",
    "PoissonProcess",
    "Simulator",
    "ThinnedPoissonProcess",
    "MetricsCollector",
    "MetricsReport",
    "WindowedAverage",
    "SeedSequenceRegistry",
    "TraceEvent",
    "Tracer",
    "exponential",
    "CompleteTopology",
    "ExplicitTopology",
    "Topology",
    "erdos_renyi_topology",
    "random_regular_topology",
]
