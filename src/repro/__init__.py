"""repro — indirect large-scale P2P data collection via network coding.

A full reproduction of *"Circumventing Server Bottlenecks: Indirect
Large-Scale P2P Data Collection"* (Di Niu and Baochun Li, ICDCS 2008):

- the indirect collection protocol itself — RLNC gossip dissemination with
  TTL-aged bounded buffers and coupon-collector server pulls
  (:class:`repro.CollectionSystem`),
- the traditional direct-pull baseline it replaces
  (:class:`repro.DirectCollectionSystem`),
- the paper's analytical machinery — the ODE systems of Sec. 3 and
  Theorems 1-4 of Sec. 4 (:mod:`repro.analysis`),
- the substrates: GF(2^8) network coding (:mod:`repro.coding`), a
  discrete-event simulator with churn and overlay topologies
  (:mod:`repro.sim`), and realistic statistics payloads/workloads
  (:mod:`repro.stats`).

Quickstart::

    from repro import Parameters, CollectionSystem

    params = Parameters(
        n_peers=200,
        arrival_rate=20.0,      # lambda: blocks/peer/unit time
        gossip_rate=10.0,       # mu
        deletion_rate=1.0,      # gamma
        normalized_capacity=8.0,  # c = c_s * N_s / N
        segment_size=20,        # s
    )
    report = CollectionSystem(params, seed=1).run(warmup=15.0, duration=20.0)
    print(report.normalized_throughput)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

from repro.analysis import (
    AnalyticalPoint,
    CollectionODE,
    ODEConfig,
    SteadyState,
    analyze,
    theorem1_storage,
    theorem2_throughput,
    theorem2_throughput_s1,
    theorem3_block_delay,
    theorem4_saved_data,
)
from repro.analysis.transient import Trajectory, TransientCollectionODE
from repro.analysis.validation import ValidationResult, validate_report
from repro.core import (
    CollectionSystem,
    DirectCollectionSystem,
    Parameters,
)
from repro.core.push import PushCollectionSystem
from repro.core.system import PostmortemReport, SourceRecovery
from repro.sim.trace import Tracer
from repro.sim import (
    CompleteTopology,
    MetricsReport,
    Simulator,
    erdos_renyi_topology,
    random_regular_topology,
)
from repro.stats import (
    ConstantWorkload,
    FlashCrowdWorkload,
    RecordCodec,
    ShutoffWorkload,
    StatsRecord,
)

__version__ = "1.0.0"

__all__ = [
    "AnalyticalPoint",
    "CollectionODE",
    "ODEConfig",
    "SteadyState",
    "analyze",
    "theorem1_storage",
    "theorem2_throughput",
    "theorem2_throughput_s1",
    "theorem3_block_delay",
    "theorem4_saved_data",
    "CollectionSystem",
    "DirectCollectionSystem",
    "Parameters",
    "PostmortemReport",
    "PushCollectionSystem",
    "SourceRecovery",
    "Tracer",
    "Trajectory",
    "TransientCollectionODE",
    "CompleteTopology",
    "MetricsReport",
    "Simulator",
    "erdos_renyi_topology",
    "random_regular_topology",
    "ConstantWorkload",
    "FlashCrowdWorkload",
    "RecordCodec",
    "ShutoffWorkload",
    "StatsRecord",
    "__version__",
]
