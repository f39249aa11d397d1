"""Chaos campaign engine: randomized fault-space search with invariants.

The chaos layer stresses the collection system the way production P2P
deployments stress their protocols — with *composed* faults at awkward
parameter corners — and checks that the simulator's conservation laws
survive.  Three cooperating pieces (see ``docs/CHAOS.md``):

- :mod:`repro.chaos.space` — a declared plan-space and a seeded sampler
  drawing random :class:`~repro.faults.plan.FaultPlan` compositions plus
  extreme-but-valid :class:`~repro.core.params.Parameters` corners;
- :mod:`repro.chaos.monitors` — runtime invariant monitors threaded
  through the engine's amortized probe hook, checking block conservation,
  buffer caps, rank monotonicity, decode fidelity, outage clock accounting
  and event-time sanity *during* the run;
- :mod:`repro.chaos.shrink` — a delta-debugging shrinker that minimizes a
  failing trial and emits a self-contained, deterministically replayable
  ``repro.json``.

Campaigns fan out over the :mod:`repro.runner` worker pool
(:mod:`repro.chaos.campaign`) and are driven by ``repro chaos run`` /
``repro chaos replay`` (:mod:`repro.chaos.cli`).
"""

from repro.chaos.harness import TrialOutcome, run_trial
from repro.chaos.monitors import (
    InvariantMonitor,
    InvariantViolation,
    MonitorSuite,
    runtime_monitors,
)
from repro.chaos.shrink import ShrinkResult, shrink_trial, write_repro
from repro.chaos.space import CHAOS_CAMPAIGN, PlanSpace, TrialConfig, sample_trial

__all__ = [
    "CHAOS_CAMPAIGN",
    "InvariantMonitor",
    "InvariantViolation",
    "MonitorSuite",
    "PlanSpace",
    "ShrinkResult",
    "TrialConfig",
    "TrialOutcome",
    "run_trial",
    "runtime_monitors",
    "sample_trial",
    "shrink_trial",
    "write_repro",
]
