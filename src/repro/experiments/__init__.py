"""Experiment harness: one task-grid builder per paper figure plus ablations.

=============================  ============================================
builder                        regenerates
=============================  ============================================
``plan_fig3``                  Fig. 3 — throughput vs segment size
``plan_fig4``                  Fig. 4 — throughput vs mu under churn
``plan_fig5``                  Fig. 5 — block delivery delay vs segment size
``plan_fig6``                  Fig. 6 — data saved per peer vs segment size
``plan_theorem1``              Theorem 1 — storage overhead validation
``plan_baseline_comparison``   Fig. 1(a) vs 1(b) flash-crowd head-to-head
``plan_transient``             flash crowd: fluid (ODE) limit vs simulation
``plan_*_ablation``            design-choice ablations (TTL, buffer,
                               selection, scheduler, RLNC, topology)
``plan_robustness``            E-ROBUST — degradation under fault injection
``plan_adversary``             E-ADVERSARY — Byzantine strategies vs defenses
``plan_scale``                 E-SCALE — the vectorized engine at large N
``plan_live``                  E-LIVE — real TCP swarm vs the simulator
``plan_live_chaos``            E-LIVE-CHAOS — supervised swarm under kills
=============================  ============================================

Every builder returns a deterministic task grid (:class:`ExperimentPlan`).
``plan_X(...).run_serial()`` executes it in-process — that is what
``repro <experiment>`` does — and the parallel sweep runner
(:mod:`repro.runner`) executes the same grid on a worker pool and merges
through the same code path, which is what makes sharded execution
byte-identical to serial (see ``docs/RUNNER.md``).  ``PLAN_BUILDERS`` is
the one registry: it maps each CLI experiment name to its builder.

Supporting machinery: quality budgets and :class:`SeriesResult`
(:mod:`repro.experiments.base`).
"""

from typing import Callable, Dict

from repro.experiments.adversary import plan_adversary
from repro.experiments.ablations import (
    plan_buffer_ablation,
    plan_coding_ablation,
    plan_scheduler_ablation,
    plan_selection_ablation,
    plan_topology_ablation,
    plan_ttl_ablation,
)
from repro.experiments.base import (
    BUDGETS,
    ExperimentPlan,
    QUALITY_FAST,
    QUALITY_FULL,
    SeriesResult,
    SimBudget,
    SimTask,
    budget_for,
    override_budget,
    parse_seeds,
)
from repro.experiments.baseline import (
    FlashCrowdScenario,
    plan_baseline_comparison,
)
from repro.experiments.fig3 import plan_fig3, plan_fig5, plan_fig6
from repro.experiments.fig4 import plan_fig4
from repro.experiments.live import plan_live
from repro.experiments.live_chaos import plan_live_chaos
from repro.experiments.robustness import (
    plan_robustness,
    rlnc_pollution_audit,
)
from repro.experiments.scale import plan_scale
from repro.experiments.theorem1 import plan_theorem1
from repro.experiments.transient import plan_transient

#: CLI experiment name -> task-grid builder.  Every builder accepts
#: ``(quality=..., budget=...)`` keywords; passing an explicit budget
#: bypasses the quality presets entirely (the parallel runner always does,
#: so workers never consult possibly-monkeypatched globals).
PLAN_BUILDERS: Dict[str, Callable[..., ExperimentPlan]] = {
    "fig3": plan_fig3,
    "fig4": plan_fig4,
    "fig5": plan_fig5,
    "fig6": plan_fig6,
    "theorem1": plan_theorem1,
    "transient": plan_transient,
    "baseline": plan_baseline_comparison,
    "robustness": plan_robustness,
    "adversary": plan_adversary,
    "scale": plan_scale,
    "live": plan_live,
    "live-chaos": plan_live_chaos,
    "ablation-ttl": plan_ttl_ablation,
    "ablation-buffer": plan_buffer_ablation,
    "ablation-selection": plan_selection_ablation,
    "ablation-scheduler": plan_scheduler_ablation,
    "ablation-coding": plan_coding_ablation,
    "ablation-topology": plan_topology_ablation,
}

__all__ = [
    "PLAN_BUILDERS",
    "plan_buffer_ablation",
    "plan_scheduler_ablation",
    "plan_topology_ablation",
    "plan_coding_ablation",
    "plan_selection_ablation",
    "plan_ttl_ablation",
    "BUDGETS",
    "ExperimentPlan",
    "QUALITY_FAST",
    "QUALITY_FULL",
    "SeriesResult",
    "SimBudget",
    "SimTask",
    "budget_for",
    "override_budget",
    "parse_seeds",
    "FlashCrowdScenario",
    "plan_baseline_comparison",
    "plan_fig3",
    "plan_fig4",
    "plan_fig5",
    "plan_fig6",
    "plan_adversary",
    "plan_robustness",
    "rlnc_pollution_audit",
    "plan_live",
    "plan_live_chaos",
    "plan_scale",
    "plan_theorem1",
    "plan_transient",
]
