"""Run specification: everything a worker needs to rebuild a task grid.

A :class:`RunSpec` is the *complete* description of one sweep: the
experiment name, the fully-resolved simulation budget, and any extra
builder options.  Workers reconstruct the :class:`ExperimentPlan` from the
spec alone — they never consult the quality presets (which tests are free
to monkeypatch in the parent) or any other process-global state, so a task
executes identically in the parent, in a pool worker, and in a resumed run
days later.

The spec's :func:`fingerprint` (a SHA-256 over the canonical spec JSON
plus the plan's task-id list) is stored in the run manifest and checked on
``--resume``: a journal can only be resumed by the spec that created it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.experiments.base import ExperimentPlan, SimBudget
from repro.util.codec import decode, encode

#: Experiment-name prefix routed to the synthetic-plan registry (test and
#: benchmark harness plans) instead of the real figure runners.
SYNTHETIC_PREFIX = "synthetic-"

#: Experiment-name prefix routed to the chaos-campaign plan builder
#: (randomized fault-space trials; see repro.chaos).
CHAOS_PREFIX = "chaos-"


@dataclass(frozen=True)
class RunSpec:
    """Self-contained, JSON-serializable description of one sweep.

    ``budget`` is the *resolved* budget, never a preset name; ``options``
    carries extra keyword arguments for the plan builder and must be
    JSON-serializable.  Manifests and worker handshakes carry the spec
    through :mod:`repro.util.codec`.
    """

    experiment: str
    quality: str
    budget: SimBudget
    options: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        experiment: str,
        quality: str,
        budget: SimBudget,
        options: Optional[Mapping[str, Any]] = None,
    ) -> "RunSpec":
        """Build a spec, normalizing its options through JSON."""
        spec = cls(experiment, quality, budget, dict(options or {}))
        text = json.dumps(encode(spec), sort_keys=True, allow_nan=False)
        return decode(cls, json.loads(text))

    def build_plan(self) -> ExperimentPlan:
        """Reconstruct the task grid this spec describes.

        Experiment names under ``synthetic-`` resolve through
        :mod:`repro.runner.synthetic`; everything else resolves through
        :data:`repro.experiments.PLAN_BUILDERS`.  Imports are deferred so
        pool workers pay the import cost once, lazily, and so this module
        never participates in an import cycle with the experiments
        package.
        """
        if self.experiment.startswith(SYNTHETIC_PREFIX):
            from repro.runner.synthetic import build_synthetic_plan

            return build_synthetic_plan(
                self.experiment, self.budget, dict(self.options)
            )
        if self.experiment.startswith(CHAOS_PREFIX):
            from repro.chaos.campaign import build_chaos_plan

            return build_chaos_plan(
                self.experiment, self.budget, dict(self.options)
            )
        from repro.experiments import PLAN_BUILDERS

        builder = PLAN_BUILDERS.get(self.experiment)
        if builder is None:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from "
                f"{sorted(PLAN_BUILDERS)}"
            )
        plan: ExperimentPlan = builder(
            quality=self.quality, budget=self.budget, **self.options
        )
        return plan

    def fingerprint(self, task_ids: List[str]) -> str:
        """SHA-256 binding this spec to its plan's exact task grid."""
        canonical = json.dumps(
            {"spec": encode(self), "task_ids": list(task_ids)},
            sort_keys=True,
            allow_nan=False,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
