"""Chaos campaigns as runner task grids: fan trials over the worker pool.

A campaign of N trials is exactly the shape :mod:`repro.runner` already
executes: a deterministic grid of independent cells, each a pure function
of ``(campaign_seed, trial_id)``, journaled as it completes so ``--resume``
picks up a killed campaign where it stopped.  :func:`build_chaos_plan` is
the plan builder the runner's spec routing dispatches to for experiment
names under the ``chaos-`` prefix; each task samples its own
:class:`~repro.chaos.space.TrialConfig` *inside the worker* (sampling is
cheap and seed-pure, so no config needs to cross the pipe) and returns the
:class:`~repro.chaos.harness.TrialOutcome` as its payload.

The merged :class:`~repro.experiments.base.SeriesResult` gives the
pass/fail series over the trial axis; the CLI re-reads the journal's
payloads afterwards for the full violation details it shrinks and writes
``repro-*.json`` files from.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional

from repro.chaos.harness import TrialOutcome, run_trial
from repro.chaos.space import CHAOS_CAMPAIGN, sample_trial
from repro.experiments.base import (
    ExperimentPlan,
    Payload,
    SeriesResult,
    SimBudget,
    SimTask,
)
from repro.util.codec import decode, encode


def campaign_options(
    budget: int, seed: int, every: Optional[int] = None
) -> Dict[str, Any]:
    """JSON-clean options mapping for a chaos campaign spec."""
    options: Dict[str, Any] = {"budget": int(budget), "seed": int(seed)}
    if every is not None:
        options["every"] = int(every)
    return options


def build_chaos_plan(
    name: str, budget: SimBudget, options: Mapping[str, Any]
) -> ExperimentPlan:
    """Build the task grid of one chaos campaign.

    ``options``: ``budget`` (trial count), ``seed`` (campaign seed) and
    optional ``every`` (monitor cadence override).  The :class:`SimBudget`
    argument is in the signature every plan function shares, and unused:
    chaos trials size themselves from the sampled plan-space.
    """
    del budget  # trials carry their own horizons and populations
    if name != CHAOS_CAMPAIGN:
        raise ValueError(
            f"unknown chaos experiment {name!r} (only {CHAOS_CAMPAIGN!r} exists)"
        )
    n_trials = int(options.get("budget", 50))
    if n_trials < 1:
        raise ValueError(f"campaign budget must be >= 1 trial, got {n_trials}")
    seed = int(options.get("seed", 0))
    raw_every = options.get("every")
    every = int(raw_every) if raw_every is not None else None

    def make_task(trial_id: int) -> SimTask:
        def thunk() -> Payload:
            config = sample_trial(seed, trial_id)
            if every is not None:
                config = replace(config, every=every)
            return encode(run_trial(config))

        return SimTask(task_id=f"trial={trial_id:05d}", thunk=thunk)

    tasks: List[SimTask] = [make_task(i) for i in range(n_trials)]

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        result = SeriesResult(
            name=CHAOS_CAMPAIGN,
            title=f"chaos campaign: {n_trials} trials, seed={seed}",
            x_name="trial",
            x_values=[float(i) for i in range(n_trials)],
        )
        ok: List[Optional[float]] = []
        events: List[Optional[float]] = []
        sweeps: List[Optional[float]] = []
        violations = 0
        for trial_id in range(n_trials):
            outcome = decode(TrialOutcome, payloads[f"trial={trial_id:05d}"])
            ok.append(1.0 if outcome.ok else 0.0)
            events.append(float(outcome.events))
            sweeps.append(float(outcome.checks_run))
            if not outcome.ok:
                violations += 1
                result.add_note(
                    f"trial {trial_id}: [{outcome.monitor}] {outcome.message}"
                )
        result.add_series("ok", ok)
        result.add_series("events", events)
        result.add_series("checks_run", sweeps)
        result.add_note(
            f"{violations}/{n_trials} trials violated an invariant"
        )
        return result

    return ExperimentPlan(CHAOS_CAMPAIGN, tasks, merge)


def outcomes_from_payloads(
    payloads: Mapping[str, Payload]
) -> List[TrialOutcome]:
    """Decode journaled campaign payloads, ordered by trial id."""
    return [
        decode(TrialOutcome, payloads[task_id])
        for task_id in sorted(payloads)
    ]
