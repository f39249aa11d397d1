"""Delta-debugging shrinker: minimize a failing trial, emit ``repro.json``.

A raw campaign failure composes several fault channels over dozens of
peers and a multi-unit horizon — far more moving parts than the defect
needs.  :func:`shrink_trial` greedily probes structural reductions
(drop a whole fault channel, zero the warmup, halve the horizon, halve the
population, collapse scheduling policy to the paper's defaults) and keeps
any reduction under which the *same monitor* still fires, iterating to a
fixpoint within a bounded probe budget.  This is the ddmin idea
specialized to our config shape: instead of bisecting an opaque input
string, the candidate moves follow the config's semantics, so a few dozen
probes typically strip a failure down to one fault channel and a handful
of peers.

The result ships as a self-contained ``repro.json``: format tag, the
minimized (and original) config, the expected violation, and the exact
command line that replays it.  Replay determinism is inherited from
:func:`repro.chaos.harness.run_trial` being a pure function of the config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.chaos.harness import TrialOutcome, run_trial
from repro.chaos.space import TrialConfig
from repro.util.codec import decode, encode

#: schema tag written into (and required from) every repro file
REPRO_FORMAT = "repro-chaos-v1"

#: knob groups that switch one fault channel off when removed together
_CHANNEL_GROUPS: Tuple[Tuple[str, ...], ...] = (
    ("gossip_loss_rate",),
    ("pull_loss_rate",),
    ("pollution_fraction", "pollution_repull_budget"),
    ("outage_windows", "outage_rate", "outage_duration", "catchup_limit"),
    ("burst_rate", "burst_fraction"),
    ("process_faults", "process_restart_latency"),
)


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of minimizing one failing trial."""

    #: the failure as the campaign first saw it
    original: Dict[str, Any]
    #: the smallest config still failing with the same monitor
    minimized: Dict[str, Any]
    #: monitor preserved throughout the shrink
    monitor: str
    #: violation message of the minimized config
    message: str
    #: trials executed while probing reductions
    probes: int
    #: accepted reductions (0 = the original was already minimal)
    reductions: int

    def minimized_config(self) -> TrialConfig:
        """The minimized trial, ready to replay."""
        return decode(TrialConfig, self.minimized)


def _with_plan(config: TrialConfig, plan: Dict[str, Any]) -> TrialConfig:
    return replace(config, plan=plan)


def _with_params(config: TrialConfig, params: Dict[str, Any]) -> TrialConfig:
    return replace(config, params=params)


#: knob groups that switch one adversary strategy off when removed together
_ADVERSARY_GROUPS: Tuple[Tuple[str, ...], ...] = (
    ("liar_fraction", "liar_inflation"),
    ("freerider_fraction",),
    ("polluter_fraction", "polluter_targeting"),
    ("sybil_rate", "sybil_fraction"),
)


def _candidates(config: TrialConfig) -> Iterator[TrialConfig]:
    """Structural reductions of *config*, biggest semantic cuts first."""
    # 1. Drop an entire fault channel.
    for group in _CHANNEL_GROUPS:
        if any(key in config.plan for key in group):
            reduced = {
                key: value
                for key, value in config.plan.items()
                if key not in group
            }
            yield _with_plan(config, reduced)
    # 1b. Dismiss the adversaries — wholesale first, then one strategy at
    # a time (dropping just the liars can leave a valid sybil-only plan).
    if config.adversary:
        yield replace(config, adversary={})
        for group in _ADVERSARY_GROUPS:
            if any(key in config.adversary for key in group):
                reduced = {
                    key: value
                    for key, value in config.adversary.items()
                    if key not in group
                }
                if reduced:
                    yield replace(config, adversary=reduced)
    # 1c. Drop process-fault events one at a time (the whole-channel cut
    # above handles the all-of-them case).
    events = config.plan.get("process_faults") or []
    if len(events) > 1:
        for index in range(len(events)):
            reduced_events = [
                event for j, event in enumerate(events) if j != index
            ]
            yield _with_plan(
                config, {**config.plan, "process_faults": reduced_events}
            )
    # 2. Collapse protocol knobs back to the paper's defaults.
    params = config.params
    for defense in ("pull_scoring", "advert_discounting"):
        if params.get(defense):
            smaller = dict(params)
            smaller.pop(defense, None)
            yield _with_params(config, smaller)
    if params.get("mean_lifetime") is not None:
        smaller = dict(params)
        smaller.pop("mean_lifetime", None)
        yield _with_params(config, smaller)
    if params.get("gossip_latency"):
        smaller = dict(params)
        smaller.pop("gossip_latency", None)
        yield _with_params(config, smaller)
    if params.get("pull_policy", "random") != "random":
        yield _with_params(config, {**params, "pull_policy": "random"})
    if params.get("segment_selection", "proportional") != "proportional":
        yield _with_params(
            config, {**params, "segment_selection": "proportional"}
        )
    # 3. Shrink the horizon.
    if config.warmup > 0.0:
        yield replace(config, warmup=0.0)
    if config.duration > 1.0:
        yield replace(config, duration=round(config.duration / 2.0, 6))
    # 4. Shrink the population.
    n_peers = int(params["n_peers"])
    n_servers = int(params.get("n_servers", 4))
    half = max(n_peers // 2, n_servers, 4)
    if half < n_peers:
        yield _with_params(config, {**params, "n_peers": half})
    if n_servers > 1:
        yield _with_params(config, {**params, "n_servers": 1})


def shrink_trial(
    config: TrialConfig,
    monitor: str,
    max_probes: int = 64,
) -> ShrinkResult:
    """Greedily minimize *config* while *monitor* keeps firing.

    Runs up to *max_probes* probe trials.  Each accepted reduction restarts
    the candidate scan from the smaller config (first-improvement greedy),
    so the result is a local fixpoint: no single candidate move applied to
    ``minimized`` still reproduces the violation — or the probe budget ran
    out first.
    """
    if max_probes < 1:
        raise ValueError(f"max_probes must be >= 1, got {max_probes}")
    baseline = run_trial(config)
    probes = 1
    if baseline.ok or baseline.monitor != monitor:
        raise ValueError(
            f"shrink baseline does not fail with monitor {monitor!r} "
            f"(got {baseline.monitor!r}); nothing to minimize"
        )
    current = config
    message = baseline.message or ""
    reductions = 0
    improved = True
    while improved and probes < max_probes:
        improved = False
        for candidate in _candidates(current):
            if probes >= max_probes:
                break
            try:
                candidate.parameters()
            except ValueError:
                continue  # reduction stepped outside the valid envelope
            outcome = run_trial(candidate)
            probes += 1
            if not outcome.ok and outcome.monitor == monitor:
                current = candidate
                message = outcome.message or message
                reductions += 1
                improved = True
                break
    return ShrinkResult(
        original=encode(config),
        minimized=encode(current),
        monitor=monitor,
        message=message,
        probes=probes,
        reductions=reductions,
    )


def write_repro(
    path: Union[str, Path],
    outcome: TrialOutcome,
    shrink: Optional[ShrinkResult] = None,
    campaign_seed: Optional[int] = None,
) -> Path:
    """Write a self-contained, deterministically replayable ``repro.json``.

    When a :class:`ShrinkResult` is supplied its minimized config becomes
    the replayed one and the original is kept alongside for forensics;
    otherwise the outcome's own config is used verbatim.
    """
    if outcome.ok:
        raise ValueError("cannot write a repro for a passing trial")
    path = Path(path)
    config = dict(shrink.minimized) if shrink is not None else dict(outcome.config)
    payload: Dict[str, Any] = {
        "format": REPRO_FORMAT,
        "campaign_seed": campaign_seed,
        "violation": {
            "monitor": shrink.monitor if shrink is not None else outcome.monitor,
            "message": shrink.message if shrink is not None else outcome.message,
        },
        "config": config,
        "original_config": dict(outcome.config),
        "shrink": (
            {"probes": shrink.probes, "reductions": shrink.reductions}
            if shrink is not None
            else None
        ),
        "command": f"repro chaos replay {path}",
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_repro(path: Union[str, Path]) -> Tuple[TrialConfig, str, Dict[str, Any]]:
    """Load a ``repro.json``: (config to replay, expected monitor, payload)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict) or payload.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path}: not a {REPRO_FORMAT} file")
    violation = payload.get("violation")
    monitor = violation.get("monitor") if isinstance(violation, dict) else None
    if not isinstance(monitor, str):
        raise ValueError(f"{path}: violation.monitor must be a string")
    config = decode(TrialConfig, payload.get("config"))
    config.parameters()  # a malformed knob is bad input, not a caught bug
    return config, monitor, payload
