"""The chaos plan-space: what a random trial is allowed to look like.

A :class:`PlanSpace` declares the ranges every sampled knob is drawn from —
protocol parameters pushed to extreme-but-valid corners (buffer cap exactly
one segment deep, a single server, gossip switched off entirely) composed
with all four fault channels at arbitrary intensities (loss probabilities
up to and including 1.0, outage windows starting at t=0, churn bursts
killing the whole population).  :func:`sample_trial` draws one
:class:`TrialConfig` from the space on a named
:class:`~repro.sim.rng.SeedSequenceRegistry` substream, so trial *i* of a
campaign is a pure function of ``(campaign_seed, i)`` — the property the
replay and shrink machinery depend on.

A :class:`TrialConfig` stores plain JSON dictionaries rather than the
frozen dataclasses they build, because it must survive the runner's
journal round-trip and the ``repro.json`` file byte-identically;
:meth:`TrialConfig.parameters` decodes and re-validates them through
:mod:`repro.util.codec` on every reconstruction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.adversary.plan import VALID_TARGETING
from repro.core.params import (
    MODE_RLNC,
    Parameters,
    VALID_SELECTIONS,
)
from repro.sim.rng import SeedSequenceRegistry
from repro.util.codec import decode

#: The chaos campaign experiment name (prefix-routed by RunSpec.build_plan).
CHAOS_CAMPAIGN = "chaos-campaign"


@dataclass(frozen=True)
class TrialConfig:
    """One fully specified chaos trial: build it, run it, judge it.

    ``params``, ``plan``, and ``adversary`` are JSON-clean keyword
    dictionaries for :class:`Parameters`, :class:`FaultPlan`, and
    :class:`AdversaryPlan`; ``seed`` feeds the system's seed registry;
    ``every`` is the invariant-monitor cadence in executed events.
    """

    trial_id: int
    seed: int
    params: Dict[str, Any]
    plan: Dict[str, Any]
    warmup: float
    duration: float
    every: int
    adversary: Dict[str, Any] = field(default_factory=dict)

    def parameters(self) -> Parameters:
        """The trial's protocol parameters, decoded and validated."""
        return decode(Parameters, {
            **self.params,
            "faults": self.plan or None,
            "adversary": self.adversary or None,
        })

    @property
    def task_id(self) -> str:
        """Deterministic runner task id for this trial."""
        return f"trial={self.trial_id:05d}"

    def describe(self) -> str:
        """One-line summary for campaign logs."""
        params = self.parameters()
        faults = (
            params.faults.describe() if params.faults is not None
            else "no faults"
        )
        adversary = params.adversary
        return (
            f"trial {self.trial_id}: N={params.n_peers} seed={self.seed} "
            f"T={self.warmup:g}+{self.duration:g} every={self.every} "
            f"[{faults}]"
            + (f" [{adversary.describe()}]" if adversary is not None else "")
        )


#: Server pull policies, restated here so sampling the space does not import
#: the server module at module load (params re-validates against the real
#: registry on every build).
_PULL_POLICIES = ("random", "round-robin", "avoid-redundant", "greedy-completion")


@dataclass(frozen=True)
class PlanSpace:
    """Declared sampling ranges for every knob a chaos trial may turn.

    ``(lo, hi)`` pairs are inclusive ranges; probabilities gate how often a
    dimension is pushed off its default.  Trials are deliberately small
    (tens of peers, horizons of a few time units) so a 200-trial campaign
    stays cheap while still composing every fault channel.
    """

    n_peers: Tuple[int, int] = (8, 48)
    n_servers_max: int = 4
    arrival_rate: Tuple[float, float] = (0.5, 6.0)
    gossip_rate: Tuple[float, float] = (0.0, 10.0)
    deletion_rate: Tuple[float, float] = (0.25, 3.0)
    normalized_capacity: Tuple[float, float] = (0.05, 3.0)
    segment_size: Tuple[int, int] = (1, 5)
    payload_bytes: Tuple[int, ...] = (4, 16)
    mean_lifetime: Tuple[float, float] = (1.0, 12.0)
    warmup: Tuple[float, float] = (0.0, 3.0)
    duration: Tuple[float, float] = (2.0, 8.0)
    every: Tuple[int, int] = (16, 384)
    #: probability a trial runs in RLNC mode with payload bytes (enables the
    #: rank-monotone and decode-fidelity monitors at real-coding cost).
    rlnc_probability: float = 0.5
    #: probability churn is enabled at all.
    churn_probability: float = 0.7
    #: per-channel probability that a fault channel is switched on.
    channel_probability: float = 0.45
    #: probability an active knob is pushed to its extreme corner
    #: (loss=1.0, burst kills everyone, buffer exactly one segment deep,
    #: outage window starting at t=0).
    extreme_probability: float = 0.2
    #: probability a trial carries an adversary plan at all; per-strategy
    #: activation inside an adversarial trial reuses channel_probability.
    adversary_probability: float = 0.35
    #: probability each server-side defense (pull-source scoring /
    #: advertisement discounting) is switched on for a trial, independent
    #: of whether the trial is adversarial — defenses must stay inert on
    #: honest populations, and the monitors get to prove it.
    defense_probability: float = 0.4
    liar_inflation: Tuple[float, float] = (2.0, 16.0)
    sybil_rate: Tuple[float, float] = (0.1, 1.5)
    pull_policies: Tuple[str, ...] = _PULL_POLICIES
    selections: Tuple[str, ...] = VALID_SELECTIONS
    #: extra keyword overrides applied verbatim to every sampled Parameters
    #: dict (campaign-level pinning, e.g. {"mode": "rlnc"}).
    params_overrides: Dict[str, Any] = field(default_factory=dict)

    # -- sampling helpers ------------------------------------------------------

    def _uniform(self, rng: random.Random, lo_hi: Tuple[float, float]) -> float:
        lo, hi = lo_hi
        return rng.uniform(lo, hi)

    def _randint(self, rng: random.Random, lo_hi: Tuple[int, int]) -> int:
        lo, hi = lo_hi
        return rng.randint(lo, hi)

    def _sample_params(self, rng: random.Random) -> Dict[str, Any]:
        n_peers = self._randint(rng, self.n_peers)
        segment_size = self._randint(rng, self.segment_size)
        params: Dict[str, Any] = {
            "n_peers": n_peers,
            "arrival_rate": round(self._uniform(rng, self.arrival_rate), 6),
            "gossip_rate": round(self._uniform(rng, self.gossip_rate), 6),
            "deletion_rate": round(self._uniform(rng, self.deletion_rate), 6),
            "normalized_capacity": round(
                self._uniform(rng, self.normalized_capacity), 6
            ),
            "segment_size": segment_size,
            "n_servers": rng.randint(1, min(self.n_servers_max, n_peers)),
            "segment_selection": rng.choice(list(self.selections)),
            "pull_policy": rng.choice(list(self.pull_policies)),
        }
        if rng.random() < self.extreme_probability:
            # Gossip entirely off: collection must survive on direct pulls.
            params["gossip_rate"] = 0.0
        if rng.random() < self.rlnc_probability:
            params["mode"] = MODE_RLNC
            params["payload_bytes"] = rng.choice(list(self.payload_bytes))
        # Buffer cap: auto-sized, snug, or the tightest legal corner (B = s).
        cap_draw = rng.random()
        if cap_draw < self.extreme_probability:
            params["buffer_capacity"] = segment_size
        elif cap_draw < 0.6:
            params["buffer_capacity"] = segment_size + rng.randint(
                0, 3 * segment_size
            )
        if rng.random() < self.churn_probability:
            params["mean_lifetime"] = round(
                self._uniform(rng, self.mean_lifetime), 6
            )
        if rng.random() < 0.3:
            params["gossip_latency"] = round(rng.uniform(0.05, 0.8), 6)
        params.update(self.params_overrides)
        return params

    def _sample_windows(
        self, rng: random.Random, horizon: float
    ) -> List[List[float]]:
        count = rng.randint(1, 3)
        start = (
            0.0  # the t=0 corner: down before the first event ever fires
            if rng.random() < self.extreme_probability
            else round(rng.uniform(0.0, horizon / 4.0), 6)
        )
        windows: List[List[float]] = []
        for _ in range(count):
            length = round(rng.uniform(0.1, max(horizon / 3.0, 0.2)), 6)
            windows.append([round(start, 6), round(start + length, 6)])
            start = start + length + round(
                rng.uniform(0.05, max(horizon / 3.0, 0.1)), 6
            )
        return windows

    def _sample_plan(
        self, rng: random.Random, horizon: float
    ) -> Dict[str, Any]:
        plan: Dict[str, Any] = {}
        active = self.channel_probability
        extreme = self.extreme_probability
        if rng.random() < active:
            plan["gossip_loss_rate"] = (
                1.0 if rng.random() < extreme else round(rng.random(), 6)
            )
        if rng.random() < active:
            plan["pull_loss_rate"] = (
                1.0 if rng.random() < extreme else round(rng.random(), 6)
            )
        if rng.random() < active:
            plan["pollution_fraction"] = (
                1.0
                if rng.random() < extreme
                else round(rng.uniform(0.05, 1.0), 6)
            )
            plan["pollution_repull_budget"] = rng.randint(0, 3)
        if rng.random() < active:
            if rng.random() < 0.5:
                plan["outage_windows"] = self._sample_windows(rng, horizon)
            else:
                plan["outage_rate"] = round(rng.uniform(0.05, 0.8), 6)
                plan["outage_duration"] = round(
                    rng.uniform(0.2, max(horizon / 3.0, 0.3)), 6
                )
            plan["catchup_limit"] = rng.randint(0, 16)
        if rng.random() < active:
            plan["burst_rate"] = round(rng.uniform(0.05, 0.6), 6)
            plan["burst_fraction"] = (
                1.0  # a burst that kills the entire population
                if rng.random() < extreme
                else round(rng.uniform(0.05, 1.0), 6)
            )
        # Process faults compose with every channel except the outage ones
        # (FaultPlan forbids overlapping server-down sources, so the two
        # outage-style channels are sampled mutually exclusively).
        if (
            "outage_windows" not in plan
            and "outage_rate" not in plan
            and rng.random() < active
        ):
            faults: List[List[Any]] = []
            if rng.random() < 0.7:
                kind = rng.choice(["kill-server", "stop-server"])
                at = round(rng.uniform(0.0, horizon * 0.6), 6)
                duration = (
                    0.0
                    if kind == "kill-server"
                    else round(rng.uniform(0.1, max(horizon / 4.0, 0.2)), 6)
                )
                faults.append([kind, at, duration, 0.0])
            if rng.random() < 0.6 or not faults:
                kind = rng.choice(["kill-peers", "stop-peers"])
                at = round(rng.uniform(0.0, horizon * 0.8), 6)
                duration = (
                    0.0
                    if kind == "kill-peers"
                    else round(rng.uniform(0.1, max(horizon / 4.0, 0.2)), 6)
                )
                fraction = (
                    1.0  # take out every peer process at once
                    if rng.random() < extreme
                    else round(rng.uniform(0.05, 1.0), 6)
                )
                faults.append([kind, at, duration, fraction])
            plan["process_faults"] = faults
            plan["process_restart_latency"] = round(
                rng.uniform(0.1, max(horizon / 4.0, 0.3)), 6
            )
        return plan

    def _sample_adversary(self, rng: random.Random) -> Dict[str, Any]:
        """Draw one adversary plan dict (empty = honest population).

        Static fractions must sum to <= 1.0, so each activated role draws
        from the head-room the earlier roles left; the extreme corner hands
        the entire remaining population to a single role.
        """
        if rng.random() >= self.adversary_probability:
            return {}
        adversary: Dict[str, Any] = {}
        active = self.channel_probability
        extreme = self.extreme_probability
        remaining = 1.0
        for role in ("liar_fraction", "freerider_fraction", "polluter_fraction"):
            if remaining < 0.05 or rng.random() >= active:
                continue
            fraction = (
                remaining
                if rng.random() < extreme
                else round(rng.uniform(0.05, remaining), 6)
            )
            adversary[role] = round(fraction, 6)
            remaining = round(remaining - fraction, 6)
        if "liar_fraction" in adversary:
            adversary["liar_inflation"] = round(
                self._uniform(rng, self.liar_inflation), 6
            )
        if "polluter_fraction" in adversary:
            adversary["polluter_targeting"] = rng.choice(list(VALID_TARGETING))
        if rng.random() < active:
            adversary["sybil_rate"] = round(
                self._uniform(rng, self.sybil_rate), 6
            )
            adversary["sybil_fraction"] = (
                1.0  # a burst converting the entire population
                if rng.random() < extreme
                else round(rng.uniform(0.05, 1.0), 6)
            )
        return adversary

    def sample(self, rng: random.Random, trial_id: int) -> TrialConfig:
        """Draw one trial from the space using *rng* exclusively."""
        params = self._sample_params(rng)
        warmup = round(self._uniform(rng, self.warmup), 6)
        duration = round(self._uniform(rng, self.duration), 6)
        plan = self._sample_plan(rng, warmup + duration)
        adversary = self._sample_adversary(rng)
        # Defense toggles ride the params dict (they are Parameters fields);
        # setdefault keeps campaign-level params_overrides authoritative.
        if rng.random() < self.defense_probability:
            params.setdefault("pull_scoring", True)
        if rng.random() < self.defense_probability:
            params.setdefault("advert_discounting", True)
        config = TrialConfig(
            trial_id=trial_id,
            seed=rng.getrandbits(31),
            params=params,
            plan=plan,
            adversary=adversary,
            warmup=warmup,
            duration=duration,
            every=self._randint(rng, self.every),
        )
        # Fail at sampling time, not inside a worker, if the space ever
        # drifts outside the validated parameter envelope.
        config.parameters()
        return config


def sample_trial(
    campaign_seed: int,
    trial_id: int,
    space: Optional[PlanSpace] = None,
) -> TrialConfig:
    """Draw campaign trial *trial_id* — a pure function of the arguments.

    Each trial gets its own named substream of the campaign seed, so
    campaigns are embarrassingly parallel and any single trial can be
    reconstructed without replaying the ones before it.
    """
    if trial_id < 0:
        raise ValueError(f"trial_id must be >= 0, got {trial_id}")
    space = space if space is not None else PlanSpace()
    rng = SeedSequenceRegistry(campaign_seed).python(f"chaos-trial-{trial_id}")
    return space.sample(rng, trial_id)
