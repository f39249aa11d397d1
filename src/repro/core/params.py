"""Protocol parameters (the symbols of Sec. 2) and derived quantities.

One frozen dataclass carries every knob of the indirect collection protocol:

======================= ===== =============================================
attribute               paper meaning
======================= ===== =============================================
``n_peers``             N     peers in the session
``arrival_rate``        λ     statistics blocks generated per peer per unit
                              time (segments arrive at rate λ/s)
``gossip_rate``         μ     coded-block transmissions per peer per unit
                              time (upload bandwidth set aside for reporting)
``deletion_rate``       γ     TTL expiry rate; mean block lifetime is 1/γ
``segment_size``        s     blocks grouped per segment (s=1: no coding)
``normalized_capacity`` c     aggregate server pull rate over N, c=c_s·N_s/N
``n_servers``           N_s   number of collaborating logging servers
``buffer_capacity``     B     per-peer buffer cap in blocks
======================= ===== =============================================

plus implementation choices (simulation fidelity mode, payload size, gossip
target retry budget, churn lifetime).  Parameter sanity is enforced eagerly;
notably the paper's standing assumptions ``c < μ`` (Theorem 2) and
``μ/γ < 20``-ish storage overhead are surfaced as warnings-by-property, not
hard errors, so exploratory sweeps remain possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.adversary.plan import AdversaryPlan
from repro.faults.plan import FaultPlan
from repro.util.validation import (
    require_nonnegative,
    require_positive,
    require_positive_int,
    require_rate,
)

#: Simulation fidelity modes.
MODE_ABSTRACT = "abstract"
MODE_RLNC = "rlnc"
VALID_MODES = (MODE_ABSTRACT, MODE_RLNC)

#: Simulation engines.
#:
#: ``"event"`` — the event-exact engine: every protocol action is one event
#: on the shared heap (repro.core.system + repro.sim.engine).  Any mode.
#:
#: ``"fast"`` — the vectorized struct-of-arrays engine (repro.fastsim):
#: peer/segment state lives in flat numpy columns and the Poisson channels
#: are advanced in tau-leaping batch steps.  Abstract mode only; see
#: docs/PERFORMANCE.md for the accuracy/speed trade-off.
ENGINE_EVENT = "event"
ENGINE_FAST = "fast"
VALID_ENGINES = (ENGINE_EVENT, ENGINE_FAST)

#: Segment-selection rules for gossip sources and server pulls.
#:
#: ``"proportional"`` — a segment is chosen with probability proportional to
#: the number of its blocks in the chosen peer's buffer (i.e. a uniformly
#: random *block* is picked).  This realizes the degree-proportional
#: equivalence the paper's analysis assumes above Eq. (2), and is the setting
#: under which simulation matches the ODE curves, as in the paper's figures.
#:
#: ``"uniform"`` — a segment is chosen uniformly among the *distinct*
#: segments in the buffer, which is the literal protocol text of Sec. 2
#: ("chooses a segment r uniformly at random from among all the segments of
#: which it has at least one block").  This departs measurably from the
#: analysis — see the selection ablation (E-ABL-SELECT) in EXPERIMENTS.md.
SELECTION_PROPORTIONAL = "proportional"
SELECTION_UNIFORM = "uniform"
VALID_SELECTIONS = (SELECTION_PROPORTIONAL, SELECTION_UNIFORM)


@dataclass(frozen=True)
class Parameters:
    """Complete configuration of one collection session."""

    n_peers: int
    arrival_rate: float
    gossip_rate: float
    deletion_rate: float
    normalized_capacity: float
    segment_size: int = 1
    n_servers: int = 4
    buffer_capacity: Optional[int] = None
    mean_lifetime: Optional[float] = None
    mode: str = MODE_ABSTRACT
    payload_bytes: int = 0
    gossip_target_tries: int = 32
    segment_selection: str = SELECTION_PROPORTIONAL
    #: server pull scheduling: "random" (the paper), "round-robin",
    #: "avoid-redundant", or "greedy-completion" (see repro.core.server).
    pull_policy: str = "random"
    #: candidate draws per pull for the non-random policies
    scheduler_tries: int = 8
    #: mean gossip transfer latency (exponential); 0 = instantaneous, the
    #: paper's model.  In-flight blocks are re-checked for target
    #: eligibility on arrival and dropped if the target filled up or the
    #: segment meanwhile went extinct (realism extension).
    gossip_latency: float = 0.0
    #: optional fault-injection configuration (lossy links, pollution,
    #: server outages, churn bursts); None or a null plan means fault-free.
    faults: Optional[FaultPlan] = None
    #: optional Byzantine-behavior configuration (liars, free-riders,
    #: strategic polluters, sybil bursts); None or a null plan means every
    #: peer is honest.  See repro.adversary.
    adversary: Optional[AdversaryPlan] = None
    #: server-side defense: per-identity EWMA of useful-rank-delivered with
    #: quarantine of persistently junk-serving pull sources.
    pull_scoring: bool = False
    #: server-side defense: liar advertisement capture is discounted by the
    #: captured identity's trust score (requires no quarantine; the two
    #: defenses are independently toggleable).
    advert_discounting: bool = False
    #: simulation engine: "event" (event-exact, any mode) or "fast" (the
    #: vectorized tau-leaping engine of repro.fastsim, abstract mode only).
    engine: str = ENGINE_EVENT
    #: fast-engine step size Δ for tau-leaping over the Poisson channel
    #: clocks, in simulated time units; must be > 0.  Ignored by the event
    #: engine.
    tau: float = 0.01

    def __post_init__(self) -> None:
        require_positive_int("n_peers", self.n_peers)
        require_rate("arrival_rate", self.arrival_rate)
        require_rate("gossip_rate", self.gossip_rate, allow_zero=True)
        require_rate("deletion_rate", self.deletion_rate)
        require_rate("normalized_capacity", self.normalized_capacity)
        require_positive_int("segment_size", self.segment_size)
        require_positive_int("n_servers", self.n_servers)
        if self.n_servers > self.n_peers:
            raise ValueError(
                f"n_servers ({self.n_servers}) cannot exceed n_peers "
                f"({self.n_peers})"
            )
        if self.buffer_capacity is not None:
            require_positive_int("buffer_capacity", self.buffer_capacity)
            if self.buffer_capacity < self.segment_size:
                raise ValueError(
                    f"buffer_capacity ({self.buffer_capacity}) must be >= "
                    f"segment_size ({self.segment_size}) or no segment can "
                    f"ever be injected"
                )
        if self.mean_lifetime is not None and not math.isinf(self.mean_lifetime):
            require_positive("mean_lifetime", self.mean_lifetime)
        if self.mode not in VALID_MODES:
            raise ValueError(
                f"mode must be one of {VALID_MODES}, got {self.mode!r}"
            )
        if self.payload_bytes < 0:
            raise ValueError(
                f"payload_bytes must be >= 0, got {self.payload_bytes}"
            )
        if self.payload_bytes and self.mode != MODE_RLNC:
            raise ValueError("payload_bytes requires mode='rlnc'")
        require_positive_int("gossip_target_tries", self.gossip_target_tries)
        if self.segment_selection not in VALID_SELECTIONS:
            raise ValueError(
                f"segment_selection must be one of {VALID_SELECTIONS}, "
                f"got {self.segment_selection!r}"
            )
        # imported late to avoid a params <-> server import cycle
        from repro.core.server import VALID_POLICIES

        if self.pull_policy not in VALID_POLICIES:
            raise ValueError(
                f"pull_policy must be one of {VALID_POLICIES}, "
                f"got {self.pull_policy!r}"
            )
        require_positive_int("scheduler_tries", self.scheduler_tries)
        require_nonnegative("gossip_latency", self.gossip_latency)
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )
        if self.adversary is not None and not isinstance(
            self.adversary, AdversaryPlan
        ):
            raise ValueError(
                f"adversary must be an AdversaryPlan or None, "
                f"got {self.adversary!r}"
            )
        if self.engine not in VALID_ENGINES:
            raise ValueError(
                f"engine must be one of {VALID_ENGINES}, got {self.engine!r}"
            )
        require_positive("tau", self.tau)
        if self.engine == ENGINE_FAST:
            if self.mode != MODE_ABSTRACT:
                raise ValueError(
                    f"engine='fast' requires mode={MODE_ABSTRACT!r}, "
                    f"got mode={self.mode!r}"
                )
            if self.gossip_latency != 0.0:
                raise ValueError(
                    f"engine='fast' requires gossip_latency == 0 "
                    f"(instantaneous transfers), got {self.gossip_latency!r}"
                )
            if self.pull_policy != "random":
                raise ValueError(
                    f"engine='fast' requires pull_policy='random', "
                    f"got {self.pull_policy!r}"
                )
            if self.segment_selection != SELECTION_PROPORTIONAL:
                raise ValueError(
                    f"engine='fast' requires segment_selection="
                    f"{SELECTION_PROPORTIONAL!r}, "
                    f"got {self.segment_selection!r}"
                )
            if self.has_defenses:
                raise ValueError(
                    "engine='fast' does not support the server-side "
                    "defenses (pull_scoring/advert_discounting)"
                )

    # -- derived quantities --------------------------------------------------

    @property
    def segment_arrival_rate(self) -> float:
        """Per-peer segment injection rate λ/s."""
        return self.arrival_rate / self.segment_size

    @property
    def per_server_rate(self) -> float:
        """Per-server pull rate c_s = c·N/N_s."""
        return self.normalized_capacity * self.n_peers / self.n_servers

    @property
    def aggregate_capacity(self) -> float:
        """Throughput capacity C = c·N (Theorem 2)."""
        return self.normalized_capacity * self.n_peers

    @property
    def capacity_ratio(self) -> float:
        """c/λ — fraction of demand the servers can absorb instantaneously."""
        return self.normalized_capacity / self.arrival_rate

    @property
    def occupancy_upper_bound(self) -> float:
        """ρ upper bound μ/γ + λ/γ (Theorem 1 with z̃₀ → 0)."""
        return (self.gossip_rate + self.arrival_rate) / self.deletion_rate

    @property
    def storage_overhead_bound(self) -> float:
        """Theorem 1's overhead bound μ/γ."""
        return self.gossip_rate / self.deletion_rate

    @property
    def effective_buffer_capacity(self) -> int:
        """B — explicit, or auto-sized to keep the cap effectively unbinding.

        Theorem 1 assumes "the buffer size B is large enough"; the automatic
        default is several standard deviations above the expected occupancy
        and at least three segments deep.
        """
        if self.buffer_capacity is not None:
            return self.buffer_capacity
        rho = self.occupancy_upper_bound
        slack = rho + 6.0 * math.sqrt(max(rho, 1.0))
        return max(int(math.ceil(slack)), 3 * self.segment_size, 32)

    @property
    def churn_enabled(self) -> bool:
        """True when a finite mean lifetime is configured."""
        return self.mean_lifetime is not None and not math.isinf(self.mean_lifetime)

    @property
    def has_faults(self) -> bool:
        """True when a non-null fault plan is configured."""
        return self.faults is not None and not self.faults.is_null

    @property
    def has_adversary(self) -> bool:
        """True when a non-null adversary plan is configured."""
        return self.adversary is not None and not self.adversary.is_null

    @property
    def has_defenses(self) -> bool:
        """True when any server-side defense is enabled."""
        return self.pull_scoring or self.advert_discounting

    @property
    def is_coded(self) -> bool:
        """True for s ≥ 2 (network coding in effect)."""
        return self.segment_size >= 2

    @property
    def satisfies_capacity_assumption(self) -> bool:
        """Theorem 2's standing assumption c < μ."""
        return self.normalized_capacity < self.gossip_rate

    def with_changes(self, **changes: Any) -> "Parameters":
        """Return a copy with *changes* applied (re-validated)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line human-readable summary."""
        lifetime = (
            f"L={self.mean_lifetime:g}" if self.churn_enabled else "static"
        )
        engine = (
            ""
            if self.engine == ENGINE_EVENT
            else f" engine={self.engine} tau={self.tau:g}"
        )
        return (
            f"N={self.n_peers} λ={self.arrival_rate:g} μ={self.gossip_rate:g} "
            f"γ={self.deletion_rate:g} s={self.segment_size} "
            f"c={self.normalized_capacity:g} N_s={self.n_servers} "
            f"B={self.effective_buffer_capacity} {lifetime} mode={self.mode}"
            f"{engine}"
        )
