"""Logging servers: the coupon-collector pull of Sec. 2, plus variants.

"At rate c_s, each server chooses a peer p u.a.r. from among all the peers
with non-null buffers and chooses a random segment in peer p, which then
transmits one coded block of this segment to the server."

Servers are deliberately simple: they never compare buffers with peers or
with each other, so redundant pulls happen and are charged against the
collection efficiency η (Theorem 2).  All servers pool their collected
blocks — the segment state ``j`` counts blocks collected by *the servers*
collectively — while per-server accounting records how the load spreads.

Beyond the paper's policy, the pool implements three pull-scheduling
variants (the E-ABL-SCHED ablation) that probe how much of the redundancy
cost smarter servers could claw back while staying stateless-ish:

- ``"random"`` — the paper's policy exactly (default);
- ``"round-robin"`` — sweep peer slots cyclically (skipping empty buffers)
  instead of sampling, equalizing per-peer service;
- ``"avoid-redundant"`` — resample up to ``SCHEDULER_TRIES`` times when the
  drawn segment is already complete (a one-bit "done" hint per segment,
  which a real deployment gets for free from its own decode state);
- ``"greedy-completion"`` — draw ``SCHEDULER_TRIES`` candidates and pull
  the incomplete one closest to completion, concentrating pulls so partial
  segments actually finish (improves goodput, not just efficiency).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.params import (
    SELECTION_PROPORTIONAL,
    SELECTION_UNIFORM,
    VALID_SELECTIONS,
)
from repro.adversary.defense import (
    OUTCOME_JUNK,
    OUTCOME_REDUNDANT,
    OUTCOME_USEFUL,
    PullSourceScorer,
)
from repro.adversary.injector import AdversaryInjector
from repro.coding.block import corrupt_block
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry, SegmentState
from repro.faults.injector import FaultVerdicts
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import (
    KIND_DROP,
    KIND_POLLUTED,
    KIND_QUARANTINE,
    Tracer,
)

#: Server pull-scheduling policies (see module docstring).
POLICY_RANDOM = "random"
POLICY_ROUND_ROBIN = "round-robin"
POLICY_AVOID_REDUNDANT = "avoid-redundant"
POLICY_GREEDY_COMPLETION = "greedy-completion"
VALID_POLICIES = (
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    POLICY_AVOID_REDUNDANT,
    POLICY_GREEDY_COMPLETION,
)

#: Candidate draws per pull for the "avoid-redundant" and
#: "greedy-completion" policies.
SCHEDULER_TRIES = 8


#: What one pull trial can count; each is the name of the report field
#: (``MetricsReport`` / live ``CollectorStats``) it feeds.
IDLE = "idle_pulls"
CAPTURED = "pulls_captured"
QUARANTINE_REJECTED = "pulls_quarantine_rejected"
REDUNDANT = "redundant_pulls"
DROPPED = "transfers_dropped"
POLLUTED = "blocks_rejected_polluted"
USEFUL = "useful_pulls"
NEWLY_QUARANTINED = "slots_quarantined"

#: What a trial yields to ask its driver for an ordinary fresh candidate
#: (any other yielded value is the attractor slot to draw from).
FRESH = -1

#: Outcomes :class:`LoggingServer` also tallies per server.
_PER_SERVER = frozenset({IDLE, REDUNDANT, USEFUL})

#: How each block-bearing outcome scores its source with the defense.
_SCORED = {
    USEFUL: OUTCOME_USEFUL,
    REDUNDANT: OUTCOME_REDUNDANT,
    POLLUTED: OUTCOME_JUNK,
}


class PullCandidate(Protocol):
    """What a pull trial sees of one drawn (peer, segment) pair."""

    @property
    def source(self) -> Tuple[int, int]:
        """The serving identity, ``(slot, generation)``."""
        ...

    @property
    def segment_id(self) -> int:
        """The drawn segment."""
        ...

    @property
    def is_complete(self) -> bool:
        """True when the servers already reconstructed the segment."""
        ...

    def take(self, now: float) -> Tuple[bool, bool]:
        """Transfer one coded block: ``(polluted, innovative)``.

        Hides how pollution is detected — the abstract tag, the
        simulator's decoder, or a wire block's zeroed header — and feeds a
        clean block to the pooled decode state.
        """
        ...


def pull_trial(
    candidate: Optional[PullCandidate],
    now: float,
    count: Callable[[str], None],
    faults: Optional[FaultVerdicts],
    tracer: Optional[Tracer],
    adversary: Optional[AdversaryInjector],
    scorer: Optional[PullSourceScorer],
    trust_of: Optional[Callable[[int], float]],
    retries: int,
    on_quarantine: Optional[Callable[[int, int], None]],
) -> Generator[int, Optional[PullCandidate], None]:
    """One server pull trial, sans IO: the single statement of the ladder.

    The driver hands in its first *candidate* (None when nothing is
    buffered anywhere) and answers every ``yield`` with the next one: a
    fresh draw for :data:`FRESH`, a draw from that slot's buffer for a
    yielded slot (the attractor that captured the pull); None again means
    "nothing to pull".  The trial owns the order of every fault/adversary
    RNG draw, scorer update, trace record, and ``count(outcome)`` call:

    idle -> (capture) -> (quarantine re-draw) -> already complete, charged
    redundant -> transfer lost in flight, once per trial -> polluted
    blocks re-pulled while ``pollution_repull_budget`` lasts -> innovative
    is useful, anything else redundant.

    Polluted blocks never reach the decode state: ``candidate.take``
    detects them (in RLNC mode through real GF(2^8) rank arithmetic).
    *adversary* and *scorer* stay behind the ``None`` guards; *trust_of*
    (advertisement discounting) maps an attractor slot to its trust, and
    *retries* bounds the quarantine re-draws.
    """

    if candidate is None:
        # Nothing buffered anywhere: the trial is spent but collects
        # nothing (possible during drain-out or at tiny lambda).
        count(IDLE)
        return

    if adversary is not None:
        captured = adversary.capture_pull()
        if captured is not None:
            # A lying advertisement won the target selection.  Under
            # advertisement discounting the capture only survives with
            # probability equal to the attractor's trust score.
            trust = 1.0 if trust_of is None else trust_of(captured)
            if adversary.accept_capture(trust):
                count(CAPTURED)
                candidate = yield captured
                if candidate is None:
                    # The attractor has nothing buffered: the pull is
                    # wasted outright (bait with no switch).
                    count(IDLE)
                    return

    if scorer is not None and scorer.quarantine_enabled:
        # Pull-source scoring: re-draw while the selected identity is
        # quarantined, up to the retry budget.  An exhausted budget pulls
        # anyway — quarantine demotes, it never starves the servers
        # (liveness under fraction=1.0 adversaries).
        tries = retries
        while not scorer.admit(*candidate.source):
            count(QUARANTINE_REJECTED)
            tries -= 1
            if tries <= 0:
                break
            candidate = yield FRESH
            if candidate is None:
                count(IDLE)
                return

    # "servers may collect redundant blocks of a segment that is already
    # decodable" — charged, not prevented.
    outcome = REDUNDANT
    if not candidate.is_complete:
        if faults is not None and faults.drop_pull():
            count(DROPPED)
            if tracer is not None:
                tracer.record(
                    now,
                    KIND_DROP,
                    peer=candidate.source[0],
                    segment=candidate.segment_id,
                    pull=1.0,
                )
            return
        attempts = 1
        if faults is not None and faults.polluters:
            attempts += faults.plan.pollution_repull_budget
        while True:
            polluted, innovative = candidate.take(now)
            if not polluted:
                if innovative:
                    outcome = USEFUL
                break
            count(POLLUTED)
            if scorer is not None:
                _score(
                    scorer, candidate.source, POLLUTED,
                    now, count, tracer, on_quarantine,
                )
            if tracer is not None:
                tracer.record(
                    now,
                    KIND_POLLUTED,
                    peer=candidate.source[0],
                    segment=candidate.segment_id,
                )
            attempts -= 1
            if attempts <= 0:
                # Re-pull budget spent: the trial collected nothing.
                return
            candidate = yield FRESH
            if candidate is None:
                count(IDLE)
                return
            if candidate.is_complete:
                break
    count(outcome)
    if scorer is not None:
        _score(
            scorer, candidate.source, outcome,
            now, count, tracer, on_quarantine,
        )


def _score(
    scorer: PullSourceScorer,
    source: Tuple[int, int],
    outcome: str,
    now: float,
    count: Callable[[str], None],
    tracer: Optional[Tracer],
    on_quarantine: Optional[Callable[[int, int], None]],
) -> None:
    """Fold one block-bearing outcome into the defense scorer."""
    if scorer.record(*source, _SCORED[outcome]):
        # This observation newly quarantined the identity.
        count(NEWLY_QUARANTINED)
        if tracer is not None:
            tracer.record(now, KIND_QUARANTINE, peer=source[0])
        if on_quarantine is not None:
            on_quarantine(*source)


@dataclass
class LoggingServer:
    """Per-server pull accounting (state is pooled in the registry)."""

    server_id: int
    pulls: int = 0
    useful_pulls: int = 0
    redundant_pulls: int = 0
    idle_pulls: int = 0

    @property
    def efficiency(self) -> float:
        """Fraction of this server's pulls that advanced some segment."""
        return self.useful_pulls / self.pulls if self.pulls else 0.0


class _Held:
    """The event engine's candidate: *peer*'s holding of *state*'s segment."""

    __slots__ = ("_pool", "_peer", "_state", "is_complete")

    def __init__(
        self, pool: "ServerPool", peer: Peer, state: SegmentState
    ) -> None:
        self._pool = pool
        self._peer = peer
        self._state = state
        self.is_complete = state.is_complete

    @property
    def source(self) -> Tuple[int, int]:
        return self._peer.slot, self._peer.generation

    @property
    def segment_id(self) -> int:
        return self._state.segment_id

    def take(self, now: float) -> Tuple[bool, bool]:
        pool = self._pool
        peer = self._peer
        state = self._state
        holding = peer.holdings[state.segment_id]
        adversary = pool._adversary
        faults = pool._faults
        adv_junk = adversary is not None and adversary.serves_junk(
            peer.slot, peer.generation
        )
        polluted = adv_junk or (
            faults is not None and faults.pollutes(peer.slot, holding)
        )
        if adv_junk:
            pool._metrics.junk_blocks_served += 1
        if pool._rlnc_mode:
            block = holding.make_coded_block(pool._coding_rng, now)
            if polluted:
                block = corrupt_block(block)
            # The corrupted block still goes through the real decoder:
            # detection must come from rank arithmetic, not from trust
            # in the tag.  A zeroed header can never be innovative.
            innovative = pool._registry.on_server_block(state, now, block)
            if polluted and innovative:
                raise AssertionError(
                    "polluted block counted innovative by the decoder"
                )
        elif polluted:
            # Abstract mode: the tag *is* the detection (tagged-block
            # approximation); the block never reaches the server state.
            innovative = False
        else:
            innovative = pool._registry.on_server_block(state, now)
        return polluted, innovative


class ServerPool:
    """The collaborating logging servers and their pull behavior.

    Collaborators are injected so the pool is testable without the full
    system: *sample_nonempty_peer* returns a uniformly random peer with a
    non-empty buffer (or None), and *rng*/*coding_rng* drive segment choice
    and RLNC re-encoding respectively.
    """

    def __init__(
        self,
        n_servers: int,
        registry: SegmentRegistry,
        metrics: MetricsCollector,
        rng: random.Random,
        coding_rng: np.random.Generator,
        sample_nonempty_peer: Callable[[], Optional[Peer]],
        rlnc_mode: bool,
        segment_selection: str = SELECTION_PROPORTIONAL,
        pull_policy: str = POLICY_RANDOM,
        all_peers: Optional[Callable[[int], Peer]] = None,
        n_slots: int = 0,
        faults: Optional[FaultVerdicts] = None,
        tracer: Optional[Tracer] = None,
        adversary: Optional[AdversaryInjector] = None,
        scorer: Optional[PullSourceScorer] = None,
        discounting: bool = False,
        on_quarantine: Optional[Callable[[int, int], None]] = None,
        clock: Optional[Simulator] = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if segment_selection not in VALID_SELECTIONS:
            raise ValueError(
                f"segment_selection must be one of {VALID_SELECTIONS}, "
                f"got {segment_selection!r}"
            )
        if pull_policy not in VALID_POLICIES:
            raise ValueError(
                f"pull_policy must be one of {VALID_POLICIES}, "
                f"got {pull_policy!r}"
            )
        if pull_policy == POLICY_ROUND_ROBIN and (all_peers is None or n_slots < 1):
            raise ValueError(
                "round-robin policy needs the all_peers accessor and n_slots"
            )
        if adversary is not None and all_peers is None:
            raise ValueError(
                "an adversary injector needs the all_peers accessor "
                "(captured pulls must be redirected to attractor slots)"
            )
        self.servers: List[LoggingServer] = [
            LoggingServer(server_id=i) for i in range(n_servers)
        ]
        self._registry = registry
        self._metrics = metrics
        self._counts = [self._counter(server) for server in self.servers]
        self._rng = rng
        self._coding_rng = coding_rng
        self._sample_nonempty_peer = sample_nonempty_peer
        self._rlnc_mode = rlnc_mode
        self._uniform_selection = segment_selection == SELECTION_UNIFORM
        #: the policy's fresh (peer, segment) draw, resolved once.
        self._select = {
            POLICY_RANDOM: self._draw_candidate,
            POLICY_ROUND_ROBIN: self._draw_round_robin,
            POLICY_AVOID_REDUNDANT: self._select_avoid_redundant,
            POLICY_GREEDY_COMPLETION: self._select_greedy_completion,
        }[pull_policy]
        self._all_peers = all_peers
        self._n_slots = n_slots
        self._rr_cursor = 0
        #: optional fault verdicts (transfer loss + pollution detection)
        #: and Tracer for the fault-channel events.
        self._faults = faults
        self._tracer = tracer
        #: optional AdversaryInjector (liar capture, junk service) and
        #: PullSourceScorer defense state, plus the defense toggles.
        self._adversary = adversary
        self._scorer = scorer
        self._trust_of = (
            self._attractor_trust
            if discounting and scorer is not None
            else None
        )
        self._on_quarantine = on_quarantine
        #: whose time a pull called without *now* (the c_s-clock's call) uses.
        self._clock = clock

    # -- candidate selection ---------------------------------------------------

    def _draw_segment(self, peer: Peer) -> SegmentState:
        return self._registry.get(
            peer.draw_segment(self._rng, self._uniform_selection)
        )

    def _draw_candidate(self) -> Optional[Tuple[Peer, SegmentState]]:
        """One (peer, segment state) draw under the paper's random policy."""
        peer = self._sample_nonempty_peer()
        if peer is None:
            return None
        return peer, self._draw_segment(peer)

    def _draw_round_robin(self) -> Optional[Tuple[Peer, SegmentState]]:
        """Next non-empty peer in slot order (at most one full sweep)."""
        for _ in range(self._n_slots):
            peer = self._all_peers(self._rr_cursor)
            self._rr_cursor = (self._rr_cursor + 1) % self._n_slots
            if not peer.is_empty:
                return peer, self._draw_segment(peer)
        return None

    def _select_avoid_redundant(self) -> Optional[Tuple[Peer, SegmentState]]:
        """Resample while the drawn segment is already complete."""
        candidate = None
        for _ in range(SCHEDULER_TRIES):
            candidate = self._draw_candidate()
            if candidate is None or not candidate[1].is_complete:
                return candidate
        return candidate  # every try was redundant: pay the redundant pull

    def _select_greedy_completion(self) -> Optional[Tuple[Peer, SegmentState]]:
        """The incomplete candidate closest to completion among the draws."""
        best: Optional[Tuple[Peer, SegmentState]] = None
        for _ in range(SCHEDULER_TRIES):
            candidate = self._draw_candidate()
            if candidate is None:
                break
            state: SegmentState = candidate[1]
            if state.is_complete:
                if best is None:
                    best = candidate
                continue
            if (
                best is None
                or best[1].is_complete
                or state.collected > best[1].collected
            ):
                best = candidate
        return best

    def _candidate(self, request: int) -> Optional[_Held]:
        """Answer one request of the trial (see :func:`pull_trial`)."""
        if request == FRESH:
            selected = self._select()
        else:
            assert self._all_peers is not None  # __init__ enforces with adversary
            peer = self._all_peers(request)
            selected = None if peer.is_empty else (peer, self._draw_segment(peer))
        return None if selected is None else _Held(self, *selected)

    def _attractor_trust(self, slot: int) -> float:
        assert self._all_peers is not None and self._scorer is not None
        return self._scorer.trust(slot, self._all_peers(slot).generation)

    def _counter(self, server: LoggingServer) -> Callable[[str], None]:
        """The trial's ``count`` hook for *server*: metrics + own tally."""
        metrics = self._metrics

        def count(outcome: str) -> None:
            setattr(metrics, outcome, getattr(metrics, outcome) + 1)
            if outcome in _PER_SERVER:
                setattr(server, outcome, getattr(server, outcome) + 1)

        return count

    def pull(self, server_index: int, now: Optional[float] = None) -> None:
        """Execute one pull trial for server *server_index* at time *now*
        (by default the clock's time).

        Drives :func:`pull_trial` synchronously: candidates come from the
        pull policy (or from the attractor slot that captured the trial),
        outcomes land in the metrics and the per-server tallies.
        """
        if now is None:
            assert self._clock is not None, "a pull without now needs a clock"
            now = self._clock.now
        self.servers[server_index].pulls += 1
        self._metrics.pulls += 1
        trial = pull_trial(
            self._candidate(FRESH),
            now,
            self._counts[server_index],
            self._faults,
            self._tracer,
            self._adversary,
            self._scorer,
            self._trust_of,
            SCHEDULER_TRIES,
            self._on_quarantine,
        )
        # Most trials end without asking for another candidate.
        request = next(trial, None)
        if request is not None:
            try:
                while True:
                    request = trial.send(self._candidate(request))
            except StopIteration:
                pass

    # -- diagnostics -----------------------------------------------------------

    def total_pulls(self) -> int:
        """Aggregate pull trials across all servers."""
        return sum(server.pulls for server in self.servers)

    def pool_efficiency(self) -> float:
        """Aggregate useful/total ratio across all servers."""
        pulls = self.total_pulls()
        if not pulls:
            return 0.0
        return sum(server.useful_pulls for server in self.servers) / pulls

    def load_balance(self) -> float:
        """Max/mean pull ratio across servers (1.0 = perfectly even)."""
        pulls = [server.pulls for server in self.servers]
        total = sum(pulls)
        if not total:
            return 1.0
        mean = total / len(pulls)
        return max(pulls) / mean
