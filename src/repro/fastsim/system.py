"""The fast collection system: batch kernels over struct-of-arrays state.

:class:`FastCollectionSystem` is the abstract-mode counterpart of
:class:`repro.core.system.CollectionSystem` for the vectorized engine.
Each protocol channel is a *kernel* — a method applying ``count`` channel
events over a time span ``[t0, t1]`` in one vectorized pass — and the
tau-leap stepper in :mod:`repro.fastsim.engine` drives the kernels
(``count ~ Poisson(rate·tau)`` per step, with event times jittered
uniformly inside the step, which is exact conditional on the count).

Mean-field closure (the documented deviation from the event engine; see
the package docstring): gossip emissions and server pulls draw their
segment from the *network-wide* block composition (a uniform row of the
block table — the degree-proportional rule of the paper's analysis)
rather than from the chosen peer's private buffer, and gossip-target
eligibility reduces to buffer room.  Conservation laws are exact and
checked by :meth:`FastCollectionSystem.consistency_check`.

Metrics ride the event engine's own :class:`MetricsCollector` (it is
passive, so batch increments compose); only delay samples take a
dedicated accumulator so million-peer runs do not materialize one Python
float per completed segment.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.chaos.monitors import InvariantViolation
from repro.core.params import (
    MODE_ABSTRACT,
    SELECTION_PROPORTIONAL,
    Parameters,
)
from repro.fastsim.masks import FastAdversaryMasks, FastFaultMasks
from repro.fastsim.state import FastState, _sorted_unique
from repro.sim.metrics import (
    DelaySummary,
    MetricsCollector,
    MetricsReport,
    fold_report,
)
from repro.sim.rng import SeedSequenceRegistry

#: Consistency-check cadence of the tau stepper, in steps.
CHECK_EVERY_STEPS = 64
#: The tau stepper re-scans the O(M) segment populations for the
#: time-weighted averages every this many steps (peer scans run every step).
STATS_STRIDE = 4


class DelayAccumulator:
    """Streaming delay statistics: exact mean, log-binned percentiles.

    Raw per-segment delay lists do not scale to million-peer sessions
    (tens of millions of Python floats), so the accumulator keeps the
    exact count/sum plus a fixed logarithmic histogram (40 bins per
    decade over 1e-3..1e3 time units) from which percentiles are
    interpolated.  Histograms from shard runs merge by addition, which is
    what makes the sharded percentile deterministic and order-blind.
    """

    #: Bin edges shared by every accumulator (merge compatibility).
    EDGES = np.geomspace(1e-3, 1e3, 241)

    def __init__(self) -> None:
        #: bin 0 is underflow (< EDGES[0]); bin -1 overflow (>= EDGES[-1]).
        self.counts = np.zeros(len(self.EDGES) + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0

    def add(self, delays: np.ndarray) -> None:
        """Fold a batch of non-negative delay samples in."""
        if len(delays) == 0:
            return
        self.count += len(delays)
        self.total += float(delays.sum())
        self.counts += np.bincount(
            np.searchsorted(self.EDGES, delays, side="right"),
            minlength=len(self.counts),
        )

    def merge_counts(self, counts: List[int], count: int, total: float) -> None:
        """Fold another accumulator's serialized state in (shard merge)."""
        self.counts += np.asarray(counts, dtype=np.int64)
        self.count += count
        self.total += total

    def summary(self, segment_size: int) -> DelaySummary:
        """What a report needs of the samples, each one a completed segment
        of *segment_size* original blocks."""
        return DelaySummary(
            self.count,
            self.count * segment_size,
            self.mean(),
            self.percentile(50.0),
            self.percentile(95.0),
        )

    def mean(self) -> Optional[float]:
        """Exact mean delay, or None with no samples."""
        if self.count == 0:
            return None
        return self.total / self.count

    def percentile(self, q: float) -> Optional[float]:
        """Approximate q-th percentile from the histogram (bin-resolution).

        Interpolates log-linearly inside the crossing bin; accurate to the
        ~6% bin width, which is ample for the KS-level fidelity contract.
        """
        if self.count == 0:
            return None
        target = self.count * q / 100.0
        cumulative = np.cumsum(self.counts)
        bin_index = int(np.searchsorted(cumulative, target, side="left"))
        if bin_index <= 0:
            return float(self.EDGES[0])
        if bin_index >= len(self.EDGES):
            return float(self.EDGES[-1])
        lo = self.EDGES[bin_index - 1]
        hi = self.EDGES[bin_index]
        below = cumulative[bin_index - 1]
        inside = self.counts[bin_index]
        fraction = (target - below) / inside if inside else 0.0
        return float(lo * (hi / lo) ** fraction)


class FastCollectionSystem:
    """One abstract-mode collection session on the vectorized engine."""

    def __init__(
        self,
        params: Parameters,
        seed: int = 0,
    ) -> None:
        if params.mode != MODE_ABSTRACT:
            raise ValueError(
                f"fastsim requires mode={MODE_ABSTRACT!r}, got {params.mode!r}"
            )
        if params.segment_selection != SELECTION_PROPORTIONAL:
            raise ValueError(
                f"fastsim requires segment_selection="
                f"{SELECTION_PROPORTIONAL!r}, got {params.segment_selection!r}"
            )
        if params.pull_policy != "random":
            raise ValueError(
                f"fastsim requires pull_policy='random', "
                f"got {params.pull_policy!r}"
            )
        if params.gossip_latency != 0.0:
            raise ValueError(
                f"fastsim requires gossip_latency == 0, "
                f"got {params.gossip_latency!r}"
            )
        if params.has_defenses:
            raise ValueError(
                "fastsim does not support pull_scoring/advert_discounting"
            )
        self.params = params
        self.seed = seed
        self.now = 0.0
        #: total channel events applied (the deterministic work measure the
        #: events/sec benchmarks divide by wall time; never in payloads).
        self.events_applied = 0

        seeds = SeedSequenceRegistry(seed)
        # one numpy substream per channel (counts + within-channel draws)
        self._inj_rng = seeds.numpy("fast:injection")
        self._gossip_rng = seeds.numpy("fast:gossip")
        self._srv_rng = seeds.numpy("fast:server")
        self._ttl_rng = seeds.numpy("fast:ttl")
        self._churn_rng = seeds.numpy("fast:churn")
        self.seeds = seeds

        self.state = FastState(
            params.n_peers,
            params.effective_buffer_capacity,
            params.segment_size,
        )
        self.metrics = MetricsCollector(
            params.n_peers,
            params.arrival_rate,
            params.segment_size,
            params.normalized_capacity,
        )
        self.metrics.set_deletion_rate(params.deletion_rate)
        self.delays = DelayAccumulator()

        # fault/adversary masks: constructed only for non-null plans, on the
        # same-named substreams as the event engine's injectors, so both
        # engines pick the same polluter/role slots at equal seeds.
        self.fault_masks: Optional[FastFaultMasks] = None
        if params.faults is not None and not params.faults.is_null:
            self.fault_masks = FastFaultMasks(
                params.faults,
                seeds.python("faults"),
                seeds.numpy("fast:faults"),
                params.n_peers,
            )
            self.state.is_fault_polluter = self.fault_masks.polluter_mask()
        self.adversary_masks: Optional[FastAdversaryMasks] = None
        if params.adversary is not None and not params.adversary.is_null:
            self.adversary_masks = FastAdversaryMasks(
                params.adversary,
                seeds.python("adversary"),
                seeds.numpy("fast:adversary"),
                params.n_peers,
            )
            masks = self.adversary_masks
            self.state.is_liar = masks.role_mask(masks.liars)
            self.state.is_freerider = masks.role_mask(masks.freeriders)
            self.state.is_adv_polluter = masks.role_mask(masks.polluters)

        #: outage schedule over the run horizon, materialized by run().
        self.outage_windows: Tuple[Tuple[float, float], ...] = ()

    # -- lifecycle -----------------------------------------------------------

    def run(self, warmup: float, duration: float) -> MetricsReport:
        """Simulate ``warmup + duration`` time units; measure the tail."""
        if warmup < 0 or duration <= 0:
            raise ValueError(
                f"need warmup >= 0 and duration > 0, got "
                f"warmup={warmup!r} duration={duration!r}"
            )
        from repro.fastsim.engine import TauLeapStepper

        horizon = warmup + duration
        if self.fault_masks is not None:
            self.outage_windows = self.fault_masks.outage_timeline(horizon)
        stepper = TauLeapStepper(self, self.params.tau)
        stepper.run_until(warmup)
        self.push_averages(self.now, segments=True)
        self.metrics.begin_window(self.now)
        stepper.run_until(horizon)
        self.push_averages(self.now, segments=True)
        self.consistency_check()
        return self.report()

    def report(self) -> MetricsReport:
        """Freeze the measurement window into a MetricsReport.

        The collector's snapshot folded with the streaming accumulator's
        delay summary (the collector's own sample list stays empty here).
        """
        snap = self.metrics.snapshot(self.now)
        delays = self.delays.summary(self.params.segment_size)
        return MetricsReport(
            **fold_report(snap, [snap], delays),
            engine_events_fired=self.events_applied,
        )

    def consistency_check(self) -> None:
        """Array-level invariant monitors (chaos-suite counterparts).

        Checks block conservation (peer side == block table == segment
        side), buffer caps, pollution accounting, collected-count range,
        and that the metrics collector's running block total agrees with
        the arrays.  Raises :class:`InvariantViolation` on any breach.
        """
        # sync the strided averages so the accounting comparisons are
        # point-in-time exact regardless of when the check runs.
        self.push_averages(self.now, segments=True)
        try:
            self.state.check_conservation()
        except AssertionError as error:
            raise InvariantViolation(str(error)) from None
        tracked = self.metrics.total_blocks.value
        actual = float(self.state.n_blocks)
        if tracked != actual:
            raise InvariantViolation(
                f"metrics track {tracked} blocks, arrays hold {actual}"
            )
        saved = float(self.state.saved_segment_count())
        pushed = self.metrics.saved_segments.value
        if pushed != saved:
            raise InvariantViolation(
                f"saved-segment accounting drifted: metrics {pushed}, "
                f"arrays {saved}"
            )

    # -- metric pushes -------------------------------------------------------

    def push_averages(self, now: float, segments: bool) -> None:
        """Advance the time-weighted averages to *now*.

        The O(N) peer scans run every push; the O(M) segment populations
        only when *segments* is set (the stepper strides them).
        """
        state = self.state
        metrics = self.metrics
        metrics.total_blocks.update(now, float(state.n_blocks))
        metrics.empty_peers.update(now, float(state.empty_peer_count()))
        if segments:
            metrics.decodable_segments.update(
                now, float(state.decodable_segment_count())
            )
            metrics.saved_segments.update(
                now, float(state.saved_segment_count())
            )

    def begin_outage(self, at: float) -> None:
        """Servers go dark at *at* (outage accounting only)."""
        self.metrics.servers_down.update(at, 1.0)

    def end_outage(self, at: float, downtime: float) -> int:
        """Servers recover at *at*; returns the catch-up pull count."""
        self.metrics.servers_down.update(at, 0.0)
        if self.fault_masks is None:
            return 0
        per_server = self.fault_masks.catchup_pulls(
            downtime, self.params.per_server_rate
        )
        return per_server * self.params.n_servers

    # -- channel kernels -----------------------------------------------------
    #
    # Every kernel applies `count` channel events over [t0, t1], jittering
    # event times uniformly inside the span (t0 == t1 for the catch-up
    # pulls at an outage's recovery instant).

    def _jitter(self, count: int, t0: float, t1: float, rng: np.random.Generator) -> np.ndarray:
        if t1 > t0:
            return rng.uniform(t0, t1, size=count)
        return np.full(count, t1)

    def kernel_inject(self, count: int, t0: float, t1: float) -> None:
        """Segment injections: fresh segments of s original blocks."""
        if count == 0:
            return
        state = self.state
        metrics = self.metrics
        in_window = metrics.in_window
        s = self.params.segment_size
        slots = self._inj_rng.integers(0, state.n_peers, size=count)
        sources, per_slot = np.unique(slots, return_counts=True)
        room = (state.capacity - state.peer_blocks[sources]) // s
        allowed = np.minimum(per_slot, np.maximum(room, 0))
        total = int(allowed.sum())
        blocked = count - total
        if blocked:
            metrics.blocked_injections.increment(in_window, blocked)
        if total == 0:
            return
        src = np.repeat(sources, allowed)
        times = self._jitter(total, t0, t1, self._inj_rng)
        segment_ids = state.new_segments(times)
        state.append_blocks(
            np.repeat(src, s),
            np.repeat(segment_ids, s),
            np.zeros(total * s, dtype=bool),
        )
        metrics.injected_segments.increment(in_window, total)
        metrics.injected_blocks.increment(in_window, total * s)

    def kernel_gossip(self, count: int, t0: float, t1: float) -> None:
        """Gossip ticks: emission, target search, delivery."""
        if count == 0:
            return
        state = self.state
        metrics = self.metrics
        in_window = metrics.in_window
        n = state.n_peers
        capacity = state.capacity
        senders = self._gossip_rng.integers(0, n, size=count)
        senders = senders[state.peer_blocks[senders] > 0]
        if self.adversary_masks is not None and len(senders):
            suppressed = (state.is_freerider | state.is_sybil)[senders]
            lost = int(suppressed.sum())
            if lost:
                metrics.gossip_suppressed.increment(in_window, lost)
                senders = senders[~suppressed]
        emitting = len(senders)
        if emitting == 0 or state.n_blocks == 0:
            return
        rows = self._gossip_rng.integers(0, state.n_blocks, size=emitting)
        segments = state.block_seg[rows]
        polluted = state.block_polluted[rows]
        if self.adversary_masks is not None and self.adversary_masks.targets_low_degree:
            strategic = state.is_adv_polluter[senders]
            if strategic.any():
                m = state.n_segments
                live = np.flatnonzero(state.seg_alive[:m])
                if len(live):
                    weakest = live[np.argmin(state.seg_degree[live])]
                    segments[strategic] = weakest
                    polluted[strategic] = False  # pollution re-applied by role
        if self.fault_masks is not None:
            polluted |= state.is_fault_polluter[senders]
        if self.adversary_masks is not None:
            polluted |= state.is_adv_polluter[senders]

        # Target search: the event engine rejection-samples up to
        # `gossip_target_tries` uniform candidates with buffer room; the
        # batch form thins each tick by the all-tries-full probability.
        full = state.full_peer_count()
        if full >= n:
            metrics.gossip_no_target.increment(in_window, emitting)
            return
        if full:
            fail = (full / n) ** self.params.gossip_target_tries
            if fail > 0.0:
                no_target = self._gossip_rng.random(emitting) < fail
                missed = int(no_target.sum())
                if missed:
                    metrics.gossip_no_target.increment(in_window, missed)
                    keep = ~no_target
                    segments = segments[keep]
                    polluted = polluted[keep]
        transfers = len(segments)
        if transfers == 0:
            return
        non_full = np.flatnonzero(state.peer_blocks[:n] < capacity)
        receivers = non_full[
            self._gossip_rng.integers(0, len(non_full), size=transfers)
        ]
        # Within-batch capacity: a receiver accepts at most its free space;
        # the excess would have failed the target search.  One sort of the
        # composite key receiver * transfers + arrival groups by receiver in
        # arrival order (int64; n_peers * batch is far below 2**63).
        arrival = np.arange(transfers)
        keys = receivers * transfers + arrival
        keys.sort()
        sorted_receivers, order = np.divmod(keys, transfers)
        head = np.empty(transfers, dtype=bool)
        head[0] = True
        np.not_equal(sorted_receivers[1:], sorted_receivers[:-1], out=head[1:])
        position = arrival - np.maximum.accumulate(np.where(head, arrival, 0))
        free = capacity - state.peer_blocks[sorted_receivers]
        fits = position < free
        overflow = transfers - int(fits.sum())
        if overflow:
            metrics.gossip_no_target.increment(in_window, overflow)
        selected = order[fits]
        delivered = len(selected)
        if delivered == 0:
            return
        metrics.gossip_transfers.increment(in_window, delivered)
        receivers = receivers[selected]
        segments = segments[selected]
        polluted = polluted[selected]
        if self.fault_masks is not None:
            loss = self.fault_masks.gossip_loss_mask(delivered)
            if loss is not None:
                dropped = int(loss.sum())
                if dropped:
                    metrics.transfers_dropped.increment(in_window, dropped)
                    keep = ~loss
                    receivers = receivers[keep]
                    segments = segments[keep]
                    polluted = polluted[keep]
        state.append_blocks(receivers, segments, polluted)

    def kernel_pull(self, count: int, t0: float, t1: float) -> None:
        """Server pull trials: capture, selection, detection, collection."""
        if count == 0:
            return
        state = self.state
        metrics = self.metrics
        in_window = metrics.in_window
        s = self.params.segment_size
        metrics.pulls.increment(in_window, count)
        if state.n_blocks == 0:
            metrics.idle_pulls.increment(in_window, count)
            return
        remaining = count
        if self.adversary_masks is not None:
            attractor_mask = state.is_liar | state.is_sybil
            attractor_count = int(np.count_nonzero(attractor_mask))
            captured = self.adversary_masks.capture_mask(count, attractor_count)
            if captured is not None:
                n_captured = int(captured.sum())
                if n_captured:
                    metrics.pulls_captured.increment(in_window, n_captured)
                    slots = self.adversary_masks.capture_attractors(
                        n_captured, np.flatnonzero(attractor_mask)
                    )
                    empty = int(np.count_nonzero(state.peer_blocks[slots] == 0))
                    if empty:
                        metrics.idle_pulls.increment(in_window, empty)
                    junk = n_captured - empty
                    if junk:
                        # bait-and-switch: the attractor serves junk, the
                        # server detects and discards it (abstract tag).
                        metrics.junk_blocks_served.increment(in_window, junk)
                        metrics.blocks_rejected_polluted.increment(
                            in_window, junk
                        )
                    remaining = count - n_captured
        if remaining <= 0:
            return

        budget = 1
        fault_plan = self.params.faults
        if (
            self.fault_masks is not None
            and self.fault_masks.polluters
            and fault_plan is not None
        ):
            budget += fault_plan.pollution_repull_budget
        trials = remaining
        for attempt in range(budget):
            if trials <= 0:
                break
            if state.n_blocks == 0:
                metrics.idle_pulls.increment(in_window, trials)
                break
            rows = self._srv_rng.integers(0, state.n_blocks, size=trials)
            segments = state.block_seg[rows]
            complete = state.seg_collected[segments] >= s
            n_redundant = int(complete.sum())
            if n_redundant:
                metrics.redundant_pulls.increment(in_window, n_redundant)
            active = ~complete
            rows = rows[active]
            segments = segments[active]
            if len(segments) == 0:
                break
            if self.fault_masks is not None:
                loss = self.fault_masks.pull_loss_mask(len(segments))
                if loss is not None:
                    dropped = int(loss.sum())
                    if dropped:
                        metrics.transfers_dropped.increment(in_window, dropped)
                        keep = ~loss
                        rows = rows[keep]
                        segments = segments[keep]
            if len(segments) == 0:
                break
            # owner and pollution tag matter only to a hostile plan
            junk = np.zeros(len(segments), dtype=bool)
            if self.adversary_masks is not None:
                junk = (
                    state.is_liar | state.is_adv_polluter | state.is_sybil
                )[state.block_peer[rows]]
            polluted = junk.copy()
            if self.fault_masks is not None:
                polluted |= (
                    state.is_fault_polluter[state.block_peer[rows]]
                    | state.block_polluted[rows]
                )
            n_junk = int(junk.sum())
            if n_junk:
                metrics.junk_blocks_served.increment(in_window, n_junk)
            n_polluted = int(polluted.sum())
            if n_polluted:
                metrics.blocks_rejected_polluted.increment(
                    in_window, n_polluted
                )
            clean_segments = segments[~polluted]
            if len(clean_segments):
                uniq, per_segment = np.unique(
                    clean_segments, return_counts=True
                )
                room = s - state.seg_collected[uniq]
                innovative = np.minimum(per_segment, room)
                extra = int((per_segment - innovative).sum())
                state.seg_collected[uniq] += innovative
                n_useful = int(innovative.sum())
                if n_useful:
                    metrics.useful_pulls.increment(in_window, n_useful)
                if extra:
                    metrics.redundant_pulls.increment(in_window, extra)
                completed = uniq[
                    (innovative > 0) & (state.seg_collected[uniq] >= s)
                ]
                if len(completed):
                    self._record_completions(completed, t0, t1, in_window)
            # only polluted draws re-pull (budget > 1 iff fault polluters)
            trials = n_polluted if attempt + 1 < budget else 0

    def _record_completions(
        self, segment_ids: np.ndarray, t0: float, t1: float, in_window: bool
    ) -> None:
        """Account newly completed segments at jittered completion times."""
        times = self._jitter(len(segment_ids), t0, t1, self._srv_rng)
        self.metrics.segments_completed.increment(in_window, len(segment_ids))
        if in_window:
            delays = np.maximum(
                times - self.state.seg_injected_at[segment_ids], 0.0
            )
            self.delays.add(delays)

    def kernel_ttl(self, count: int, t0: float, t1: float) -> None:
        """TTL expiries: *count* uniform live blocks age out.

        Within one tau step the victims are sampled with replacement and
        deduplicated (collisions are an O(count²/blocks) tau-bias).
        """
        if count == 0 or self.state.n_blocks == 0:
            return
        state = self.state
        rows = _sorted_unique(
            self._ttl_rng.integers(0, state.n_blocks, size=count)
        )
        _, _, _, extinct = state.remove_block_rows(rows)
        in_window = self.metrics.in_window
        self.metrics.blocks_expired.increment(in_window, len(rows))
        self._account_extinctions(extinct, in_window)

    def _account_extinctions(
        self, extinct: np.ndarray, in_window: bool
    ) -> None:
        if len(extinct) == 0:
            return
        s = self.params.segment_size
        lost = int(np.count_nonzero(self.state.seg_collected[extinct] < s))
        if lost:
            self.metrics.segments_lost.increment(in_window, lost)

    def kernel_churn(self, count: int, t0: float, t1: float) -> None:
        """Lifetime expirations: *count* uniform slots are replaced."""
        if count == 0:
            return
        slots = _sorted_unique(
            self._churn_rng.integers(0, self.state.n_peers, size=count)
        )
        self.kill_slots(slots, burst=False)

    def kill_slots(self, slots: np.ndarray, burst: bool) -> None:
        """Replace the peers in *slots* with fresh empty-buffer identities.

        The replacement model of Sec. 4: buffered blocks are destroyed
        (the loss mechanism coding defends against) and sybil marks
        revert — a converted identity lives only until its slot churns.
        """
        state = self.state
        metrics = self.metrics
        in_window = metrics.in_window
        rows = state.rows_of_peers(slots)
        _, _, _, extinct = state.remove_block_rows(rows)
        if len(rows):
            metrics.blocks_lost_to_churn.increment(in_window, len(rows))
        metrics.departures.increment(in_window, len(slots))
        if burst:
            metrics.burst_departures.increment(in_window, len(slots))
        self._account_extinctions(extinct, in_window)
        state.is_sybil[slots] = False

    def kernel_fault_burst(self) -> None:
        """One correlated mass-departure event (FaultPlan burst channel)."""
        assert self.fault_masks is not None
        slots = np.asarray(
            self.fault_masks.burst_slots(self.seeds.python("faults")),
            dtype=np.int64,
        )
        self.kill_slots(slots, burst=True)

    def kernel_sybil_burst(self) -> None:
        """One sybil burst: force-churn slots, mark replacements sybil."""
        assert self.adversary_masks is not None
        slots = np.asarray(self.adversary_masks.sybil_slots(), dtype=np.int64)
        self.kill_slots(slots, burst=False)
        self.state.is_sybil[slots] = True
        self.metrics.sybil_conversions.increment(
            self.metrics.in_window, len(slots)
        )

    # -- channel rates -------------------------------------------------------

    def channel_rates(self) -> "ChannelRates":
        """Constant total rates of the aggregate Poisson channels."""
        p = self.params
        churn = 0.0
        if p.churn_enabled:
            assert p.mean_lifetime is not None  # churn_enabled guarantees
            churn = p.n_peers / p.mean_lifetime
        burst = 0.0
        sybil = 0.0
        if p.faults is not None:
            burst = p.faults.burst_rate
        if p.adversary is not None:
            sybil = p.adversary.sybil_rate
        return ChannelRates(
            injection=p.n_peers * p.segment_arrival_rate,
            gossip=p.n_peers * p.gossip_rate,
            pull=p.aggregate_capacity,
            ttl_per_block=p.deletion_rate,
            churn=churn,
            burst=burst,
            sybil=sybil,
        )


class ChannelRates(NamedTuple):
    """Total event rates of the aggregate channels (TTL is per-block)."""

    injection: float
    gossip: float
    pull: float
    ttl_per_block: float
    churn: float
    burst: float
    sybil: float
