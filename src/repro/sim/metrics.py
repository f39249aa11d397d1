"""Measurement instrumentation for collection simulations.

Implements the four metrics Sec. 4 evaluates, with the paper's definitions:

- **session throughput** — "the actual rate (blocks/unit time) at which
  servers obtain original data"; operationally ``c*N*eta`` where ``eta`` is
  the fraction of server pulls that hit a segment the servers still need
  (Theorem 2's collection efficiency).  Reported both raw and normalized by
  the aggregate demand ``N*lambda`` (the paper's Fig. 3/4 y-axis).
- **storage overhead** — time-averaged buffered blocks per peer ``rho`` and
  the gossip-attributable part ``rho - lambda/gamma`` (Theorem 1).
- **block delivery delay** — per completed segment, (completion - injection)
  divided by the segment size ``s`` (Theorem 3's per-original-block delay).
- **data saved for future delivery** — time-averaged count of segments that
  are decodable from the network (degree >= s) but not yet reconstructed by
  the servers, times ``s``, per peer (Theorem 4 / Fig. 6).

All time-dependent quantities are integrated exactly between state changes
(no sampling grid), and every counter is split into a lifetime total and a
measurement-window total so a warmup transient can be excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.engine import EnginePerf
from repro.util.summary import percentile


class WindowedAverage:
    """Time average of a piecewise-constant scalar over an explicit window."""

    __slots__ = ("value", "_last_time", "_integral", "_window_start")

    def __init__(self, value: float = 0.0, now: float = 0.0) -> None:
        self.value = value
        self._last_time = now
        self._window_start = now
        self._integral = 0.0

    def update(self, now: float, new_value: float) -> None:
        """Advance to *now* and set the new current value."""
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._integral += self.value * (now - self._last_time)
        self._last_time = now
        self.value = new_value

    def add(self, now: float, delta: float) -> None:
        """Advance to *now* and shift the current value by *delta*."""
        self.update(now, self.value + delta)

    def reset(self, now: float) -> None:
        """Begin a fresh averaging window at *now*, keeping the value."""
        self.update(now, self.value)
        self._window_start = now
        self._integral = 0.0

    def average(self, now: float) -> float:
        """Average over [window_start, now]; current value if width is 0."""
        width = now - self._window_start
        if width <= 0:
            return self.value
        integral = self._integral + self.value * (now - self._last_time)
        return integral / width


@dataclass
class WindowedCounter:
    """Event counter with a lifetime total and a measurement-window total."""

    total: int = 0
    window: int = 0

    def increment(self, in_window: bool, amount: int = 1) -> None:
        self.total += amount
        if in_window:
            self.window += amount

    def reset_window(self) -> None:
        self.window = 0


@dataclass(frozen=True)
class MetricsReport:
    """Final measurements of one simulation run (measurement window only)."""

    # configuration echo
    n_peers: int
    arrival_rate: float
    segment_size: int
    normalized_capacity: float
    window: float
    # server-side
    pulls: int
    useful_pulls: int
    redundant_pulls: int
    idle_pulls: int
    segments_completed: int
    throughput: float
    normalized_throughput: float
    efficiency: float
    goodput: float
    normalized_goodput: float
    # peer-side
    mean_buffer_occupancy: float
    empty_peer_fraction: float
    storage_overhead: float
    injected_segments: int
    injected_blocks: int
    blocked_injections: int
    gossip_transfers: int
    gossip_no_target: int
    gossip_undeliverable: int
    blocks_expired: int
    blocks_lost_to_churn: int
    departures: int
    # delay and persistence
    mean_segment_delay: Optional[float]
    mean_block_delay: Optional[float]
    p50_block_delay: Optional[float]
    p95_block_delay: Optional[float]
    delay_samples: int
    saved_blocks_per_peer: float
    decodable_segments_per_peer: float
    segments_lost: int
    # fault-injection degradation accounting (all zero on fault-free runs)
    transfers_dropped: int
    blocks_rejected_polluted: int
    burst_departures: int
    outage_time: float
    # event-engine perf counters (deterministic functions of the schedule,
    # so safe under the same-seed byte-compare contract; wall time is *not*
    # included here by design — see EnginePerf)
    engine_events_fired: int = 0
    engine_events_cancelled: int = 0
    engine_heap_compactions: int = 0
    # adversary degradation and defense accounting (all zero on honest runs)
    gossip_suppressed: int = 0
    pulls_captured: int = 0
    junk_blocks_served: int = 0
    pulls_quarantine_rejected: int = 0
    slots_quarantined: int = 0
    false_quarantines: int = 0
    sybil_conversions: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric dict (None delays become NaN) for aggregation."""
        out: Dict[str, float] = {}
        # lint: ok(R2): dataclass field order is definitional, not incidental
        for name, value in self.__dict__.items():
            if value is None:
                out[name] = math.nan
            else:
                out[name] = float(value)
        return out


def derived_fields(
    pulls: int,
    useful_pulls: int,
    delivered_blocks: int,
    delay_samples: Sequence[float],
    window: float,
    n_peers: int,
    arrival_rate: float,
    deletion_rate: float,
    segment_size: int,
    mean_buffer_occupancy: float,
) -> Dict[str, Any]:
    """The report fields computed from a window's raw tallies.

    The one statement of the module docstring's definitions, shared by the
    simulators' :meth:`MetricsCollector.report` and the live runtime's
    ``aggregate_report``; keys are :class:`MetricsReport` field names.
    A *deletion_rate* of 0 means gamma is unknown: the storage overhead
    ``rho - lambda/gamma`` is then NaN.
    """
    demand = n_peers * arrival_rate
    throughput = useful_pulls / window if window > 0 else 0.0
    goodput = delivered_blocks / window if window > 0 else 0.0
    mean_segment_delay: Optional[float] = None
    mean_block_delay: Optional[float] = None
    p50_block_delay: Optional[float] = None
    p95_block_delay: Optional[float] = None
    if delay_samples:
        mean_segment_delay = math.fsum(delay_samples) / len(delay_samples)
        mean_block_delay = mean_segment_delay / segment_size
        p50_block_delay = percentile(delay_samples, 50.0) / segment_size
        p95_block_delay = percentile(delay_samples, 95.0) / segment_size
    return {
        "throughput": throughput,
        "normalized_throughput": throughput / demand if demand else 0.0,
        "efficiency": useful_pulls / pulls if pulls else 0.0,
        "goodput": goodput,
        "normalized_goodput": goodput / demand if demand else 0.0,
        "storage_overhead": max(
            mean_buffer_occupancy - arrival_rate / deletion_rate, 0.0
        )
        if deletion_rate
        else math.nan,
        "mean_segment_delay": mean_segment_delay,
        "mean_block_delay": mean_block_delay,
        "p50_block_delay": p50_block_delay,
        "p95_block_delay": p95_block_delay,
        "delay_samples": len(delay_samples),
    }


class MetricsCollector:
    """Mutable metric state updated by the collection system as it runs.

    Lifecycle: construct at t=0, ``begin_window(now)`` after warmup,
    ``report(now)`` at the end.  The collector is passive — it never reads
    simulator state; the system pushes every change in.
    """

    def __init__(
        self,
        n_peers: int,
        arrival_rate: float,
        segment_size: int,
        normalized_capacity: float,
        now: float = 0.0,
    ) -> None:
        self.n_peers = n_peers
        self.arrival_rate = arrival_rate
        self.segment_size = segment_size
        self.normalized_capacity = normalized_capacity
        self._window_start = now
        self._in_window = False

        # time-weighted state
        self.total_blocks = WindowedAverage(0.0, now)
        self.empty_peers = WindowedAverage(float(n_peers), now)
        self.saved_segments = WindowedAverage(0.0, now)
        self.decodable_segments = WindowedAverage(0.0, now)
        #: 0/1 indicator of a server outage in progress (fault injection);
        #: integrating it over the window yields the exact outage time.
        self.servers_down = WindowedAverage(0.0, now)

        # counters
        self.pulls = WindowedCounter()
        self.useful_pulls = WindowedCounter()
        self.redundant_pulls = WindowedCounter()
        self.idle_pulls = WindowedCounter()
        self.segments_completed = WindowedCounter()
        self.injected_segments = WindowedCounter()
        self.injected_blocks = WindowedCounter()
        self.blocked_injections = WindowedCounter()
        self.gossip_transfers = WindowedCounter()
        self.gossip_no_target = WindowedCounter()
        self.gossip_undeliverable = WindowedCounter()
        self.blocks_expired = WindowedCounter()
        self.blocks_lost_to_churn = WindowedCounter()
        self.departures = WindowedCounter()
        self.segments_lost = WindowedCounter()
        # fault-injection degradation counters
        self.transfers_dropped = WindowedCounter()
        self.blocks_rejected_polluted = WindowedCounter()
        self.burst_departures = WindowedCounter()
        # adversary degradation and defense counters
        self.gossip_suppressed = WindowedCounter()
        self.pulls_captured = WindowedCounter()
        self.junk_blocks_served = WindowedCounter()
        self.pulls_quarantine_rejected = WindowedCounter()
        self.slots_quarantined = WindowedCounter()
        self.false_quarantines = WindowedCounter()
        self.sybil_conversions = WindowedCounter()

        self._delay_samples: List[float] = []
        self._delivered_original_blocks = 0

    # -- lifecycle ---------------------------------------------------------

    def begin_window(self, now: float) -> None:
        """Discard warmup statistics; measurements start at *now*."""
        self._in_window = True
        self._window_start = now
        for avg in self._averages():
            avg.reset(now)
        for counter in self._counters():
            counter.reset_window()
        self._delay_samples = []
        self._delivered_original_blocks = 0

    @property
    def in_window(self) -> bool:
        """True once the measurement window has started."""
        return self._in_window

    def _averages(self) -> List[WindowedAverage]:
        return [
            self.total_blocks,
            self.empty_peers,
            self.saved_segments,
            self.decodable_segments,
            self.servers_down,
        ]

    def _counters(self) -> List[WindowedCounter]:
        return [
            self.pulls,
            self.useful_pulls,
            self.redundant_pulls,
            self.idle_pulls,
            self.segments_completed,
            self.injected_segments,
            self.injected_blocks,
            self.blocked_injections,
            self.gossip_transfers,
            self.gossip_no_target,
            self.gossip_undeliverable,
            self.blocks_expired,
            self.blocks_lost_to_churn,
            self.departures,
            self.segments_lost,
            self.transfers_dropped,
            self.blocks_rejected_polluted,
            self.burst_departures,
            self.gossip_suppressed,
            self.pulls_captured,
            self.junk_blocks_served,
            self.pulls_quarantine_rejected,
            self.slots_quarantined,
            self.false_quarantines,
            self.sybil_conversions,
        ]

    # -- event hooks (called by the system) --------------------------------

    def on_segment_completed(self, now: float, injected_at: float, size: int) -> None:
        """A segment became decodable at the servers."""
        self.segments_completed.increment(self._in_window)
        if self._in_window:
            self._delay_samples.append(now - injected_at)
            self._delivered_original_blocks += size

    # -- report -------------------------------------------------------------

    def report(
        self, now: float, engine: Optional["EnginePerf"] = None
    ) -> MetricsReport:
        """Freeze the measurement window into an immutable report.

        *engine*, when provided (see :meth:`Simulator.perf`), embeds the
        deterministic event-engine counters; its host-dependent wall time is
        deliberately left out so same-seed reports stay byte-identical.
        """
        window = max(now - self._window_start, 0.0)
        n = self.n_peers
        pulls = self.pulls.window
        useful = self.useful_pulls.window
        occupancy = self.total_blocks.average(now) / n
        return MetricsReport(
            n_peers=n,
            arrival_rate=self.arrival_rate,
            segment_size=self.segment_size,
            normalized_capacity=self.normalized_capacity,
            window=window,
            pulls=pulls,
            useful_pulls=useful,
            redundant_pulls=self.redundant_pulls.window,
            idle_pulls=self.idle_pulls.window,
            segments_completed=self.segments_completed.window,
            mean_buffer_occupancy=occupancy,
            empty_peer_fraction=self.empty_peers.average(now) / n,
            injected_segments=self.injected_segments.window,
            injected_blocks=self.injected_blocks.window,
            blocked_injections=self.blocked_injections.window,
            gossip_transfers=self.gossip_transfers.window,
            gossip_no_target=self.gossip_no_target.window,
            gossip_undeliverable=self.gossip_undeliverable.window,
            blocks_expired=self.blocks_expired.window,
            blocks_lost_to_churn=self.blocks_lost_to_churn.window,
            departures=self.departures.window,
            saved_blocks_per_peer=self.saved_segments.average(now)
            * self.segment_size
            / n,
            decodable_segments_per_peer=self.decodable_segments.average(now) / n,
            segments_lost=self.segments_lost.window,
            transfers_dropped=self.transfers_dropped.window,
            blocks_rejected_polluted=self.blocks_rejected_polluted.window,
            burst_departures=self.burst_departures.window,
            outage_time=self.servers_down.average(now) * window,
            engine_events_fired=engine.events_fired if engine else 0,
            engine_events_cancelled=engine.events_cancelled if engine else 0,
            engine_heap_compactions=engine.heap_compactions if engine else 0,
            gossip_suppressed=self.gossip_suppressed.window,
            pulls_captured=self.pulls_captured.window,
            junk_blocks_served=self.junk_blocks_served.window,
            pulls_quarantine_rejected=self.pulls_quarantine_rejected.window,
            slots_quarantined=self.slots_quarantined.window,
            false_quarantines=self.false_quarantines.window,
            sybil_conversions=self.sybil_conversions.window,
            **derived_fields(
                pulls=pulls,
                useful_pulls=useful,
                delivered_blocks=self._delivered_original_blocks,
                delay_samples=self._delay_samples,
                window=window,
                n_peers=n,
                arrival_rate=self.arrival_rate,
                deletion_rate=self._deletion_rate_hint,
                segment_size=self.segment_size,
                mean_buffer_occupancy=occupancy,
            ),
        )

    #: Set by the system so storage overhead (rho - lambda/gamma) can be
    #: derived; 0 disables the derived field.
    _deletion_rate_hint: float = 0.0

    def set_deletion_rate(self, gamma: float) -> None:
        """Record gamma so the report can derive the Theorem 1 overhead."""
        self._deletion_rate_hint = gamma
