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
(no sampling grid).  A counter is a plain lifetime total bumped in place;
its window count is the total minus its value when the window opened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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
        # update(now, value + delta) written out: twice per buffered block.
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._integral += self.value * (now - self._last_time)
        self._last_time = now
        self.value += delta

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

    def state(self) -> Dict[str, float]:
        """The integrator's internals, as a checkpoint journal stores them."""
        return {
            "value": self.value,
            "last_time": self._last_time,
            "integral": self._integral,
            "window_start": self._window_start,
        }

    def restore(self, state: Mapping[str, float]) -> None:
        """Resume from a :meth:`state` written earlier."""
        self.value = state["value"]
        self._last_time = state["last_time"]
        self._integral = state["integral"]
        self._window_start = state["window_start"]


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


#: Every window counter, named once: a counter is its row here plus its
#: typed :class:`MetricsReport` field.  :class:`MetricsCollector` allocates,
#: resets, snapshots and reports from this table; fastsim shard payloads,
#: live ``metrics-reply`` frames and collector checkpoints carry these
#: names.  Channels an engine never fires read 0 there.
COUNTERS: Tuple[str, ...] = (
    # server-side
    "pulls",
    "useful_pulls",
    "redundant_pulls",
    "idle_pulls",
    "segments_completed",
    # peer-side
    "injected_segments",
    "injected_blocks",
    "blocked_injections",
    "gossip_transfers",
    "gossip_no_target",
    "gossip_undeliverable",
    "blocks_expired",
    "blocks_lost_to_churn",
    "departures",
    "segments_lost",
    # fault-injection degradation
    "transfers_dropped",
    "blocks_rejected_polluted",
    "burst_departures",
    # adversary degradation and defense
    "gossip_suppressed",
    "pulls_captured",
    "junk_blocks_served",
    "pulls_quarantine_rejected",
    "slots_quarantined",
    "false_quarantines",
    "sybil_conversions",
)

#: Time-weighted state.  The first four are population totals (reported per
#: peer); ``servers_down`` is the 0/1 indicator of a server outage in
#: progress, whose integral over the window is the exact outage time.
AVERAGES: Tuple[str, ...] = (
    "total_blocks",
    "empty_peers",
    "saved_segments",
    "decodable_segments",
    "servers_down",
)


class DelaySummary(NamedTuple):
    """One window's completed segments, reduced to what a report needs.

    Built from raw per-segment samples (event engine, live collector) or
    from fastsim's streaming ``DelayAccumulator``; delays are per *segment*
    (completion - injection), the fold divides by ``s``.
    """

    count: int
    #: original blocks those segments delivered (the goodput numerator).
    blocks: int
    mean: Optional[float]
    p50: Optional[float]
    p95: Optional[float]

    @classmethod
    def of_samples(cls, samples: Sequence[float], blocks: int) -> "DelaySummary":
        if not samples:
            return cls(0, blocks, None, None, None)
        return cls(
            len(samples),
            blocks,
            math.fsum(samples) / len(samples),
            percentile(samples, 50.0),
            percentile(samples, 95.0),
        )


def fold_report(
    echo: Mapping[str, Any],
    snapshots: Sequence[Mapping[str, Any]],
    delays: DelaySummary,
) -> Dict[str, Any]:
    """Fold window snapshots into the :class:`MetricsReport` fields.

    The one statement of the module docstring's definitions.  A snapshot is
    ``{"n_peers", "window", "counters", "averages"}`` as
    :meth:`MetricsCollector.snapshot` builds it: the peers its population
    averages total over, and whichever :data:`COUNTERS` / :data:`AVERAGES`
    its observer sees.  One collector's report, a W-shard merge and a live
    swarm's N peers plus collector are the same fold: counters add,
    population averages add and divide by the population, ``servers_down``
    averages over its observers, and the derived fields follow.  *echo*
    supplies ``n_peers``, ``arrival_rate``, ``segment_size``,
    ``normalized_capacity`` and ``deletion_rate`` (0 means gamma is unknown:
    the storage overhead ``rho - lambda/gamma`` is then NaN).  Returns every
    report field except the event-engine perf counters.
    """
    n_peers = echo["n_peers"]
    arrival_rate = echo["arrival_rate"]
    deletion_rate = echo["deletion_rate"]
    segment_size = echo["segment_size"]
    window = snapshots[0]["window"]
    # lint: ok(R4): integer peer counts, exact
    population = sum(snap["n_peers"] for snap in snapshots)
    counters = {
        # lint: ok(R4): integer event counts, exact
        name: sum(snap["counters"].get(name, 0) for snap in snapshots)
        for name in COUNTERS
    }
    observed = {
        name: [
            snap["averages"][name]
            for snap in snapshots
            if name in snap["averages"]
        ]
        for name in AVERAGES
    }

    def per_peer(name: str) -> float:
        return math.fsum(observed[name]) / population

    def per_block(delay: Optional[float]) -> Optional[float]:
        return None if delay is None else delay / segment_size

    down = observed["servers_down"]
    demand = n_peers * arrival_rate
    pulls = counters["pulls"]
    useful = counters["useful_pulls"]
    throughput = useful / window if window > 0 else 0.0
    goodput = delays.blocks / window if window > 0 else 0.0
    occupancy = per_peer("total_blocks")
    return {
        "n_peers": n_peers,
        "arrival_rate": arrival_rate,
        "segment_size": segment_size,
        "normalized_capacity": echo["normalized_capacity"],
        "window": window,
        **counters,
        "throughput": throughput,
        "normalized_throughput": throughput / demand if demand else 0.0,
        "efficiency": useful / pulls if pulls else 0.0,
        "goodput": goodput,
        "normalized_goodput": goodput / demand if demand else 0.0,
        "mean_buffer_occupancy": occupancy,
        "empty_peer_fraction": per_peer("empty_peers"),
        "storage_overhead": max(occupancy - arrival_rate / deletion_rate, 0.0)
        if deletion_rate
        else math.nan,
        "mean_segment_delay": delays.mean,
        "mean_block_delay": per_block(delays.mean),
        "p50_block_delay": per_block(delays.p50),
        "p95_block_delay": per_block(delays.p95),
        "delay_samples": delays.count,
        "saved_blocks_per_peer": math.fsum(observed["saved_segments"])
        * segment_size
        / population,
        "decodable_segments_per_peer": per_peer("decodable_segments"),
        "outage_time": math.fsum(down) / len(down) * window,
    }


class MetricsCollector:
    """Mutable metric state updated by the collection system as it runs.

    Lifecycle: construct at t=0, ``begin_window(now)`` after warmup,
    ``report(now)`` at the end.  The collector is passive — it never reads
    simulator state; the system pushes every change in.  Every name in
    :data:`COUNTERS` is an ``int`` attribute holding the lifetime total
    (callers bump it in place: ``metrics.pulls += 1``), every name in
    :data:`AVERAGES` a :class:`WindowedAverage` one.
    """

    if TYPE_CHECKING:

        def __getattr__(self, name: str) -> int: ...

        def __setattr__(self, name: str, value: Any) -> None: ...

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
        #: True once the measurement window has started.
        self.in_window = False

        self.total_blocks = WindowedAverage(0.0, now)
        self.empty_peers = WindowedAverage(float(n_peers), now)
        self.saved_segments = WindowedAverage(0.0, now)
        self.decodable_segments = WindowedAverage(0.0, now)
        self.servers_down = WindowedAverage(0.0, now)
        for name in COUNTERS:
            setattr(self, name, 0)
        #: each counter's lifetime total when the window opened.
        self._window_base: Dict[str, int] = {}

        self._delay_samples: List[float] = []
        self._delivered_original_blocks = 0

    # -- lifecycle ---------------------------------------------------------

    def begin_window(self, now: float) -> None:
        """Discard warmup statistics; measurements start at *now*."""
        self.in_window = True
        self._window_start = now
        for name in AVERAGES:
            getattr(self, name).reset(now)
        self._window_base = {name: getattr(self, name) for name in COUNTERS}
        self._delay_samples = []
        self._delivered_original_blocks = 0

    # -- event hooks (called by the system) --------------------------------

    def on_segment_completed(self, now: float, injected_at: float, size: int) -> None:
        """A segment became decodable at the servers."""
        self.segments_completed += 1
        if self.in_window:
            self._delay_samples.append(now - injected_at)
            self._delivered_original_blocks += size

    # -- report -------------------------------------------------------------

    def window_count(self, name: str) -> int:
        """Counter *name*'s count since the window opened (0 before)."""
        if not self.in_window:
            return 0
        return int(getattr(self, name) - self._window_base[name])

    def snapshot(self, now: float) -> Dict[str, Any]:
        """The window so far as plain JSON-safe values: what :func:`fold_report`
        folds and a fastsim shard payload carries (it doubles as the *echo*).
        """
        return {
            "n_peers": self.n_peers,
            "arrival_rate": self.arrival_rate,
            "segment_size": self.segment_size,
            "normalized_capacity": self.normalized_capacity,
            "deletion_rate": self._deletion_rate_hint,
            "window": max(now - self._window_start, 0.0),
            "counters": {name: self.window_count(name) for name in COUNTERS},
            "averages": {
                name: float(getattr(self, name).average(now))
                for name in AVERAGES
            },
        }

    def report(
        self, now: float, engine: Optional["EnginePerf"] = None
    ) -> MetricsReport:
        """Freeze the measurement window into an immutable report.

        *engine*, when provided (see :meth:`Simulator.perf`), embeds the
        deterministic event-engine counters; its host-dependent wall time is
        deliberately left out so same-seed reports stay byte-identical.
        """
        snap = self.snapshot(now)
        delays = DelaySummary.of_samples(
            self._delay_samples, self._delivered_original_blocks
        )
        return MetricsReport(
            **fold_report(snap, [snap], delays),
            engine_events_fired=engine.events_fired if engine else 0,
            engine_events_cancelled=engine.events_cancelled if engine else 0,
            engine_heap_compactions=engine.heap_compactions if engine else 0,
        )

    #: Set by the system so storage overhead (rho - lambda/gamma) can be
    #: derived; 0 disables the derived field.
    _deletion_rate_hint: float = 0.0

    def set_deletion_rate(self, gamma: float) -> None:
        """Record gamma so the report can derive the Theorem 1 overhead."""
        self._deletion_rate_hint = gamma
