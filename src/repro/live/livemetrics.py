"""Live-runtime measurement: per-peer stats, collector stats, aggregation.

The live runtime reports on the *same axes* as the simulator
(:class:`repro.sim.metrics.MetricsReport`): every timestamp is simulated
time (via :class:`repro.live.clock.LiveClock`), time-weighted state reuses
the simulator's exact-integration :class:`WindowedAverage`, and
:func:`aggregate_report` hands one swarm's peer and collector summaries
to the simulator's own :func:`repro.sim.metrics.fold_report` — so
sim-vs-live cross-validation (:mod:`repro.live.crossval`) is a direct
field-by-field comparison, no unit conversion anywhere.

Split of responsibilities (mirrors who can observe what in a real
deployment):

- each **peer** tracks its own injection/gossip/expiry counters and its
  buffer-occupancy time average, reported over the control connection as a
  ``metrics-reply`` frame;
- the **collector** (logging-server process) tracks pull accounting,
  decode completions, per-block delays, and outage downtime;
- the **harness** aggregates both sides over the measurement window.

What is stated here is only what is genuinely live: which side observes
which counter (the ``int`` fields of :class:`PeerStats` and
:class:`CollectorStats`; the names are :data:`repro.sim.metrics.COUNTERS`
rows), and the five live-only counters among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.params import Parameters
from repro.sim.metrics import (
    COUNTERS,
    DelaySummary,
    WindowedAverage,
    fold_report,
)


def _counter_fields(stats: type) -> Tuple[str, ...]:
    """The window counters of a stats dataclass: its ``int`` fields."""
    return tuple(f.name for f in fields(stats) if isinstance(f.default, int))


@dataclass
class PeerStats:
    """One live peer's measurement-window counters (reset at MARK)."""

    injected_segments: int = 0
    injected_blocks: int = 0
    blocked_injections: int = 0
    gossip_transfers: int = 0
    gossip_no_target: int = 0
    gossip_undeliverable: int = 0
    #: live-only: OFFER frames sent (gossip attempts that reached the wire).
    offers_sent: int = 0
    #: live-only: PULL requests this peer answered with a block.
    pull_blocks_served: int = 0
    transfers_dropped: int = 0
    blocks_expired: int = 0
    blocks_lost_to_churn: int = 0
    occupancy: WindowedAverage = field(default_factory=WindowedAverage)
    empty: WindowedAverage = field(
        default_factory=lambda: WindowedAverage(1.0)
    )

    def begin_window(self, now: float) -> None:
        """Discard warmup statistics; measurements start at *now*."""
        for name in PEER_COUNTERS:
            setattr(self, name, 0)
        self.occupancy.reset(now)
        self.empty.reset(now)

    def on_buffer_change(self, now: float, block_count: int) -> None:
        """Record the peer's new buffer level at sim time *now*."""
        self.occupancy.update(now, float(block_count))
        self.empty.update(now, 1.0 if block_count == 0 else 0.0)

    def to_wire(self, now: float) -> Dict[str, float]:
        """Flatten for a ``metrics-reply`` frame header."""
        out: Dict[str, float] = {
            name: float(getattr(self, name)) for name in PEER_COUNTERS
        }
        out["mean_occupancy"] = self.occupancy.average(now)
        out["empty_fraction"] = self.empty.average(now)
        return out


@dataclass
class CollectorStats:
    """The logging-server side's measurement-window state."""

    pulls: int = 0
    useful_pulls: int = 0
    redundant_pulls: int = 0
    idle_pulls: int = 0
    segments_completed: int = 0
    #: the goodput numerator; reaches the report through the delay summary.
    delivered_original_blocks: int = 0
    transfers_dropped: int = 0
    blocks_rejected_polluted: int = 0
    burst_departures: int = 0
    #: live-only: pulls answered PULL-EMPTY by a peer that emptied between
    #: candidate selection and service (impossible in the simulator, where
    #: selection and transfer are atomic; the pull trial books each as idle,
    #: so these are a subset of ``idle_pulls``).
    pull_empty_races: int = 0
    #: live-only: end-to-end decode verification against the source digest.
    hash_verified: int = 0
    hash_failures: int = 0
    servers_down: WindowedAverage = field(default_factory=WindowedAverage)
    delay_samples: List[float] = field(default_factory=list)

    def begin_window(self, now: float) -> None:
        """Discard warmup statistics; measurements start at *now*."""
        for name in COLLECTOR_COUNTERS:
            setattr(self, name, 0)
        self.servers_down.reset(now)
        self.delay_samples = []

    def on_segment_completed(
        self, now: float, injected_at: float, size: int
    ) -> None:
        """A segment became decodable at the collector at *now*."""
        self.segments_completed += 1
        self.delay_samples.append(now - injected_at)
        self.delivered_original_blocks += size

    def summary(self, now: float, window: float) -> Dict[str, Any]:
        """The collector side as a :func:`fold_report` snapshot (of no
        peers), plus the window's raw delay samples."""
        return {
            "n_peers": 0,
            "window": window,
            "counters": {
                name: getattr(self, name) for name in COLLECTOR_COUNTERS
            },
            "averages": {"servers_down": self.servers_down.average(now)},
            "delay_samples": list(self.delay_samples),
        }


#: Which side of a live swarm observes which counter (the ``metrics-reply``
#: and checkpoint counter names).
PEER_COUNTERS = _counter_fields(PeerStats)
COLLECTOR_COUNTERS = _counter_fields(CollectorStats)

#: Counters only a live swarm has, reported beside the MetricsReport fields.
LIVE_ONLY_COUNTERS = tuple(
    name
    for name in PEER_COUNTERS + COLLECTOR_COUNTERS
    if name not in COUNTERS and name != "delivered_original_blocks"
)

_PEER_WIRE_KEYS = frozenset(PEER_COUNTERS + ("mean_occupancy", "empty_fraction"))


def peer_summary_from_wire(stats: Any) -> Dict[str, float]:
    """Validate the ``stats`` of a peer's ``metrics-reply`` (outside input).

    Exactly the keys :meth:`PeerStats.to_wire` sends, every value a finite
    non-negative number — anything else would crash or poison the final
    report of the whole swarm.  Raises :class:`ValueError` otherwise.
    """
    if not isinstance(stats, Mapping) or stats.keys() != _PEER_WIRE_KEYS:
        raise ValueError("metrics reply stats are not the peer counter set")
    for name, value in stats.items():
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
            or value < 0
        ):
            raise ValueError(f"metrics reply {name} = {value!r}")
    return dict(stats)


def aggregate_report(
    params: Parameters,
    window: float,
    collector: Mapping[str, Any],
    peers: Sequence[Mapping[str, float]],
    extras: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Fold one swarm's summaries into a MetricsReport-shaped dict.

    Field names are :class:`repro.sim.metrics.MetricsReport`'s, so the
    result compares one-to-one with a simulator report.  Delay fields are
    ``None`` when no segment completed in the window, exactly like the
    simulator's report.  *collector* is :meth:`CollectorStats.summary`,
    each of *peers* a validated ``metrics-reply``: a one-peer snapshot.
    """
    if window <= 0:
        raise ValueError(f"measurement window must be > 0, got {window}")
    if not peers:
        raise ValueError("aggregate_report needs at least one peer summary")
    snapshots: List[Mapping[str, Any]] = [collector]
    for peer in peers:
        snapshots.append({
            "n_peers": 1,
            "window": window,
            "counters": {name: int(peer[name]) for name in PEER_COUNTERS},
            "averages": {
                "total_blocks": peer["mean_occupancy"],
                "empty_peers": peer["empty_fraction"],
            },
        })
    echo = {
        "n_peers": params.n_peers,
        "arrival_rate": params.arrival_rate,
        "segment_size": params.segment_size,
        "normalized_capacity": params.normalized_capacity,
        "deletion_rate": params.deletion_rate,
    }
    delays = DelaySummary.of_samples(
        collector["delay_samples"],
        collector["counters"]["delivered_original_blocks"],
    )
    report = fold_report(echo, snapshots, delays)
    for name in LIVE_ONLY_COUNTERS:
        report[name] = sum(
            snap["counters"].get(name, 0) for snap in snapshots
        )
    if extras:
        report.update(extras)
    return report
