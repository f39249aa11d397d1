"""Live-runtime measurement: per-peer stats, collector stats, aggregation.

The live runtime reports on the *same axes* as the simulator
(:class:`repro.sim.metrics.MetricsReport`): every timestamp is simulated
time (via :class:`repro.live.clock.LiveClock`), time-weighted state reuses
the simulator's exact-integration :class:`WindowedAverage`, and
:func:`aggregate_report` folds one swarm's peer and collector summaries
into a flat dict whose keys match the report fields, the derived ones
computed by the simulator's own :func:`repro.sim.metrics.derived_fields`
— so sim-vs-live cross-validation (:mod:`repro.live.crossval`) is a direct
field-by-field comparison, no unit conversion anywhere.

Split of responsibilities (mirrors who can observe what in a real
deployment):

- each **peer** tracks its own injection/gossip/expiry counters and its
  buffer-occupancy time average, reported over the control connection as a
  ``metrics-reply`` frame;
- the **collector** (logging-server process) tracks pull accounting,
  decode completions, per-block delays, and outage downtime;
- the **harness** aggregates both sides over the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.params import Parameters
from repro.sim.metrics import WindowedAverage, derived_fields


@dataclass
class PeerStats:
    """One live peer's measurement-window counters (reset at MARK)."""

    injected_segments: int = 0
    injected_blocks: int = 0
    blocked_injections: int = 0
    gossip_transfers: int = 0
    gossip_no_target: int = 0
    gossip_undeliverable: int = 0
    offers_sent: int = 0
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
        for name in self._counter_names():
            setattr(self, name, 0)
        self.occupancy.reset(now)
        self.empty.reset(now)

    def on_buffer_change(self, now: float, block_count: int) -> None:
        """Record the peer's new buffer level at sim time *now*."""
        self.occupancy.update(now, float(block_count))
        self.empty.update(now, 1.0 if block_count == 0 else 0.0)

    @staticmethod
    def _counter_names() -> Sequence[str]:
        return (
            "injected_segments",
            "injected_blocks",
            "blocked_injections",
            "gossip_transfers",
            "gossip_no_target",
            "gossip_undeliverable",
            "offers_sent",
            "pull_blocks_served",
            "transfers_dropped",
            "blocks_expired",
            "blocks_lost_to_churn",
        )

    def to_wire(self, now: float) -> Dict[str, float]:
        """Flatten for a ``metrics-reply`` frame header."""
        out: Dict[str, float] = {
            name: float(getattr(self, name)) for name in self._counter_names()
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
    delivered_original_blocks: int = 0
    transfers_dropped: int = 0
    blocks_rejected_polluted: int = 0
    burst_departures: int = 0
    #: live-only: pulls answered PULL-EMPTY by a peer that emptied between
    #: candidate selection and service (impossible in the simulator, where
    #: selection and transfer are atomic; counted as idle in the report).
    pull_empty_races: int = 0
    #: live-only: end-to-end decode verification against the source digest.
    hash_verified: int = 0
    hash_failures: int = 0
    servers_down: WindowedAverage = field(default_factory=WindowedAverage)
    delay_samples: List[float] = field(default_factory=list)

    def begin_window(self, now: float) -> None:
        """Discard warmup statistics; measurements start at *now*."""
        for name in self._counter_names():
            setattr(self, name, 0)
        self.servers_down.reset(now)
        self.delay_samples = []

    @staticmethod
    def _counter_names() -> Sequence[str]:
        return (
            "pulls",
            "useful_pulls",
            "redundant_pulls",
            "idle_pulls",
            "segments_completed",
            "delivered_original_blocks",
            "transfers_dropped",
            "blocks_rejected_polluted",
            "burst_departures",
            "pull_empty_races",
            "hash_verified",
            "hash_failures",
        )

    def on_segment_completed(
        self, now: float, injected_at: float, size: int
    ) -> None:
        """A segment became decodable at the collector at *now*."""
        self.segments_completed += 1
        self.delay_samples.append(now - injected_at)
        self.delivered_original_blocks += size

    def summary(self, now: float, window: float) -> Dict[str, Any]:
        """Flatten the collector side for aggregation."""
        out: Dict[str, Any] = {
            name: getattr(self, name) for name in self._counter_names()
        }
        out["outage_time"] = self.servers_down.average(now) * window
        out["delay_samples_list"] = list(self.delay_samples)
        return out


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
    simulator's report.
    """
    if window <= 0:
        raise ValueError(f"measurement window must be > 0, got {window}")
    n = params.n_peers
    if not peers:
        raise ValueError("aggregate_report needs at least one peer summary")

    def peer_sum(key: str) -> int:
        return int(sum(summary[key] for summary in peers))

    def peer_mean(key: str) -> float:
        return float(sum(summary[key] for summary in peers)) / len(peers)

    pulls = int(collector["pulls"])
    useful = int(collector["useful_pulls"])
    occupancy = peer_mean("mean_occupancy")

    report: Dict[str, Any] = {
        # configuration echo
        "n_peers": n,
        "arrival_rate": params.arrival_rate,
        "segment_size": params.segment_size,
        "normalized_capacity": params.normalized_capacity,
        "window": window,
        # collector side
        "pulls": pulls,
        "useful_pulls": useful,
        "redundant_pulls": int(collector["redundant_pulls"]),
        "idle_pulls": int(collector["idle_pulls"])
        + int(collector["pull_empty_races"]),
        "segments_completed": int(collector["segments_completed"]),
        # peer side
        "mean_buffer_occupancy": occupancy,
        "empty_peer_fraction": peer_mean("empty_fraction"),
        "injected_segments": peer_sum("injected_segments"),
        "injected_blocks": peer_sum("injected_blocks"),
        "blocked_injections": peer_sum("blocked_injections"),
        "gossip_transfers": peer_sum("gossip_transfers"),
        "gossip_no_target": peer_sum("gossip_no_target"),
        "gossip_undeliverable": peer_sum("gossip_undeliverable"),
        "blocks_expired": peer_sum("blocks_expired"),
        "blocks_lost_to_churn": peer_sum("blocks_lost_to_churn"),
        # fault-channel degradation (gossip- and pull-side drops pool into
        # one counter, as in the simulator)
        "transfers_dropped": peer_sum("transfers_dropped")
        + int(collector["transfers_dropped"]),
        "blocks_rejected_polluted": int(
            collector["blocks_rejected_polluted"]
        ),
        "burst_departures": int(collector["burst_departures"]),
        "outage_time": float(collector["outage_time"]),
        # live-only extras
        "offers_sent": peer_sum("offers_sent"),
        "pull_blocks_served": peer_sum("pull_blocks_served"),
        "pull_empty_races": int(collector["pull_empty_races"]),
        "hash_verified": int(collector["hash_verified"]),
        "hash_failures": int(collector["hash_failures"]),
        # throughput, efficiency, goodput, overhead, delays
        **derived_fields(
            pulls=pulls,
            useful_pulls=useful,
            delivered_blocks=int(collector["delivered_original_blocks"]),
            delay_samples=[float(d) for d in collector["delay_samples_list"]],
            window=window,
            n_peers=n,
            arrival_rate=params.arrival_rate,
            deletion_rate=params.deletion_rate,
            segment_size=params.segment_size,
            mean_buffer_occupancy=occupancy,
        ),
    }
    if extras:
        report.update(extras)
    return report
