"""Declarative fault configuration: what goes wrong, how often, how badly.

A :class:`FaultPlan` is a frozen bundle of adversarial-condition knobs that
the collection system threads into its hot paths through a
:class:`repro.faults.injector.FaultInjector`.  Four orthogonal fault
channels are modelled, each chosen because related measurement work shows
it dominates real deployments (see docs/PROTOCOL.md, "Fault model &
degradation"):

- **lossy links** — every gossip transfer and every server pull is dropped
  i.i.d. with a per-channel probability, the classic unreliable-link model
  gossip protocols are built against;
- **block pollution** — a fraction of peer slots emit corrupted coded
  blocks (invalid coefficient headers); servers detect and discard them,
  peers cannot, so junk occupies buffer space and wastes transmissions;
- **server outages** — windows of downtime during which the pull clock
  pauses entirely, either scheduled deterministically or drawn from a
  renewal process, with a bounded catch-up burst on recovery;
- **correlated churn bursts** — Poisson-timed events that kill a random
  fraction of peer slots *simultaneously*: flash departures, the dual of
  the flash crowds the paper's buffering analysis absorbs;
- **process faults** — scheduled hard process death and freezes
  (SIGKILL/SIGSTOP of a live server or a peer-process cohort).  In the
  simulator a server kill maps onto an outage window whose length is the
  supervised restart latency, and a peer-cohort kill onto a scheduled
  churn burst; the live supervisor (:mod:`repro.live.supervisor`)
  delivers the real signals at the same simulated instants.

All knobs default to "off"; a default-constructed plan is *null* and no
injector is built from it — nothing draws randomness or schedules events,
so a run with a null plan is event-for-event identical to a run with no
plan at all (the null-plan regression test asserts exactly this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.util.validation import (
    require_nonnegative,
    require_nonnegative_int,
    require_probability,
    require_rate,
)

# -- process-fault kinds ----------------------------------------------------
#: SIGKILL the logging-server process; it restarts (from its checkpoint)
#: after ``process_restart_latency`` simulated units.
PROC_KILL_SERVER = "kill-server"
#: SIGSTOP the logging-server process for the event's duration.
PROC_STOP_SERVER = "stop-server"
#: SIGKILL a fraction of the peer processes (a correlated crash cohort).
PROC_KILL_PEERS = "kill-peers"
#: SIGSTOP a fraction of the peer processes for the event's duration
#: (live-only: a frozen-but-alive peer has no simulator analogue, so the
#: sim treats it as a no-op and E-LIVE-CHAOS does not cross-validate it).
PROC_STOP_PEERS = "stop-peers"

PROCESS_FAULT_KINDS = (
    PROC_KILL_SERVER, PROC_STOP_SERVER, PROC_KILL_PEERS, PROC_STOP_PEERS,
)


@dataclass(frozen=True)
class FaultPlan:
    """Complete fault configuration for one collection session."""

    #: i.i.d. probability that an in-flight gossip transfer is lost.
    gossip_loss_rate: float = 0.0
    #: i.i.d. probability that a server pull's block transfer is lost.
    pull_loss_rate: float = 0.0
    #: fraction of peer slots that emit corrupted (polluted) coded blocks.
    pollution_fraction: float = 0.0
    #: extra pull attempts a server may spend after discarding a polluted
    #: block within the same pull trial (the "discard + re-pull" response).
    pollution_repull_budget: int = 1
    #: deterministic downtime windows as (start, end) absolute-time pairs;
    #: mutually exclusive with the renewal-process knobs below.
    outage_windows: Tuple[Tuple[float, float], ...] = ()
    #: renewal process: rate of outage onsets while the servers are up.
    outage_rate: float = 0.0
    #: renewal process: fixed downtime length of each outage.
    outage_duration: float = 0.0
    #: cap on the immediate catch-up pulls *per server* fired at recovery
    #: (bounds the burst a real recovering server would rate-limit).
    catchup_limit: int = 8
    #: Poisson rate of correlated mass-departure events.
    burst_rate: float = 0.0
    #: fraction of peer slots killed simultaneously by each burst event.
    burst_fraction: float = 0.0
    #: scheduled process faults as ``(kind, at, duration, fraction)``
    #: entries (see the ``PROC_*`` kinds above): *at* is the simulated
    #: onset time, *duration* the SIGSTOP hold (0 for kills), *fraction*
    #: the peer-process cohort share (0 for server kinds).
    process_faults: Tuple[Tuple[str, float, float, float], ...] = ()
    #: simulated downtime a ``kill-server`` fault costs: the time the
    #: supervisor needs to detect death, back off, respawn, and reload the
    #: checkpoint.  The simulator models the kill as an outage window of
    #: exactly this length.
    process_restart_latency: float = 1.0

    def __post_init__(self) -> None:
        require_probability("gossip_loss_rate", self.gossip_loss_rate)
        require_probability("pull_loss_rate", self.pull_loss_rate)
        require_probability("pollution_fraction", self.pollution_fraction)
        require_probability("burst_fraction", self.burst_fraction)
        require_nonnegative_int(
            "pollution_repull_budget", self.pollution_repull_budget
        )
        require_nonnegative_int("catchup_limit", self.catchup_limit)
        require_nonnegative("outage_rate", self.outage_rate)
        require_nonnegative("outage_duration", self.outage_duration)
        require_nonnegative("burst_rate", self.burst_rate)
        if self.outage_rate > 0 and self.outage_duration <= 0:
            raise ValueError(
                "renewal outages need outage_duration > 0 when outage_rate > 0"
            )
        if self.burst_rate > 0 and self.burst_fraction <= 0:
            raise ValueError(
                "churn bursts need burst_fraction > 0 when burst_rate > 0"
            )
        normalized: List[Tuple[float, float]] = []
        for index, pair in enumerate(self.outage_windows):
            try:
                raw_start, raw_end = pair
            except (TypeError, ValueError):
                raise ValueError(
                    f"outage_windows[{index}] must be a (start, end) pair, "
                    f"got {pair!r}"
                ) from None
            try:
                normalized.append((float(raw_start), float(raw_end)))
            except (TypeError, ValueError):
                raise ValueError(
                    f"outage_windows[{index}] must be a pair of numbers, "
                    f"got {pair!r}"
                ) from None
        windows = tuple(normalized)
        object.__setattr__(self, "outage_windows", windows)
        previous_end = 0.0
        for index, (start, end) in enumerate(windows):
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ValueError(
                    f"outage_windows[{index}] = ({start}, {end}) must be finite"
                )
            if start < 0 or end <= start:
                raise ValueError(
                    f"outage_windows[{index}] = ({start}, {end}) needs "
                    f"0 <= start < end"
                )
            if start < previous_end:
                raise ValueError(
                    f"outage windows must be sorted and non-overlapping: "
                    f"window {index} ({start:g}, {end:g}) starts before "
                    f"window {index - 1} ends at {previous_end:g}"
                )
            previous_end = end
        if windows and self.outage_rate > 0:
            raise ValueError(
                "choose deterministic outage_windows or the renewal process "
                "(outage_rate/outage_duration), not both"
            )
        require_nonnegative(
            "process_restart_latency", self.process_restart_latency
        )
        if not math.isfinite(self.process_restart_latency):
            raise ValueError("process_restart_latency must be finite")
        events: List[Tuple[str, float, float, float]] = []
        for index, entry in enumerate(self.process_faults):
            try:
                raw_kind, raw_at, raw_duration, raw_fraction = entry
            except (TypeError, ValueError):
                raise ValueError(
                    f"process_faults[{index}] must be a "
                    f"(kind, at, duration, fraction) tuple, got {entry!r}"
                ) from None
            try:
                event = (
                    str(raw_kind), float(raw_at), float(raw_duration),
                    float(raw_fraction),
                )
            except (TypeError, ValueError):
                raise ValueError(
                    f"process_faults[{index}] has non-numeric timing/fraction "
                    f"fields: {entry!r}"
                ) from None
            events.append(event)
        events.sort(key=lambda event: event[1])
        object.__setattr__(self, "process_faults", tuple(events))
        for index, (kind, at, duration, fraction) in enumerate(events):
            label = f"process_faults[{index}]"
            if kind not in PROCESS_FAULT_KINDS:
                raise ValueError(
                    f"{label} kind {kind!r} is not one of "
                    f"{PROCESS_FAULT_KINDS}"
                )
            if not (math.isfinite(at) and at >= 0):
                raise ValueError(f"{label} onset must be finite and >= 0")
            if not (math.isfinite(duration) and duration >= 0):
                raise ValueError(f"{label} duration must be finite and >= 0")
            if kind in (PROC_STOP_SERVER, PROC_STOP_PEERS) and duration <= 0:
                raise ValueError(f"{label} ({kind}) needs duration > 0")
            if kind in (PROC_KILL_PEERS, PROC_STOP_PEERS):
                if not (0.0 < fraction <= 1.0):
                    raise ValueError(
                        f"{label} ({kind}) needs fraction in (0, 1]"
                    )
            elif fraction != 0.0:
                raise ValueError(
                    f"{label} ({kind}) must leave fraction at 0"
                )
            if kind == PROC_KILL_SERVER:
                if duration + self.process_restart_latency <= 0:
                    raise ValueError(
                        f"{label} (kill-server) needs "
                        "process_restart_latency > 0 to model the downtime"
                    )
        server_windows = self._server_fault_windows(tuple(events))
        if server_windows and self.outage_rate > 0:
            raise ValueError(
                "server process faults and renewal outages cannot be "
                "combined (their downtimes would overlap nondeterministically)"
            )
        merged = sorted(windows + server_windows)
        previous_end = 0.0
        for start, end in merged:
            if start < previous_end:
                raise ValueError(
                    "server process-fault downtime windows must not overlap "
                    "each other or the deterministic outage_windows: "
                    f"({start:g}, {end:g}) starts before {previous_end:g}"
                )
            previous_end = end

    def _server_fault_windows(
        self, events: Tuple[Tuple[str, float, float, float], ...]
    ) -> Tuple[Tuple[float, float], ...]:
        """Downtime windows implied by the server-kind process faults."""
        windows: List[Tuple[float, float]] = []
        for kind, at, duration, _fraction in events:
            if kind == PROC_KILL_SERVER:
                windows.append(
                    (at, at + duration + self.process_restart_latency)
                )
            elif kind == PROC_STOP_SERVER:
                windows.append((at, at + duration))
        return tuple(windows)

    @property
    def server_process_windows(self) -> Tuple[Tuple[float, float], ...]:
        """Server downtime windows implied by kill/stop-server faults."""
        return self._server_fault_windows(self.process_faults)

    # -- derived ---------------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when every fault channel is disabled."""
        return (
            self.gossip_loss_rate == 0.0
            and self.pull_loss_rate == 0.0
            and self.pollution_fraction == 0.0
            and not self.outage_windows
            and self.outage_rate == 0.0
            and self.burst_rate == 0.0
            and not self.process_faults
        )

    @property
    def has_outages(self) -> bool:
        """True when any downtime is configured."""
        return (
            bool(self.outage_windows)
            or self.outage_rate > 0.0
            or bool(self.server_process_windows)
        )

    @property
    def has_process_faults(self) -> bool:
        """True when any scheduled process fault is configured."""
        return bool(self.process_faults)

    @property
    def outage_duty_cycle(self) -> float:
        """Long-run fraction of time the servers are down (renewal mode).

        For deterministic windows the notion depends on the horizon, so this
        returns NaN; use the windows directly.
        """
        if self.outage_windows:
            return math.nan
        if self.outage_rate <= 0.0:
            return 0.0
        mean_up = 1.0 / self.outage_rate
        return self.outage_duration / (self.outage_duration + mean_up)

    @staticmethod
    def renewal_outages(
        duty_cycle: float, duration: float, **changes: Any
    ) -> "FaultPlan":
        """Build a renewal-outage plan targeting a long-run *duty_cycle*.

        ``duty_cycle`` is the fraction of time down; ``duration`` the fixed
        length of each outage.  Extra keyword knobs pass through.
        """
        require_probability("duty_cycle", duty_cycle)
        if duty_cycle >= 1.0:
            raise ValueError("duty_cycle must be < 1 (servers must come back)")
        if duty_cycle == 0.0:
            return FaultPlan(**changes)
        require_rate("duration", duration)
        mean_up = duration * (1.0 - duty_cycle) / duty_cycle
        return FaultPlan(
            outage_rate=1.0 / mean_up, outage_duration=duration, **changes
        )

    def describe(self) -> str:
        """One-line human-readable summary of the active fault channels."""
        parts: List[str] = []
        if self.gossip_loss_rate or self.pull_loss_rate:
            parts.append(
                f"loss(gossip={self.gossip_loss_rate:g},"
                f"pull={self.pull_loss_rate:g})"
            )
        if self.pollution_fraction:
            parts.append(f"pollution={self.pollution_fraction:g}")
        if self.outage_windows:
            parts.append(f"outages={len(self.outage_windows)}w")
        elif self.outage_rate:
            parts.append(f"outage_duty={self.outage_duty_cycle:.2f}")
        if self.burst_rate:
            parts.append(
                f"bursts(rate={self.burst_rate:g},kill={self.burst_fraction:g})"
            )
        if self.process_faults:
            kinds = ",".join(kind for kind, *_ in self.process_faults)
            parts.append(f"proc[{kinds}]")
        return " ".join(parts) if parts else "no faults"
