"""Structured event tracing for collection simulations.

Attach a :class:`Tracer` to a :class:`repro.core.system.CollectionSystem`
to capture the protocol's life events — injections, gossip transfers, TTL
expiries, departures, useful pulls, completions, losses — as structured
records.  Intended uses:

- debugging protocol changes (replay exactly what happened and when),
- producing event logs for external analysis (JSONL export),
- teaching: the quickstart-with-tracing recipe in the README shows a
  segment's life from injection through gossip spread to server decode.

Tracing is strictly opt-in: an untraced system performs zero tracing work.
The tracer can cap memory with a ring buffer and narrow capture to an
event-kind allowlist; per-kind counters always cover the full run even
when the ring has evicted old events.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, FrozenSet, Iterable, List, Optional, Union

#: Canonical event kinds emitted by the instrumented system.
KIND_INJECT = "inject"
KIND_GOSSIP = "gossip"
KIND_EXPIRE = "expire"
KIND_DEPART = "depart"
KIND_COLLECT = "collect"
KIND_COMPLETE = "complete"
KIND_LOST = "lost"
#: Fault-channel event kinds (emitted only when fault injection is active).
KIND_DROP = "drop"
KIND_POLLUTED = "polluted"
KIND_OUTAGE = "outage"
KIND_RECOVER = "recover"
KIND_BURST = "burst"
#: Adversary-channel event kinds (emitted only when an adversary plan or a
#: server-side defense is active).
KIND_SYBIL = "sybil"
KIND_QUARANTINE = "quarantine"

#: The single source of truth for every event kind the system may emit.
#: :meth:`Tracer.record` refuses any kind missing here, so a typo'd kind
#: fails the first traced run that reaches it instead of silently producing
#: an event no filter ever matches.  Add new kinds here (with a one-line
#: description) before emitting them anywhere.
TRACE_KINDS: Dict[str, str] = {
    KIND_INJECT: "a source peer injected a fresh segment",
    KIND_GOSSIP: "one coded block was gossiped between peers",
    KIND_EXPIRE: "a buffered block's TTL expired",
    KIND_DEPART: "a peer departed and its slot was replaced",
    KIND_COLLECT: "a server pull obtained a useful block",
    KIND_COMPLETE: "a segment became decodable at the servers",
    KIND_LOST: "a segment became unrecoverable",
    KIND_DROP: "a transfer was lost on a faulty link",
    KIND_POLLUTED: "a server rejected a polluted block",
    KIND_OUTAGE: "a server outage window began",
    KIND_RECOVER: "the servers recovered from an outage",
    KIND_BURST: "a correlated churn burst fired",
    KIND_SYBIL: "a sybil burst converted peer slots to adversarial identities",
    KIND_QUARANTINE: "pull-source scoring quarantined a peer identity",
}

#: Kinds every fault-free run can emit.
PROTOCOL_KINDS = frozenset(
    {
        KIND_INJECT,
        KIND_GOSSIP,
        KIND_EXPIRE,
        KIND_DEPART,
        KIND_COLLECT,
        KIND_COMPLETE,
        KIND_LOST,
    }
)
#: Kinds only a fault-injected run can emit.
FAULT_KINDS = frozenset(
    {
        KIND_DROP,
        KIND_POLLUTED,
        KIND_OUTAGE,
        KIND_RECOVER,
        KIND_BURST,
    }
)
#: Kinds only a run with an adversary plan or defenses can emit.
ADVERSARY_KINDS = frozenset(
    {
        KIND_SYBIL,
        KIND_QUARANTINE,
    }
)
ALL_KINDS = frozenset(TRACE_KINDS)
if (  # pragma: no cover - import guard
    PROTOCOL_KINDS | FAULT_KINDS | ADVERSARY_KINDS != ALL_KINDS
    or PROTOCOL_KINDS & FAULT_KINDS
    or PROTOCOL_KINDS & ADVERSARY_KINDS
    or FAULT_KINDS & ADVERSARY_KINDS
):
    raise AssertionError(
        "PROTOCOL_KINDS | FAULT_KINDS | ADVERSARY_KINDS must partition the "
        "TRACE_KINDS registry"
    )


@dataclass(frozen=True)
class TraceEvent:
    """One captured protocol event."""

    time: float
    kind: str
    peer: Optional[int] = None
    segment: Optional[int] = None
    detail: Optional[Dict[str, float]] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (omits empty fields)."""
        out: Dict[str, Any] = {"time": self.time, "kind": self.kind}
        if self.peer is not None:
            out["peer"] = self.peer
        if self.segment is not None:
            out["segment"] = self.segment
        if self.detail:
            out["detail"] = self.detail
        return out


class Tracer:
    """Event sink with optional ring buffer and kind filtering.

    Args:
        max_events: keep only the most recent events (None = unbounded).
        kinds: capture only these kinds (None = all).  Unknown kind names
            are rejected eagerly — a typo would otherwise silently capture
            nothing.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        wanted_kinds: Optional[FrozenSet[str]] = None
        if kinds is not None:
            wanted_kinds = frozenset(kinds)
            unknown = wanted_kinds - ALL_KINDS
            if unknown:
                raise ValueError(
                    f"unknown trace kinds {sorted(unknown)}; "
                    f"valid kinds: {sorted(ALL_KINDS)}"
                )
        self._kinds: Optional[FrozenSet[str]] = wanted_kinds
        self._events: Deque[TraceEvent] = deque(maxlen=max_events)
        self.counts: Dict[str, int] = {}
        self.dropped = 0

    def wants(self, kind: str) -> bool:
        """Cheap pre-check so instrumented code can skip building details."""
        return self._kinds is None or kind in self._kinds

    def record(
        self,
        time: float,
        kind: str,
        peer: Optional[int] = None,
        segment: Optional[int] = None,
        **detail: float,
    ) -> None:
        """Capture one event (no-op if the kind is filtered out).

        Raises:
            ValueError: *kind* is not in :data:`TRACE_KINDS` (checked before
                the filter, so a filtered tracer still catches a typo).
        """
        if kind not in TRACE_KINDS:
            raise ValueError(
                f"unregistered trace kind {kind!r}; declare it in TRACE_KINDS"
            )
        if not self.wants(kind):
            return
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self._events.maxlen is not None and len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(
            TraceEvent(
                time=time,
                kind=kind,
                peer=peer,
                segment=segment,
                detail=dict(detail) if detail else None,
            )
        )

    # -- reading ----------------------------------------------------------------

    @property
    def events(self) -> List[TraceEvent]:
        """Captured events in chronological order (copy)."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Captured events of one kind."""
        return [event for event in self._events if event.kind == kind]

    def for_segment(self, segment_id: int) -> List[TraceEvent]:
        """A segment's captured life, from injection to completion/loss."""
        return [
            event for event in self._events if event.segment == segment_id
        ]

    def for_peer(self, slot: int) -> List[TraceEvent]:
        """Captured events touching one peer slot."""
        return [event for event in self._events if event.peer == slot]

    def to_jsonl(self, path: Union[str, "Path"]) -> int:
        """Write captured events as JSON Lines; returns the event count."""
        events = self.events
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(events)

    @staticmethod
    def read_jsonl(path: Union[str, "Path"]) -> List[TraceEvent]:
        """Load events written by :meth:`to_jsonl`."""
        events: List[TraceEvent] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                events.append(
                    TraceEvent(
                        time=payload["time"],
                        kind=payload["kind"],
                        peer=payload.get("peer"),
                        segment=payload.get("segment"),
                        detail=payload.get("detail"),
                    )
                )
        return events

    def summary(self) -> str:
        """One-line per-kind count summary."""
        parts = [f"{kind}={count}" for kind, count in sorted(self.counts.items())]
        suffix = f" (ring dropped {self.dropped})" if self.dropped else ""
        return ", ".join(parts) + suffix
