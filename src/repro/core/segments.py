"""Global segment registry: network degree, server state, lifecycle.

Sec. 3 views the session as a bipartite graph between segments and peers and
attaches to every segment a *state* ``j`` — the number of linearly
independent blocks the servers have collected (0..s).  The registry is the
authoritative owner of that view:

- ``network_degree`` — live blocks of the segment anywhere in the network
  (the segment's degree in graph G),
- ``collected`` — the server state ``j`` (abstract mode) or the rank of the
  pooled server decoder (RLNC mode),
- lifecycle accounting — completion (state reaches ``s``: decodable at the
  servers) and extinction (degree reaches 0: if still incomplete, the data
  is permanently lost, the failure mode the whole design fights).

Every degree/state transition is pushed into the metrics collector so the
"decodable" and "saved for future delivery" populations (Theorem 4 / Fig. 6)
are integrated exactly over time.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.coding.block import CodedBlock, SegmentDescriptor
from repro.coding.rlnc import SegmentDecoder
from repro.sim.metrics import MetricsCollector


class SegmentState:
    """Registry entry for one live (or completed-but-circulating) segment."""

    __slots__ = (
        "descriptor",
        "segment_id",
        "size",
        "network_degree",
        "collected",
        "decoder",
        "completed_at",
        "_counted_decodable",
        "_counted_saved",
    )

    def __init__(
        self, descriptor: SegmentDescriptor, use_decoder: bool = False
    ) -> None:
        self.descriptor = descriptor
        self.segment_id = descriptor.segment_id
        self.size = descriptor.size
        self.network_degree = 0
        self.collected = 0
        self.decoder: Optional[SegmentDecoder] = (
            SegmentDecoder(descriptor) if use_decoder else None
        )
        self.completed_at: Optional[float] = None
        self._counted_decodable = False
        self._counted_saved = False

    @property
    def is_complete(self) -> bool:
        """True once the servers hold ``s`` independent blocks."""
        return self.collected >= self.size

    def __repr__(self) -> str:
        return (
            f"SegmentState(id={self.segment_id}, degree={self.network_degree}, "
            f"collected={self.collected}/{self.size})"
        )


class SegmentRegistry:
    """All segments currently known to the session, with exact accounting."""

    def __init__(self, metrics: MetricsCollector, use_decoders: bool) -> None:
        self._metrics = metrics
        self._use_decoders = use_decoders
        self._segments: Dict[int, SegmentState] = {}
        #: look up a live segment; raises KeyError for unknown/expired ids.
        #: The dict's own method: a lookup per block event needs no frame.
        self.get: Callable[[int], SegmentState] = self._segments.__getitem__
        self._next_id = 0
        #: optional hook fired exactly once when a segment completes, while
        #: its decoder (and thus its payload) is still reachable.
        self.on_complete: Optional[Callable[[SegmentState], None]] = None
        #: optional hook fired on every innovative server pull (per-source
        #: intake accounting for the postmortem experiments).
        self.on_useful_pull: Optional[Callable[[SegmentState], None]] = None
        #: optional hook fired when a segment goes extinct while incomplete
        #: (permanent data loss) — used by tracing and loss forensics.
        self.on_lost: Optional[Callable[[SegmentState], None]] = None
        #: permanently lost segments (extinct while incomplete) — ids only,
        #: kept for postmortem accounting in examples.
        self.lost_segment_ids: List[int] = []
        #: completed segments that have also left the network (safe history).
        self.completed_count = 0

    def __len__(self) -> int:
        return len(self._segments)

    def __contains__(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def live_states(self) -> Iterable[SegmentState]:
        """All segments currently holding blocks in the network."""
        return self._segments.values()

    def create(
        self,
        source_peer: int,
        size: int,
        now: float,
        generation: int = 0,
    ) -> SegmentState:
        """Register a newly injected segment and return its state."""
        descriptor = SegmentDescriptor(
            segment_id=self._next_id,
            source_peer=source_peer,
            size=size,
            injected_at=now,
            generation=generation,
        )
        self._next_id += 1
        state = SegmentState(descriptor, use_decoder=self._use_decoders)
        self._segments[descriptor.segment_id] = state
        return state

    # -- degree transitions ---------------------------------------------------

    def on_block_added(self, state: SegmentState, now: float) -> None:
        """One live block of the segment appeared somewhere in the network."""
        state.network_degree += 1
        if state.network_degree == state.size:
            self._refresh_populations(state, now)

    def on_block_removed(self, state: SegmentState, now: float) -> None:
        """One live block disappeared (TTL expiry or churn loss)."""
        if state.network_degree <= 0:
            raise RuntimeError(
                f"degree underflow for segment {state.segment_id}"
            )
        state.network_degree -= 1
        if state.network_degree == state.size - 1:
            self._refresh_populations(state, now)
        if state.network_degree == 0:
            self._extinguish(state, now)

    # -- server-state transitions ----------------------------------------------

    def on_server_block(
        self, state: SegmentState, now: float, block: Optional[CodedBlock] = None
    ) -> bool:
        """The servers pulled one coded block of this segment.

        Returns True iff the block was innovative to the pooled server state.
        In abstract mode this follows the paper's rule exactly: the state
        increments whenever it is below ``s``.  In RLNC mode the pooled
        decoder decides.
        """
        size = state.size
        if state.collected >= size:  # already complete
            return False
        if state.decoder is not None:
            if block is None:
                raise ValueError("RLNC-mode registry requires the pulled block")
            innovative = state.decoder.offer(block, now)
            state.collected = state.decoder.rank
        else:
            state.collected += 1
            innovative = True
        if innovative and self.on_useful_pull is not None:
            self.on_useful_pull(state)
        if state.collected >= size and state.completed_at is None:
            state.completed_at = now
            self._metrics.on_segment_completed(
                now, state.descriptor.injected_at, state.size
            )
            self.completed_count += 1
            self._refresh_populations(state, now)
            if self.on_complete is not None:
                self.on_complete(state)
        return innovative

    # -- internals --------------------------------------------------------------

    def _refresh_populations(self, state: SegmentState, now: float) -> None:
        """Re-derive the decodable (degree >= s: Theorem 4's Σ_{i≥s} X_i) and
        saved flags; they can only change when the degree crosses ``s`` or
        the segment completes, so only those transitions call this."""
        decodable = state.network_degree >= state.size
        if decodable != state._counted_decodable:
            self._metrics.decodable_segments.add(now, 1 if decodable else -1)
            state._counted_decodable = decodable
        saved = decodable and not state.is_complete
        if saved != state._counted_saved:
            self._metrics.saved_segments.add(now, 1 if saved else -1)
            state._counted_saved = saved

    def _extinguish(self, state: SegmentState, now: float) -> None:
        """Degree hit zero: the segment can never gain blocks again."""
        if not state.is_complete:
            self._metrics.segments_lost += 1
            self.lost_segment_ids.append(state.segment_id)
            if self.on_lost is not None:
                self.on_lost(state)
        # Population flags are already false (degree 0 < s); drop the entry
        # so long sessions do not accumulate dead state.
        del self._segments[state.segment_id]

    # -- diagnostics --------------------------------------------------------------

    def degree_histogram(self) -> Dict[int, int]:
        """Map degree i -> number of live segments of that degree (X_i)."""
        histogram: Dict[int, int] = {}
        for state in self._segments.values():
            histogram[state.network_degree] = (
                histogram.get(state.network_degree, 0) + 1
            )
        return histogram

    def collection_matrix(self) -> Dict[int, Dict[int, int]]:
        """Map degree i -> {state j -> count} (the M_i^j matrix of Sec. 3)."""
        matrix: Dict[int, Dict[int, int]] = {}
        for state in self._segments.values():
            row = matrix.setdefault(state.network_degree, {})
            row[state.collected] = row.get(state.collected, 0) + 1
        return matrix

    def saved_segment_count(self) -> int:
        """Instantaneous count of decodable-but-unreconstructed segments."""
        return sum(
            1
            for state in self._segments.values()
            if state.network_degree >= state.size and not state.is_complete
        )
