"""Struct-of-arrays session state for the fast engine.

Three flat column groups replace the event engine's object graph:

- **peers** — one ``int64`` block count per slot (the bipartite graph's
  peer degrees ``y_i``), plus boolean role masks for the fault/adversary
  channels;
- **blocks** — a dense table of live blocks, one row per block: an int32
  (owner slot, segment id) pair moved as one word, and a polluted flag read
  only while a row is tagged.  Uniform row draws are the paper's degree-
  proportional selection; deleting rows swaps the tail down into the holes;
- **segments** — growable columns of per-segment degree ``x_r``, polluted
  block count, server-collected count ``j_r``, and injection time.

Everything is indexed by position; dead segments (degree 0) are retired
by :meth:`FastState.compact_segments` when a batch of new segments would
not fit and growth would not hold them, which remaps the block table's
segment column in one vectorized pass.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Initial capacity of the growable tables.
_INITIAL_CAPACITY = 1024
#: The block table's owner-slot and segment-id columns: every kernel gathers
#: from them at random, so they are as narrow as the ids allow (guarded in
#: the constructor, ``new_segments`` and ``append_blocks``: rows share it).
_BLOCK_ID = np.int32
_BLOCK_ID_MAX = int(np.iinfo(_BLOCK_ID).max)
#: The per-segment columns, sized and compacted together.  The counters stay
#: int64: ``np.add.at``/``np.subtract.at`` with a Python-int operand run an
#: order of magnitude slower on narrower ints (docs/PERFORMANCE.md, Memory).
_SEGMENT_COLUMNS = (
    "seg_degree", "seg_polluted", "seg_collected", "seg_injected_at",
    "seg_alive",
)


def _resize(array: np.ndarray, rows: int) -> np.ndarray:
    """Return a zero-padded copy of *array* with *rows* (>= its length) rows."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct *values*: one native sort and a neighbour compare.

    Bare ``np.unique`` goes through a hash table on numpy >= 2.3, ~20x the
    cost of the sort on the mostly-distinct ids the kernels dedupe.
    """
    ordered = np.sort(values)
    if len(ordered) < 2:
        return ordered
    first = np.empty(len(ordered), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


class FastState:
    """Mutable struct-of-arrays state of one fast-engine session."""

    def __init__(self, n_peers: int, capacity: int, segment_size: int) -> None:
        if not 1 <= n_peers <= _BLOCK_ID_MAX:
            raise ValueError(
                f"n_peers must be in [1, {_BLOCK_ID_MAX}], got {n_peers}"
            )
        if capacity < segment_size:
            raise ValueError(
                f"capacity ({capacity}) must be >= segment_size "
                f"({segment_size})"
            )
        self.n_peers = n_peers
        self.capacity = capacity
        self.segment_size = segment_size

        # peers ------------------------------------------------------------
        self.peer_blocks = np.zeros(n_peers, dtype=np.int64)
        #: adversary role masks (all False on honest runs); sybil marks are
        #: cleared when churn replaces the converted identity.
        self.is_liar = np.zeros(n_peers, dtype=bool)
        self.is_freerider = np.zeros(n_peers, dtype=bool)
        self.is_adv_polluter = np.zeros(n_peers, dtype=bool)
        self.is_sybil = np.zeros(n_peers, dtype=bool)
        #: fault-channel polluter slots (FaultPlan.pollution_fraction).
        self.is_fault_polluter = np.zeros(n_peers, dtype=bool)

        # blocks -----------------------------------------------------------
        self._bind_block_ids(np.zeros((_INITIAL_CAPACITY, 2), dtype=_BLOCK_ID))
        #: all False past ``n_blocks``, and below it while ``n_polluted`` is 0
        self.block_polluted = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self.n_blocks = 0
        self.n_polluted = 0  # tagged rows, exact

        # segments ---------------------------------------------------------
        self.seg_degree = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.seg_polluted = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.seg_collected = np.zeros(_INITIAL_CAPACITY, dtype=np.int64)
        self.seg_injected_at = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self.seg_alive = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self.n_segments = 0
        #: live (degree > 0) segments; maintained incrementally so sizing
        #: the segment columns is O(1).
        self.live_segments = 0

    def _bind_block_ids(self, ids: np.ndarray) -> None:
        """Adopt the ``(rows, 2)`` id table and its column and word views."""
        self.block_ids = ids
        self.block_peer = ids[:, 0]
        self.block_seg = ids[:, 1]
        self._block_words = ids.view(np.int64)[:, 0]

    # -- derived -----------------------------------------------------------

    def empty_peer_count(self) -> int:
        """Peers with no buffered blocks (the z₀ population)."""
        return int(np.count_nonzero(self.peer_blocks[: self.n_peers] == 0))

    def full_peer_count(self) -> int:
        """Peers at the buffer cap (refuse gossip)."""
        return int(
            np.count_nonzero(self.peer_blocks[: self.n_peers] >= self.capacity)
        )

    def decodable_segment_count(self) -> int:
        """Segments with network degree >= s (Theorem 4's population)."""
        m = self.n_segments
        return int(
            np.count_nonzero(self.seg_degree[:m] >= self.segment_size)
        )

    def saved_segment_count(self) -> int:
        """Decodable segments the servers have not yet reconstructed."""
        m = self.n_segments
        return int(
            np.count_nonzero(
                (self.seg_degree[:m] >= self.segment_size)
                & (self.seg_collected[:m] < self.segment_size)
            )
        )

    # -- segment lifecycle -------------------------------------------------

    def new_segments(self, injected_at: np.ndarray) -> np.ndarray:
        """Register len(injected_at) fresh segments; returns their ids.

        The new segments start at degree 0; the caller appends their
        original blocks through :meth:`append_blocks` immediately after.

        The segment columns are sized by the live segments: a batch that
        does not fit reallocates them, to twice the live rows plus the
        batch, only if those fill more than three quarters of them; the
        dead rows are evicted first unless that growth holds them.  So the
        columns never grow past twice the live segments, and every
        compaction leaves at least a quarter of them free.
        """
        count = len(injected_at)
        end = self.n_segments + count
        if end > _BLOCK_ID_MAX:
            raise OverflowError(
                f"segment ids exceed {_BLOCK_ID_MAX}: {end} segment rows"
            )
        if end > len(self.seg_alive):
            wanted = 2 * (self.live_segments + count)
            grow = 2 * wanted > 3 * len(self.seg_alive)
            if not grow or end > wanted:
                self.compact_segments()
                end = self.n_segments + count
            if grow:
                for name in _SEGMENT_COLUMNS:
                    setattr(self, name, _resize(getattr(self, name), wanted))
        start = end - count
        self.seg_injected_at[start:end] = injected_at
        self.seg_alive[start:end] = True
        self.n_segments = end
        self.live_segments += count
        return np.arange(start, end, dtype=np.int64)

    def compact_segments(self) -> int:
        """Retire dead segment rows; returns how many were evicted.

        Live segments keep their relative order; the block table's segment
        column is remapped in one pass.  Segment *ids* are positional, so
        callers must not hold ids across a compaction.
        """
        m = self.n_segments
        live = np.flatnonzero(self.seg_alive[:m])
        kept = len(live)
        if kept == m:
            return 0
        for name in _SEGMENT_COLUMNS:
            column = getattr(self, name)
            column[:kept] = column[live]
            column[kept:m] = 0
        self.n_segments = kept
        remap = np.full(m, -1, dtype=_BLOCK_ID)
        remap[live] = np.arange(kept, dtype=_BLOCK_ID)
        k = self.n_blocks
        self.block_seg[:k] = remap[self.block_seg[:k]]
        return m - kept

    # -- block table -------------------------------------------------------

    def append_blocks(
        self,
        peers: np.ndarray,
        segments: np.ndarray,
        polluted: np.ndarray,
    ) -> None:
        """Add one row per (peer, segment, polluted) triple, updating the
        peer/segment degree columns and the segment pollution counts."""
        start = self.n_blocks
        end = start + len(peers)
        if end > _BLOCK_ID_MAX:
            raise OverflowError(f"block rows exceed {_BLOCK_ID_MAX}: {end}")
        if end > len(self.block_ids):
            rows = max(end, 2 * len(self.block_ids))
            self._bind_block_ids(_resize(self.block_ids, rows))
            self.block_polluted = _resize(self.block_polluted, rows)
        self.block_peer[start:end] = peers
        self.block_seg[start:end] = segments
        self.n_blocks = end
        np.add.at(self.peer_blocks, peers, 1)
        np.add.at(self.seg_degree, segments, 1)
        tagged = int(np.count_nonzero(polluted))
        if tagged:
            self.block_polluted[start:end] = polluted
            self.n_polluted += tagged
            np.add.at(self.seg_polluted, segments[polluted], 1)

    def remove_block_rows(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Delete the (unique, sorted) block *rows* from the dense table.

        Returns ``(peers, segments, polluted, extinct_segments)`` of the
        deleted rows, with degree columns already updated; an *extinct*
        segment is one whose degree hit zero (it can never gain blocks
        again and is marked dead).  Uses the vectorized swap-with-tail
        trick so the table stays dense in O(len(rows) log len(rows)).
        """
        count = len(rows)
        n = self.n_blocks
        words = self._block_words
        ids = words[rows].view(_BLOCK_ID).reshape(count, 2)
        peers, segments = ids[:, 0], ids[:, 1]

        # holes below the new end (ascending) take the surviving rows of
        # the `count`-row tail (ascending): row order is state.
        keep_start = n - count
        in_tail = rows >= keep_start
        holes = rows[~in_tail]
        tail_survives = np.ones(count, dtype=bool)
        tail_survives[rows[in_tail] - keep_start] = False
        tail_kept = keep_start + np.flatnonzero(tail_survives)
        words[holes] = words[tail_kept]
        self.n_blocks = keep_start

        np.subtract.at(self.peer_blocks, peers, 1)
        np.subtract.at(self.seg_degree, segments, 1)
        if self.n_polluted:
            polluted = self.block_polluted[rows]
            self.block_polluted[holes] = self.block_polluted[tail_kept]
            self.block_polluted[keep_start:n] = False
            self.n_polluted -= int(np.count_nonzero(polluted))
            np.subtract.at(self.seg_polluted, segments[polluted], 1)
        else:
            polluted = np.zeros(count, dtype=bool)

        # a segment that lost a row was alive: it died iff its degree is 0
        extinct = _sorted_unique(segments[self.seg_degree[segments] == 0])
        if len(extinct):
            self.seg_alive[extinct] = False
            self.live_segments -= len(extinct)
        return peers, segments, polluted, extinct

    def rows_of_peers(self, slots: np.ndarray) -> np.ndarray:
        """Block-table rows owned by any of *slots* (one O(K) scan)."""
        k = self.n_blocks
        if k == 0 or len(slots) == 0:
            return np.empty(0, dtype=np.int64)
        mask = np.isin(self.block_peer[:k], slots)
        return np.flatnonzero(mask)

    # -- invariants ----------------------------------------------------------

    def check_conservation(self) -> None:
        """Raise AssertionError on any broken conservation law.

        The array-level counterparts of the chaos end-state monitors:
        block conservation (peer side == table == segment side), buffer
        caps, pollution accounting, and collected-count sanity.
        """
        n = self.n_peers
        m = self.n_segments
        k = self.n_blocks
        peer_total = int(self.peer_blocks[:n].sum())
        seg_total = int(self.seg_degree[:m].sum())
        if peer_total != k or seg_total != k:
            raise AssertionError(
                f"block conservation broken: peers hold {peer_total}, "
                f"segments account {seg_total}, table has {k}"
            )
        if (self.peer_blocks[:n] < 0).any():
            raise AssertionError("negative peer block count")
        over = int(np.count_nonzero(self.peer_blocks[:n] > self.capacity))
        if over:
            raise AssertionError(
                f"{over} peers exceed the buffer cap {self.capacity}"
            )
        if (self.seg_degree[:m] < 0).any():
            raise AssertionError("negative segment degree")
        if (self.seg_polluted[:m] < 0).any() or (
            self.seg_polluted[:m] > self.seg_degree[:m]
        ).any():
            raise AssertionError("segment pollution count out of range")
        table_polluted = int(np.count_nonzero(self.block_polluted[:k]))
        seg_polluted = int(self.seg_polluted[:m].sum())
        if not table_polluted == seg_polluted == self.n_polluted:
            raise AssertionError(
                f"pollution accounting broken: table tags {table_polluted}, "
                f"segments account {seg_polluted}, tracked {self.n_polluted}"
            )
        if (self.seg_collected[:m] < 0).any() or (
            self.seg_collected[:m] > self.segment_size
        ).any():
            raise AssertionError("server collected count out of [0, s]")
        live = int(np.count_nonzero(self.seg_alive[:m]))
        if live != self.live_segments:
            raise AssertionError(
                f"live-segment counter drifted: counted {live}, "
                f"tracked {self.live_segments}"
            )
        dead_with_degree = int(
            np.count_nonzero(~self.seg_alive[:m] & (self.seg_degree[:m] > 0))
        )
        if dead_with_degree:
            raise AssertionError(
                f"{dead_with_degree} dead segments still hold blocks"
            )
