"""Struct-of-arrays session state for the fast engine.

Three flat column groups replace the event engine's object graph:

- **peers** — one ``int64`` block count per slot (the bipartite graph's
  peer degrees ``y_i``), plus boolean role masks for the fault/adversary
  channels;
- **blocks** — a dense table of live blocks, one row per block: an int32
  (owner slot, segment id) pair moved as one word, and a polluted flag read
  only while a row is tagged.  Uniform row draws are the paper's degree-
  proportional selection; deleting rows swaps the tail down into the holes;
- **segments** — columns of per-segment degree ``x_r``, polluted block
  count and server-collected count ``j_r`` (``int32``), and injection time.

Each table is reserved once, for ``N·B`` rows (``n_peers × capacity``),
and never grows: a peer holds at most B blocks, and every live segment
holds one, so a batch of ``count`` segments (``s·count`` blocks) leaves
``n_segments + count ≤ n_blocks + s·count ≤ N·B`` after a compaction.
Everything is indexed by position; dead segments (degree 0) are retired
by :meth:`FastState.compact_segments`.
"""

from __future__ import annotations

import mmap
from typing import Tuple

import numpy as np

#: The block table's owner-slot and segment-id columns: every kernel gathers
#: from them at random, so they are as narrow as the ids allow (the
#: constructor keeps the ``N·B``-row reservation within it).
_BLOCK_ID = np.int32
_BLOCK_ID_MAX = int(np.iinfo(_BLOCK_ID).max)
#: The ``ufunc.at`` operand for the int32 counters: a Python int takes a
#: casting path ~20x slower there (docs/PERFORMANCE.md, "Memory").
_ONE = np.int32(1)
#: Rows a compaction moves per pass, and so the size of its temporaries.
_CHUNK = 1 << 16


def _reserve(dtype: type, *shape: int) -> np.ndarray:
    """A zero table on its own private anonymous mapping: a page costs
    memory once a row on it is written, and is unmapped with the table.
    (``np.zeros`` below glibc's mmap threshold would ``calloc`` it from the
    heap, which commits reused pages and keeps them after the session.)"""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buffer, dtype=dtype).reshape(shape)


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
        rows = n_peers * capacity  # every table's reservation
        if rows > _BLOCK_ID_MAX:
            raise ValueError(f"n_peers * capacity must be <= {_BLOCK_ID_MAX}")
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
        self.block_ids = _reserve(_BLOCK_ID, rows, 2)
        self.block_peer = self.block_ids[:, 0]
        self.block_seg = self.block_ids[:, 1]
        self._block_words = self.block_ids.view(np.int64)[:, 0]
        #: all False past ``n_blocks``, and below it while ``n_polluted`` is 0
        self.block_polluted = _reserve(np.bool_, rows)
        self.n_blocks = 0
        self.n_polluted = 0  # tagged rows, exact

        # segments: all zero past ``n_segments`` ---------------------------
        self.seg_degree = _reserve(np.int32, rows)
        self.seg_polluted = _reserve(np.int32, rows)
        self.seg_collected = _reserve(np.int32, rows)
        self.seg_injected_at = _reserve(np.float64, rows)
        self.seg_alive = _reserve(np.bool_, rows)
        self.n_segments = 0
        #: live (degree > 0) segments, maintained incrementally
        self.live_segments = 0

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

        The dead rows are evicted first when they outnumber half the live
        ones, or when the batch would not fit.  So the rows ever written
        stay at or below 1.5 times the live segments plus one batch.
        """
        count = len(injected_at)
        end = self.n_segments + count
        if end > _BLOCK_ID_MAX:
            raise OverflowError(
                f"segment ids exceed {_BLOCK_ID_MAX}: {end} segment rows"
            )
        dead = self.n_segments - self.live_segments
        if 2 * dead > self.live_segments or end > len(self.seg_alive):
            self.compact_segments()
            end = self.n_segments + count
        start = end - count
        self.seg_injected_at[start:end] = injected_at
        self.seg_alive[start:end] = True
        self.n_segments = end
        self.live_segments += count
        return np.arange(start, end, dtype=np.int64)

    def compact_segments(self) -> int:
        """Retire dead segment rows; returns how many were evicted.

        Live segments keep their relative order; the tables are rewritten
        in place, ``_CHUNK`` rows at a time.  Segment *ids* are positional,
        so callers must not hold ids across a compaction.
        """
        m = self.n_segments
        kept = self.live_segments
        if kept == m:
            return 0
        alive = self.seg_alive
        # remap[r] is live segment r's new id (dead rows own no block)
        remap = np.cumsum(alive[:m], dtype=_BLOCK_ID)
        remap -= 1
        columns = [self.seg_degree, self.seg_collected, self.seg_injected_at]
        if self.n_polluted:  # else seg_polluted is all zero
            columns.append(self.seg_polluted)
        # a chunk's live rows move down to `to` <= start, so no row is
        # overwritten before it is read
        to = 0
        for start in range(0, m, _CHUNK):
            live = start + np.flatnonzero(alive[start : start + _CHUNK])
            for column in columns + [alive]:
                column[to : to + len(live)] = column[live]
            to += len(live)
        for column in columns + [alive]:
            column[kept:m] = 0
        self.n_segments = kept
        for start in range(0, self.n_blocks, _CHUNK):
            chunk = self.block_seg[start : start + _CHUNK]
            chunk[:] = remap[chunk]
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
        self.block_peer[start:end] = peers
        self.block_seg[start:end] = segments
        self.n_blocks = end
        np.add.at(self.peer_blocks, peers, 1)
        np.add.at(self.seg_degree, segments, _ONE)
        tagged = int(np.count_nonzero(polluted))
        if tagged:
            self.block_polluted[start:end] = polluted
            self.n_polluted += tagged
            np.add.at(self.seg_polluted, segments[polluted], _ONE)

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
        np.subtract.at(self.seg_degree, segments, _ONE)
        if self.n_polluted:
            polluted = self.block_polluted[rows]
            self.block_polluted[holes] = self.block_polluted[tail_kept]
            self.block_polluted[keep_start:n] = False
            self.n_polluted -= int(np.count_nonzero(polluted))
            np.subtract.at(self.seg_polluted, segments[polluted], _ONE)
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
