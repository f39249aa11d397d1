"""Peer model: the bounded, TTL-aged buffer of coded blocks.

Each peer sets aside a small buffer (cap ``B`` blocks) in which it stores

- the original blocks of segments it generates itself, and
- coded blocks of other peers' segments received through gossip,

organized per segment (a :class:`SegmentHolding`).  The holding answers the
two questions the protocol asks constantly:

- *can this peer serve segment r?* — it holds at least one live block of r;
- *does this peer still need segment r?* — it holds fewer than ``s``
  linearly independent blocks of r (Sec. 2's gossip-target eligibility).

In abstract mode blocks carry no coefficients and independence is the
paper's bipartite-graph idealization (``min(count, s)``); in full-RLNC mode
independence is the true GF(2^8) rank of the held coefficient vectors,
recomputed lazily because TTL expiry can delete any subset of blocks.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.coding.block import BlockRows, CodedBlock, SegmentDescriptor
from repro.coding.linalg import rank as matrix_rank
from repro.coding.rlnc import RngLike, recode
from repro.util.randomset import RandomizedSet


#: ``SegmentHolding._rows`` before the first block has chosen the layout.
_UNDECIDED = BlockRows.__new__(BlockRows)


class SegmentHolding:
    """All live blocks one peer holds for one segment.

    The first block stored chooses the layout, once per holding: abstract
    (``_rows`` None: blocks are only counted) or coded (their rows are also
    kept in a :class:`BlockRows`, in the order of ``blocks``).
    """

    __slots__ = ("descriptor", "blocks", "polluted_count", "_rank_cache", "_rows")

    def __init__(self, descriptor: SegmentDescriptor) -> None:
        self.descriptor = descriptor
        self.blocks: List[CodedBlock] = []
        #: live blocks carrying the pollution tag (fault injection); peers
        #: cannot tell junk from data, so polluted blocks occupy buffer space
        #: like any other — but they contribute no useful information.
        self.polluted_count = 0
        self._rank_cache: Optional[int] = None
        self._rows: Optional[BlockRows] = _UNDECIDED

    @property
    def block_count(self) -> int:
        """Live blocks held (graph degree contribution of this pair)."""
        return len(self.blocks)

    def independent_count(self) -> int:
        """Linearly independent blocks held.

        Abstract blocks (no coefficients) use the idealized ``min(count, s)``;
        coded blocks use the true rank, cached until the holding mutates.
        """
        if not self.blocks:
            return 0
        if self._rows is None:
            useful = len(self.blocks) - self.polluted_count
            return min(useful, self.descriptor.size)
        if self._rank_cache is None:
            self._rank_cache = matrix_rank(self._rows.rows[:, : self.descriptor.size])
        return self._rank_cache

    def add(self, block: CodedBlock) -> None:
        """Store one live block of this segment."""
        if block.segment.segment_id != self.descriptor.segment_id:
            raise ValueError(
                f"block of segment {block.segment.segment_id} added to "
                f"holding of segment {self.descriptor.segment_id}"
            )
        if (rows := self._rows) is not None:
            if rows is _UNDECIDED:
                self._rows = None if block.row is None else BlockRows.of([block])
            else:
                rows.append(block)
            self._rank_cache = None
        self.blocks.append(block)
        if block.polluted:
            self.polluted_count += 1

    def remove(self, block: CodedBlock) -> bool:
        """Drop *block* if present; returns True when removed."""
        try:
            if (rows := self._rows) is None:
                self.blocks.remove(block)
            else:
                index = self.blocks.index(block)
                del self.blocks[index]
                rows.remove(index)
                self._rank_cache = None
        except ValueError:
            return False
        if block.polluted:
            self.polluted_count -= 1
        return True

    def make_coded_block(self, rng: RngLike, now: float) -> CodedBlock:
        """Emit one (re)coded block from the held blocks (Sec. 2 step 1).

        Abstract mode emits a bare block (an edge copy); RLNC mode draws
        random GF(2^8) coefficients over the held blocks.
        """
        if not self.blocks:
            raise ValueError("cannot encode from an empty holding")
        if self._rows is None:
            return CodedBlock(segment=self.descriptor, created_at=now)
        return recode(self._rows, rng, created_at=now)


class Peer:
    """One participant: a bounded buffer of segment holdings.

    The peer object is generation-scoped: churn replaces the object wholesale
    (same topology slot, fresh empty buffer), so a peer never needs to be
    "reset".
    """

    __slots__ = (
        "slot",
        "generation",
        "capacity",
        "holdings",
        "held_segments",
        "buffered_blocks",
        "block_count",
        "joined_at",
    )

    def __init__(
        self, slot: int, capacity: int, generation: int = 0, joined_at: float = 0.0
    ) -> None:
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.slot = slot
        self.generation = generation
        self.capacity = capacity
        self.holdings: Dict[int, SegmentHolding] = {}
        #: distinct segment ids held, supporting O(1) uniform choice over
        #: segments (the "uniform" selection rule of the Sec. 2 text).
        self.held_segments: RandomizedSet[int] = RandomizedSet()
        #: all live buffered blocks, supporting O(1) uniform choice over
        #: blocks — a block-uniform draw selects a segment with probability
        #: proportional to its multiplicity in the buffer, which realizes the
        #: degree-proportional rule the paper's analysis assumes.  A dense
        #: array in :class:`RandomizedSet`'s layout (append, swap-with-last
        #: removal) whose index lives in each block's ``position``.
        self.buffered_blocks: List[CodedBlock] = []
        self.block_count = 0
        self.joined_at = joined_at

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the buffer holds no blocks (degree-0 peer)."""
        return self.block_count == 0

    @property
    def is_full(self) -> bool:
        """True when the buffer is at its cap (refuses gossip, Sec. 2)."""
        return self.block_count >= self.capacity

    def can_inject(self, segment_size: int) -> bool:
        """True if a fresh segment of *segment_size* blocks fits (degree ≤ B−s)."""
        return self.block_count + segment_size <= self.capacity

    def needs_segment(self, segment_id: int, segment_size: int) -> bool:
        """Gossip-target eligibility for one segment: not full, and fewer
        than ``s`` independent blocks of it held."""
        if self.is_full:
            return False
        holding = self.holdings.get(segment_id)
        if holding is None:
            return True
        return holding.independent_count() < segment_size

    # -- mutations -----------------------------------------------------------

    def add_block(self, block: CodedBlock) -> None:
        """Buffer one live block; raises if the buffer is full."""
        if self.is_full:
            raise ValueError(
                f"peer {self.slot} buffer full ({self.capacity} blocks)"
            )
        segment_id = block.segment.segment_id
        holding = self.holdings.get(segment_id)
        if holding is None:
            holding = SegmentHolding(block.segment)
            self.holdings[segment_id] = holding
            self.held_segments.add(segment_id)
        holding.add(block)
        block.position = len(self.buffered_blocks)
        self.buffered_blocks.append(block)
        self.block_count += 1

    def remove_block(self, block: CodedBlock) -> bool:
        """Remove one block (TTL expiry); True when it was present."""
        segment_id = block.segment.segment_id
        holding = self.holdings.get(segment_id)
        if holding is None or not holding.remove(block):
            return False
        last = self.buffered_blocks.pop()
        if last is not block:
            # Not the final slot: the former last block fills the hole.
            self.buffered_blocks[block.position] = last
            last.position = block.position
        self.block_count -= 1
        if not holding.blocks:
            del self.holdings[segment_id]
            self.held_segments.discard(segment_id)
        return True

    def draw_segment(self, rng: random.Random, uniform: bool) -> int:
        """The segment this peer emits next (gossip tick or server pull).

        *uniform* draws uniformly over the held segment ids; otherwise the
        draw is uniform over buffered blocks, i.e. proportional to each
        segment's multiplicity in the buffer.  Raises IndexError when the
        buffer is empty.
        """
        if uniform:
            return self.held_segments.sample(rng)
        return rng.choice(self.buffered_blocks).segment.segment_id

    def all_blocks(self) -> List[CodedBlock]:
        """Every live block in the buffer (e.g. for churn teardown)."""
        return [
            block
            for holding in self.holdings.values()
            for block in holding.blocks
        ]

    def __repr__(self) -> str:
        return (
            f"Peer(slot={self.slot}, gen={self.generation}, "
            f"blocks={self.block_count}/{self.capacity}, "
            f"segments={len(self.holdings)})"
        )
