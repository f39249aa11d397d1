"""Random linear network coding: recoding at holders, decoding at servers.

Implements the coding operations of Sec. 2:

- a holder of ``l <= s`` coded blocks of a segment re-encodes by drawing
  ``l`` random coefficients in GF(2^8) and emitting the combination
  ``x = sum_j c_j * b_j`` (:func:`recode`),
- the coefficients embedded in block headers are maintained with respect to
  the *original* blocks, so recoding composes: the emitted block's header
  vector is the same linear combination of the input headers,
- a :class:`SegmentDecoder` (thin wrapper over
  :class:`repro.coding.linalg.IncrementalDecoder`) accumulates blocks until
  ``s`` linearly independent ones arrive and then reconstructs the original
  payloads.

Randomness is injected explicitly (``numpy.random.Generator`` or
``random.Random``); nothing in this module touches global RNG state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.coding import gf256
from repro.coding.block import (
    BlockRows,
    CodedBlock,
    SegmentDescriptor,
    make_source_blocks,
)
from repro.coding.gf256 import Vector
from repro.coding.linalg import DecoderSnapshot, IncrementalDecoder, rank_of_rows

#: Either RNG flavour the codec accepts; draws are routed by isinstance.
RngLike = Union[np.random.Generator, random.Random]


def _draw_coefficients(rng: RngLike, count: int) -> bytes:
    """Draw *count* uniform GF(256) coefficients, rejecting the all-zero draw.

    An all-zero combination would emit the zero block, which carries no
    information; resampling keeps the output distribution uniform over the
    remaining 256^count - 1 vectors.  A numpy generator is read the way
    ``integers(0, 256, size=count, dtype=np.uint8)`` fills its array: the
    first *count* little-endian bytes of ceil(count / 4) words from the bit
    generator's own ``next_uint32`` (which also serves the 32-bit half a
    64-bit generator holds over), called through its ctypes interface.
    Same bytes, same generator state, without the wrapper's fixed cost.
    """
    if count < 1:
        raise ValueError(f"cannot draw coefficients for {count} blocks")
    if not isinstance(rng, np.random.Generator):
        while True:
            drawn = bytes(rng.randrange(256) for _ in range(count))
            if drawn.count(0) != count:
                return drawn
    bits = rng.bit_generator.ctypes
    next_uint32, state = bits.next_uint32, bits.state
    shifts, mask = range(0, 8 * count, 32), (1 << (8 * count)) - 1
    while True:
        value = 0
        for shift in shifts:
            value |= next_uint32(state) << shift
        if value & mask:
            return (value & mask).to_bytes(count, "little")


def recode(
    blocks: Union[Sequence[CodedBlock], BlockRows],
    rng: RngLike,
    created_at: float = 0.0,
) -> CodedBlock:
    """Produce one new coded block from the holder's *blocks* of a segment.

    All inputs must be coded blocks of the same segment, all with a payload
    of one length or all without (:class:`BlockRows` checks on the way in).
    One coefficient draw and one :func:`gf256.combine_rows` over the
    ``[header | payload]`` rows: the output's header is expressed over the
    segment's original blocks and its payload is the same combination of
    the input payloads.
    """
    held = blocks if isinstance(blocks, BlockRows) else BlockRows.of(blocks)
    rows = held.rows
    row = gf256.combine_rows(rows, _draw_coefficients(rng, len(rows)))
    return CodedBlock(held.segment, row=row, created_at=created_at)


def encode_from_source(
    segment: SegmentDescriptor,
    payloads: Vector,
    rng: RngLike,
    created_at: float = 0.0,
) -> CodedBlock:
    """Encode one coded block directly from a segment's original payloads:
    a recode of its systematic blocks."""
    return recode(make_source_blocks(segment, payloads), rng, created_at)


class SegmentDecoder:
    """Server-side accumulator of coded blocks for one segment.

    Wraps :class:`IncrementalDecoder` with block-level bookkeeping: counts of
    offered/innovative/redundant blocks and completion timestamping, which the
    collection metrics read directly.
    """

    def __init__(self, segment: SegmentDescriptor) -> None:
        self.segment = segment
        self._decoder = IncrementalDecoder(segment.size)
        self.offered = 0
        self.redundant = 0
        self.completed_at: Optional[float] = None

    @property
    def rank(self) -> int:
        """Linearly independent blocks collected so far."""
        return self._decoder.rank

    @property
    def is_complete(self) -> bool:
        """True once the segment is decodable at the servers."""
        return self._decoder.is_complete

    def offer(self, block: CodedBlock, now: float) -> bool:
        """Feed one received coded block; return True iff it was innovative."""
        if block.segment.segment_id != self.segment.segment_id:
            raise ValueError(
                f"block of segment {block.segment.segment_id} offered to "
                f"decoder of segment {self.segment.segment_id}"
            )
        if block.row is None:
            raise ValueError("SegmentDecoder requires coded blocks")
        self.offered += 1
        innovative = self._decoder.add_row(block.row)
        if not innovative:
            self.redundant += 1
        elif self.is_complete and self.completed_at is None:
            self.completed_at = now
        return innovative

    def decode(self) -> Vector:
        """Reconstruct the original payload rows; see IncrementalDecoder."""
        return self._decoder.decode()

    def snapshot(self) -> "SegmentDecoderSnapshot":
        """Serialize decoder state plus block-level bookkeeping."""
        return SegmentDecoderSnapshot(
            segment=self.segment,
            offered=self.offered,
            redundant=self.redundant,
            completed_at=self.completed_at,
            decoder=self._decoder.snapshot(),
        )

    @classmethod
    def from_snapshot(
        cls, snap: "SegmentDecoderSnapshot"
    ) -> "SegmentDecoder":
        """Rebuild a segment decoder byte-identical to the snapshot."""
        if snap.decoder.size != snap.segment.size:
            raise ValueError(
                f"snapshot decoder size {snap.decoder.size} != segment "
                f"size {snap.segment.size}"
            )
        restored = cls(snap.segment)
        restored._decoder = IncrementalDecoder.from_snapshot(snap.decoder)
        restored.offered = snap.offered
        restored.redundant = snap.redundant
        restored.completed_at = snap.completed_at
        return restored


@dataclass(frozen=True)
class SegmentDecoderSnapshot:
    """Serialized :class:`SegmentDecoder` (one checkpoint journal entry)."""

    segment: SegmentDescriptor
    offered: int
    redundant: int
    completed_at: Optional[float]
    decoder: DecoderSnapshot


def rank_of_blocks(blocks: Sequence[CodedBlock]) -> int:
    """Rank of the coefficient vectors of *blocks* (0 for an empty list).

    Used by peers in full-RLNC mode to answer "how many linearly independent
    blocks of this segment do I hold?" after arbitrary TTL deletions.
    """
    rows = [block.row for block in blocks if block.row is not None]
    if len(rows) != len(blocks):
        raise ValueError("rank_of_blocks requires coded blocks")
    return rank_of_rows(rows, blocks[0].segment.size) if rows else 0


def innovation_probability(
    holder_blocks: List[CodedBlock],
    receiver_matrix: Vector,
    rng: RngLike,
    trials: int = 200,
) -> float:
    """Monte-Carlo estimate that a recoded block is innovative to a receiver.

    Supports the E-ABL-CODE ablation: the paper (and our abstract mode)
    assumes every coded block is innovative whenever the receiver's rank is
    below ``s``; this measures how close real GF(2^8) coding comes.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    receiver_matrix = np.atleast_2d(receiver_matrix).astype(np.uint8)
    base = IncrementalDecoder(holder_blocks[0].segment.size)
    for row in receiver_matrix:
        base.add(row)
    held = BlockRows.of(holder_blocks)
    hits = 0
    for _ in range(trials):
        candidate = recode(held, rng)
        assert candidate.coefficients is not None  # recode always sets them
        if base.would_be_innovative(candidate.coefficients):
            hits += 1
    return hits / trials
