"""Data model for segments and coded blocks.

Sec. 2 of the paper groups the statistics blocks generated at each peer into
*segments* of ``s`` blocks and spreads random linear combinations of each
segment's blocks across the network.  This module defines the immutable
description of a segment (:class:`SegmentDescriptor`) and the unit that
actually moves between peers and servers (:class:`CodedBlock`).

A coded block carries its encoding vector over the segment's *original*
blocks ("the coding coefficients used to encode original blocks to x are
embedded in the header of the coded block"), so any holder can re-encode
without global coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.coding import gf256
from repro.coding.gf256 import Vector


@dataclass(frozen=True)
class SegmentDescriptor:
    """Immutable identity and metadata of one segment.

    Attributes:
        segment_id: Globally unique integer id.
        source_peer: Slot id of the peer that generated the segment.
        size: Number of original blocks ``s`` grouped into the segment.
        injected_at: Simulation time of injection.
        generation: Generation counter of the source peer (increments when a
            churn replacement reuses the slot), so statistics of departed
            peers remain attributable.
    """

    segment_id: int
    source_peer: int
    size: int
    injected_at: float
    generation: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"segment size must be >= 1, got {self.size}")

    def __str__(self) -> str:
        return (
            f"segment {self.segment_id} (peer {self.source_peer}"
            f"@g{self.generation}, s={self.size}, t={self.injected_at:.3f})"
        )


class CodedBlock:
    """One coded block of a segment.

    ``coefficients`` is the encoding vector over the segment's original
    blocks; ``payload`` is the coded data bytes.  Both are optional because
    the abstract simulation mode tracks block *counts* only (the paper's
    bipartite-graph view, where a block is just an edge); the full-RLNC mode
    fills them in.

    A coded block is one buffer: ``row`` is the contiguous ``uint8`` vector
    ``[header | payload]`` of ``s + L`` bytes (``L = 0`` for header-only
    RLNC) and ``coefficients`` / ``payload`` are views into it, because the
    two always undergo the same linear combination — recode, decode and the
    wire each make one pass over ``row``.  Writing through a view (pollution
    zero-fills the header) writes the row; rebinding an attribute does not.

    Identity (not value) equality is deliberate: two blocks with equal
    coefficients are still distinct objects occupying distinct buffer slots.
    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): an
    abstract session allocates one per buffered block, and an instance
    ``__dict__`` doubles what the garbage collector tracks for each.
    """

    __slots__ = (
        "segment", "coefficients", "payload", "created_at",
        "alive", "polluted", "row", "position",
    )

    def __init__(
        self,
        segment: SegmentDescriptor,
        coefficients: Optional[Vector] = None,
        payload: Optional[Vector] = None,
        created_at: float = 0.0,
        alive: bool = True,
        polluted: bool = False,
        row: Optional[Vector] = None,
    ) -> None:
        self.segment = segment
        self.coefficients = coefficients
        self.payload = payload
        self.created_at = created_at
        #: Liveness flag flipped by TTL expiry and churn; lets stale deletion
        #: events detect that their target is already gone.
        self.alive = alive
        #: Fault-injection tag: the block was emitted (or re-encoded from a
        #: holding contaminated) by a polluting peer.  In RLNC mode the
        #: coefficient header is additionally zeroed, so GF(2^8) rank
        #: detection rejects the block without consulting this flag; abstract
        #: mode relies on the tag alone (the tagged-block approximation).
        self.polluted = polluted
        #: ``[header | payload]``, None for an abstract block; passed instead
        #: of ``coefficients``/``payload`` by a caller that has it (not copied).
        self.row = row
        #: Index in the holding peer's ``buffered_blocks`` while buffered
        #: there (``Peer.add_block`` / ``remove_block`` maintain it).
        self.position = -1
        if row is None:
            if coefficients is None:
                return
            parts = [
                gf256.as_vector(part, copy=False)
                for part in (coefficients, payload)
                if part is not None
            ]
            if parts[0].shape != (segment.size,) or parts[-1].ndim != 1:
                raise ValueError(
                    f"coefficients and payload of shapes "
                    f"{[part.shape for part in parts]}, expected "
                    f"({segment.size},) and one row of bytes"
                )
            row = self.row = np.concatenate(parts)
        size = segment.size
        if row.ndim != 1 or row.shape[0] < size or row.dtype != np.uint8:
            raise ValueError(
                f"a block row of {segment} is >= {size} uint8 entries, "
                f"got {row.dtype} {row.shape}"
            )
        self.coefficients = row[:size]
        self.payload = row[size:] if row.shape[0] > size else None

    @property
    def is_coded(self) -> bool:
        """True when the block carries an explicit encoding vector."""
        return self.coefficients is not None

    def __repr__(self) -> str:
        kind = "rlnc" if self.is_coded else "abstract"
        return (
            f"CodedBlock(segment={self.segment.segment_id}, kind={kind}, "
            f"t={self.created_at:.3f}, alive={self.alive})"
        )


def corrupt_block(block: CodedBlock) -> CodedBlock:
    """Mark *block* as polluted, invalidating its coefficient header.

    In RLNC mode the coefficient vector is zeroed — a detectably invalid
    header that GF(2^8) rank arithmetic can never count as innovative, so
    the server-side decoder rejects the block for free.  In abstract mode
    the ``polluted`` tag alone carries the information (the tagged-block
    approximation of the same detection).  Returns the block for chaining.
    """
    block.polluted = True
    if block.coefficients is not None:
        block.coefficients.fill(0)
    return block


def detects_pollution(block: CodedBlock) -> bool:
    """Recognise a :func:`corrupt_block` header: all-zero coefficients.

    This is the *real* detection the simulator's RLNC mode models — a
    zeroed header can never be innovative under GF(2^8) rank arithmetic —
    done cheaply before the decoder is touched.  The live collector runs
    it on every pulled block; the wire ``polluted`` tag is carried for
    accounting cross-checks but is deliberately not trusted.
    """
    return block.coefficients is not None and not block.coefficients.any()


class BlockRows:
    """The rows of one holder's coded blocks of one segment, in one matrix.

    Order is state: recoding coefficient ``i`` multiplies the ``i``-th row,
    so rows stay in insertion order and a removal shifts the tail up.  Rows
    are copied in (an emitter may still zero its header in place); room for
    ``s`` rows doubles when a holder keeps more (its rank is still < s).
    """

    __slots__ = ("segment", "count", "_matrix")

    def __init__(self, segment: SegmentDescriptor, width: int) -> None:
        self.segment = segment
        self.count = 0
        self._matrix: Vector = np.empty((segment.size, width), dtype=np.uint8)

    @classmethod
    def of(cls, blocks: Sequence[CodedBlock]) -> "BlockRows":
        """The rows of *blocks*, which must be coded blocks of one segment."""
        if not blocks:
            raise ValueError("cannot recode from an empty block set")
        first = blocks[0]
        rows = cls(first.segment, 0 if first.row is None else first.row.shape[0])
        for block in blocks:
            if block.segment is not first.segment and block.segment != first.segment:
                raise ValueError("recode inputs must belong to a single segment")
            rows.append(block)
        return rows

    @property
    def rows(self) -> Vector:
        """The live ``(count, s + L)`` rows, a view."""
        return self._matrix[: self.count]

    def append(self, block: CodedBlock) -> None:
        """Copy the row of *block* in as the last row."""
        row, matrix = block.row, self._matrix
        if row is None or row.shape[0] != matrix.shape[1]:
            raise ValueError(
                f"{block!r} among coded blocks with rows of {matrix.shape[1]} "
                f"bytes: payloads are all of one length or all absent"
            )
        if self.count == matrix.shape[0]:
            self._matrix = np.empty((2 * self.count, row.shape[0]), dtype=np.uint8)
            self._matrix[: self.count] = matrix
        self._matrix[self.count] = row
        self.count += 1

    def remove(self, index: int) -> None:
        """Drop row *index*, keeping the order of the rest."""
        last = self.count - 1
        self._matrix[index:last] = self._matrix[index + 1 : last + 1]
        self.count = last


def make_source_blocks(
    segment: SegmentDescriptor,
    payloads: Optional[Vector] = None,
    created_at: Optional[float] = None,
) -> List[CodedBlock]:
    """Create the ``s`` systematic (identity-coded) blocks of a new segment.

    When the source injects a segment it holds the original blocks
    themselves; in coded form those are unit coefficient vectors, so the
    blocks' rows are the rows of ``[I | payloads]``, built once.  *payloads*
    is an optional ``(s, payload_len)`` array of original data rows.
    """
    rows: Vector = np.eye(segment.size, dtype=np.uint8)
    if payloads is not None:
        payloads = np.atleast_2d(np.asarray(payloads)).astype(np.uint8)
        if payloads.shape[0] != segment.size:
            raise ValueError(
                f"expected {segment.size} payload rows, got {payloads.shape[0]}"
            )
        rows = np.concatenate((rows, payloads), axis=1)
    when = segment.injected_at if created_at is None else created_at
    return [CodedBlock(segment, row=row, created_at=when) for row in rows]


def make_abstract_blocks(
    segment: SegmentDescriptor,
    count: Optional[int] = None,
    created_at: Optional[float] = None,
) -> List[CodedBlock]:
    """Create *count* coefficient-free blocks (edges of the bipartite graph)."""
    n = segment.size if count is None else count
    if n < 0:
        raise ValueError(f"block count must be >= 0, got {n}")
    when = segment.injected_at if created_at is None else created_at
    return [CodedBlock(segment=segment, created_at=when) for _ in range(n)]
