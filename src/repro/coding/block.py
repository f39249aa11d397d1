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
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.coding import gf256
from repro.coding.gf256 import Vector, VectorLike


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
    blocks; ``payload`` is the coded data bytes.  Both are absent in the
    abstract simulation mode, which tracks block *counts* only (the paper's
    bipartite-graph view, where a block is just an edge); the full-RLNC mode
    fills them in.

    A coded block is one immutable ``bytes`` row ``[header | payload]`` of
    ``s + L`` bytes (``L = 0`` for header-only RLNC), because header and
    payload always undergo the same linear combination: recode, decode and
    the wire each make one pass over ``row``, and holdings store it without
    copying.  ``coefficients`` and ``payload`` are read-only ``uint8``
    views of it, built on access.  Pollution swaps in a new row
    (:func:`corrupt_block`).  The constructor takes ``uint8`` arrays and
    converts them once.

    Identity (not value) equality is deliberate: two blocks with equal
    coefficients are still distinct objects occupying distinct buffer slots.
    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): an
    abstract session allocates one per buffered block, and an instance
    ``__dict__`` doubles what the garbage collector tracks for each.
    """

    __slots__ = ("segment", "created_at", "alive", "polluted", "row", "position")

    def __init__(
        self,
        segment: SegmentDescriptor,
        coefficients: Optional[VectorLike] = None,
        payload: Optional[VectorLike] = None,
        created_at: float = 0.0,
        alive: bool = True,
        polluted: bool = False,
        row: Optional[Union[bytes, Vector]] = None,
    ) -> None:
        self.segment = segment
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
        #: Index in the holding peer's ``buffered_blocks`` while buffered
        #: there (``Peer.add_block`` / ``remove_block`` maintain it).
        self.position = -1
        #: ``[header | payload]`` as ``bytes``, None for an abstract block;
        #: passed instead of ``coefficients``/``payload`` by a caller that
        #: has it.
        self.row: Optional[bytes] = None
        if row is None:
            if coefficients is None:
                return
            row = gf256.as_row(coefficients)
            if len(row) != segment.size:
                raise ValueError(
                    f"{len(row)} coefficients for a segment of {segment.size}"
                )
            if payload is not None:
                row += gf256.as_row(payload)
        elif type(row) is not bytes:
            row = gf256.as_row(row)
        if len(row) < segment.size:
            raise ValueError(
                f"a block row of {segment} is >= {segment.size} bytes, "
                f"got {len(row)}"
            )
        self.row = row

    @property
    def coefficients(self) -> Optional[Vector]:
        """The encoding vector, a read-only view of ``row``."""
        if self.row is None:
            return None
        return np.frombuffer(self.row, np.uint8, self.segment.size)

    @property
    def payload(self) -> Optional[Vector]:
        """The coded data, a read-only view of ``row``; None without one."""
        row, size = self.row, self.segment.size
        if row is None or len(row) == size:
            return None
        return np.frombuffer(row, np.uint8, offset=size)

    @property
    def is_coded(self) -> bool:
        """True when the block carries an explicit encoding vector."""
        return self.row is not None

    def __repr__(self) -> str:
        kind = "rlnc" if self.is_coded else "abstract"
        return (
            f"CodedBlock(segment={self.segment.segment_id}, kind={kind}, "
            f"t={self.created_at:.3f}, alive={self.alive})"
        )


def corrupt_block(block: CodedBlock) -> CodedBlock:
    """Mark *block* as polluted, invalidating its coefficient header.

    In RLNC mode the row is replaced by a zero header plus the same payload
    — a detectably invalid header that GF(2^8) rank arithmetic can never
    count as innovative, so the server-side decoder rejects the block for
    free.  In abstract mode the ``polluted`` tag alone carries the
    information (the tagged-block approximation of the same detection).
    Returns the block for chaining.
    """
    block.polluted = True
    row = block.row
    if row is not None:
        size = block.segment.size
        block.row = bytes(size) + row[size:]
    return block


def detects_pollution(block: CodedBlock) -> bool:
    """Recognise a :func:`corrupt_block` header: all-zero coefficients.

    This is the *real* detection the simulator's RLNC mode models — a
    zeroed header can never be innovative under GF(2^8) rank arithmetic —
    done cheaply before the decoder is touched.  The live collector runs
    it on every pulled block; the wire ``polluted`` tag is carried for
    accounting cross-checks but is deliberately not trusted.
    """
    size = block.segment.size
    return block.row is not None and block.row.count(0, 0, size) == size


class BlockRows:
    """The rows of one holder's coded blocks of one segment, in order.

    Order is state: recoding coefficient ``i`` multiplies the ``i``-th row,
    so rows stay in insertion order and a removal is ``del rows[i]``.  Rows
    are immutable ``bytes``, so storing one never copies it.
    """

    __slots__ = ("segment", "width", "rows")

    def __init__(self, segment: SegmentDescriptor, width: int) -> None:
        self.segment = segment
        self.width = width
        self.rows: List[bytes] = []

    @classmethod
    def of(cls, blocks: Sequence[CodedBlock]) -> "BlockRows":
        """The rows of *blocks*, which must be coded blocks of one segment."""
        if not blocks:
            raise ValueError("cannot recode from an empty block set")
        first = blocks[0]
        rows = cls(first.segment, 0 if first.row is None else len(first.row))
        for block in blocks:
            if block.segment is not first.segment and block.segment != first.segment:
                raise ValueError("recode inputs must belong to a single segment")
            rows.append(block)
        return rows

    def append(self, block: CodedBlock) -> None:
        """Store the row of *block* as the last row."""
        row = block.row
        if row is None or len(row) != self.width:
            raise ValueError(
                f"{block!r} among coded blocks with rows of {self.width} "
                f"bytes: payloads are all of one length or all absent"
            )
        self.rows.append(row)


def make_source_blocks(
    segment: SegmentDescriptor,
    payloads: Optional[VectorLike] = None,
    created_at: Optional[float] = None,
) -> List[CodedBlock]:
    """Create the ``s`` systematic (identity-coded) blocks of a new segment.

    When the source injects a segment it holds the original blocks
    themselves; in coded form those are unit coefficient vectors, so the
    blocks' rows are the rows of ``[I | payloads]``, cut from one
    ``tobytes()`` of *payloads*, an optional ``(s, payload_len)`` array of
    original data rows.
    """
    size = segment.size
    data, length = b"", 0
    if payloads is not None:
        array = np.atleast_2d(np.asarray(payloads)).astype(np.uint8, copy=False)
        if array.ndim != 2 or array.shape[0] != size:
            raise ValueError(
                f"expected {size} payload rows, got an array of shape {array.shape}"
            )
        data, length = array.tobytes(), array.shape[1]
    zeros = bytes(size)
    when = segment.injected_at if created_at is None else created_at
    return [
        CodedBlock(
            segment,
            row=b"".join(
                (zeros[:i], b"\x01", zeros[i + 1 :], data[i * length : (i + 1) * length])
            ),
            created_at=when,
        )
        for i in range(size)
    ]


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
