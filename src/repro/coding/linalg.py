"""Linear algebra over GF(2^8) for RLNC encoding and decoding.

Two styles of elimination are provided:

- batch helpers (:func:`rank`, :func:`rref`, :func:`solve`, :func:`invert`)
  over ``uint8`` numpy matrices, used by tests and by offline decoding, and
- :class:`IncrementalDecoder`, a progressive Gaussian eliminator that
  accepts one coded block at a time and answers the question the protocol
  actually asks: *is this block innovative?*  Servers (and, in full-RLNC
  mode, peers) keep one instance per segment.

The paper notes that decoding a segment of ``s`` blocks costs about ``O(s)``
operations per input block once blocks arrive; the incremental decoder has
exactly that per-block profile: one elimination pass against at most ``s``
pivot rows, each a ``bytes.translate`` through
:data:`repro.coding.gf256.SCALE` and an integer XOR.  The pass runs over
the ``s``-byte headers first and touches a payload only when the header
survives, i.e. only for an innovative row.

Stored pivot rows are kept in echelon form in insertion order: row ``i``
is 1 at its own pivot column and 0 at the pivot column of every earlier
row.  Eliminating with row ``i`` therefore never changes the incoming
row's entry at an *earlier* pivot column, so one sequential pass that
reads each factor from the running header clears every pivot column.
The reduced row is the unique vector of ``row + span(rows)`` that is zero
at every pivot column, whatever basis of the span is stored, so verdicts,
pivots and new rows are those of full Gauss-Jordan elimination.  The
Jordan step itself (clearing later pivot columns too) runs only where
reduced rows are read: :meth:`IncrementalDecoder.decode`,
:meth:`~IncrementalDecoder.coefficient_matrix` and
:meth:`~IncrementalDecoder.snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.coding import gf256
from repro.coding.gf256 import INVERSE, SCALE, Vector, VectorLike


@dataclass(frozen=True)
class DecoderSnapshot:
    """Bit-exact serialized state of an :class:`IncrementalDecoder`.

    The live checkpoint layer persists these across server restarts; the
    round-trip contract is that ``IncrementalDecoder.from_snapshot(d.snapshot())``
    reproduces rank, pivot columns, the reduced coefficient rows, and the
    payload rows byte for byte (the restart-loses-no-rank property test
    pins this down).
    """

    size: int
    payload_length: Optional[int]
    pivot_cols: Tuple[int, ...]
    has_payload: Tuple[bool, ...]
    matrix_rows: bytes
    payload_rows: bytes


def _as_matrix(matrix: VectorLike) -> Vector:
    array = np.atleast_2d(np.asarray(matrix))
    if array.size and (array.min() < 0 or array.max() > 255):
        raise ValueError("GF(256) matrix entries must lie in [0, 255]")
    coerced: Vector = array.astype(np.uint8)
    return coerced


def rref(matrix: VectorLike) -> Tuple[Vector, List[int]]:
    """Reduced row-echelon form of *matrix* over GF(256).

    Returns ``(reduced, pivot_columns)``.  The input is not modified.
    Pivot search is a vectorized ``np.nonzero`` over the column slice and
    elimination is one batched :func:`repro.coding.gf256.rows_addmul` pass
    per pivot instead of a Python loop over rows.
    """
    work = _as_matrix(matrix).copy()
    n_rows, n_cols = work.shape
    pivot_cols: List[int] = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        candidates = np.nonzero(work[row:, col])[0]
        if candidates.size == 0:
            continue
        pivot_row = row + int(candidates[0])
        if pivot_row != row:
            work[[row, pivot_row]] = work[[pivot_row, row]]
        pivot_value = int(work[row, col])
        if pivot_value != 1:
            work[row] = gf256.vec_scale(work[row], gf256.inv(pivot_value))
        factors = work[:, col].copy()
        factors[row] = 0
        gf256.rows_addmul(work, work[row], factors)
        pivot_cols.append(col)
        row += 1
    return work, pivot_cols


def rank(matrix: VectorLike) -> int:
    """Rank of *matrix* over GF(256)."""
    _, pivots = rref(matrix)
    return len(pivots)


def is_invertible(matrix: VectorLike) -> bool:
    """True iff *matrix* is square and full-rank over GF(256)."""
    array = _as_matrix(matrix)
    return array.shape[0] == array.shape[1] and rank(array) == array.shape[0]


def solve(matrix: VectorLike, rhs: VectorLike) -> Vector:
    """Solve ``matrix @ x = rhs`` over GF(256) for square full-rank systems.

    *rhs* may be a vector or a matrix of stacked right-hand sides.  Raises
    :class:`ValueError` for non-square or singular systems.
    """
    a = _as_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"solve requires a square matrix, got {a.shape}")
    b: Vector = np.asarray(rhs).astype(np.uint8)
    rhs_was_vector = b.ndim == 1
    if rhs_was_vector:
        b = b.reshape(-1, 1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {a.shape[0]}")
    augmented = np.concatenate([a, b], axis=1)
    reduced, pivots = rref(augmented)
    if pivots[: a.shape[0]] != list(range(a.shape[0])) or len(pivots) != a.shape[0]:
        raise ValueError("matrix is singular over GF(256)")
    solution = reduced[:, a.shape[1]:]
    return solution[:, 0] if rhs_was_vector else solution


def invert(matrix: VectorLike) -> Vector:
    """Matrix inverse over GF(256); raises :class:`ValueError` if singular."""
    a = _as_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"invert requires a square matrix, got {a.shape}")
    identity = np.eye(a.shape[0], dtype=np.uint8)
    return solve(a, identity)


class IncrementalDecoder:
    """Progressive Gaussian elimination over GF(256).

    Collects the coded blocks of one segment of *size* original blocks as
    ``bytes`` rows ``[coefficients | payload]``.  Each offered row is reduced
    against the pivot rows accumulated so far; a row whose coefficients
    reduce to zero is *redundant* and rejected, otherwise it becomes a new
    pivot row.  Once ``size`` pivot rows exist the payload columns *are* the
    originals.

    Payloads are optional (the protocol simulators often track rank
    evolution without carrying data bytes) but uniform: the first row fixes
    the payload length ``L`` (0 for header-only blocks) and a row of any
    other width raises ``ValueError``.

    Storage: the live pivot rows as immutable ``bytes`` in insertion order
    and echelon form, each with its header and its pivot column.  A row is
    eliminated as one little-endian integer, so an innovative row's header
    and payload share one pass.
    """

    def __init__(self, size: int, payload_length: Optional[int] = None) -> None:
        if size < 1:
            raise ValueError(f"segment size must be >= 1, got {size}")
        self.size = size
        #: ``L`` once a payload row has been offered, None until then.
        self.payload_length = payload_length
        # The width of every row: ``size`` until the first payload row
        # (`_widen`), and the header bits of a row's little-endian integer.
        self._width = size
        self._header_bits = (1 << (8 * size)) - 1
        # pivot rows, their headers and pivot columns, in insertion order
        self._rows: List[bytes] = []
        self._headers: List[bytes] = []
        self._pivot_cols: List[int] = []

    @property
    def rank(self) -> int:
        """Number of linearly independent blocks received so far."""
        return len(self._rows)

    @property
    def is_complete(self) -> bool:
        """True once the full segment can be decoded."""
        return len(self._rows) == self.size

    def would_be_innovative(self, coefficients: VectorLike) -> bool:
        """Check innovation without mutating the decoder state."""
        return bool(self._reduce(self._header(coefficients)) & self._header_bits)

    def add(
        self, coefficients: VectorLike, payload: Optional[VectorLike] = None
    ) -> bool:
        """Offer one coded block; return ``True`` iff it was innovative.

        *coefficients* is the length-``size`` encoding vector over the
        original blocks; *payload* is the coded data, present on every call
        or on none.  :meth:`add_row` takes the two as the one row they are.
        """
        header = self._header(coefficients)
        if payload is None:
            return self.add_row(header)
        return self.add_row(header + gf256.as_row(payload))

    def add_row(self, row: Union[bytes, Vector]) -> bool:
        """Offer one block as its row ``[coefficients | payload]``."""
        if type(row) is not bytes:
            row = gf256.as_row(row)
        if len(row) != self._width:
            self._widen(row)
        reduced = self._reduce(row)
        header = reduced & self._header_bits
        if not header:
            return False
        # The pivot is the lowest non-zero byte of the reduced header.
        pivot_col = ((header & -header).bit_length() - 1) >> 3
        self._insert(reduced.to_bytes(len(row), "little"), pivot_col)
        return True

    def decode(self) -> Vector:
        """Recover the original payload matrix (one row per original block).

        Raises :class:`ValueError` if the segment is incomplete or payloads
        were not supplied with the coded blocks.
        """
        if not self.is_complete:
            raise ValueError(
                f"segment not decodable: rank {self.rank} < size {self.size}"
            )
        size = self.size
        if self._width == size:
            raise ValueError("cannot decode: coded blocks carried no payloads")
        # Reduced rows sorted by pivot column have the identity for their
        # coefficient matrix, so their payloads *are* the original blocks.
        rows = self._jordan()
        order = sorted(range(size), key=self._pivot_cols.__getitem__)
        data = bytearray().join(rows[index][size:] for index in order)
        return np.frombuffer(data, dtype=np.uint8).reshape(size, -1)

    def coefficient_matrix(self) -> Vector:
        """Copy of the current reduced coefficient rows (for inspection)."""
        size = self.size
        data = bytearray().join(row[:size] for row in self._jordan())
        return np.frombuffer(data, dtype=np.uint8).reshape(self.rank, size)

    def snapshot(self) -> DecoderSnapshot:
        """Serialize the reduced rows to a :class:`DecoderSnapshot`."""
        size, rows = self.size, self._jordan()
        return DecoderSnapshot(
            size=size,
            payload_length=self.payload_length,
            pivot_cols=tuple(self._pivot_cols),
            has_payload=(self._width > size,) * self.rank,
            matrix_rows=b"".join(row[:size] for row in rows),
            payload_rows=b"".join(row[size:] for row in rows),
        )

    @classmethod
    def from_snapshot(cls, snap: DecoderSnapshot) -> "IncrementalDecoder":
        """Rebuild a decoder whose state is byte-identical to the snapshot."""
        r, size = len(snap.pivot_cols), snap.size
        # All rows carry payloads or none does.
        length = (snap.payload_length or 0) if any(snap.has_payload) else 0
        if r > size or snap.has_payload != (length > 0,) * r:
            raise ValueError(
                f"snapshot of size {size} has {r} pivot(s) with payload "
                f"flags {snap.has_payload} at length {snap.payload_length}"
            )
        header, data = snap.matrix_rows, snap.payload_rows
        if len(header) != r * size or len(data) != r * length:
            raise ValueError(
                f"snapshot of {r} row(s) of {size} + {length} bytes holds "
                f"{len(header)} + {len(data)} bytes"
            )
        decoder = cls(size, snap.payload_length)
        if r:
            decoder._width = size + length
            decoder._rows = [
                header[i * size : (i + 1) * size] + data[i * length : (i + 1) * length]
                for i in range(r)
            ]
            decoder._headers = [row[:size] for row in decoder._rows]
            decoder._pivot_cols = list(snap.pivot_cols)
        return decoder

    # -- internals ---------------------------------------------------------

    def _header(self, coefficients: VectorLike) -> bytes:
        header = gf256.as_row(coefficients)
        if len(header) != self.size:
            raise ValueError(
                f"coefficient vector has shape ({len(header)},), expected ({self.size},)"
            )
        return header

    def _widen(self, row: bytes) -> None:
        """The first payload row, offered at rank 0, fixes ``L``."""
        length = len(row) - self.size
        if self._rows or length < 1 or self.payload_length not in (None, length):
            raise ValueError(
                f"block row of {len(row)} bytes offered at rank {self.rank} of "
                f"size {self.size}, payload length {self.payload_length}"
            )
        self.payload_length = length
        self._width = len(row)

    def _reduce(self, row: bytes) -> int:
        """*row* eliminated against the stored rows, as a little-endian int.

        The header is eliminated first, each factor read from the running
        header at a stored row's pivot column (exact on echelon rows).  A
        header that reduces to zero is returned as it is, with no payload
        byte touched; a surviving one replays the factors over the row.
        """
        from_bytes, tables = int.from_bytes, SCALE
        header = from_bytes(row[: self.size], "little")
        factors: List[int] = []
        for stored, col in zip(self._headers, self._pivot_cols):
            factor = (header >> (col << 3)) & 255
            if factor:
                header ^= from_bytes(stored.translate(tables[factor]), "little")
            factors.append(factor)
        if not header or len(row) == self.size:
            return header
        reduced = from_bytes(row, "little")
        for stored, factor in zip(self._rows, factors):
            if factor:
                reduced ^= from_bytes(stored.translate(tables[factor]), "little")
        return reduced

    def _insert(self, row: bytes, pivot_col: int) -> None:
        """Normalize the reduced *row* and install it as the last pivot row."""
        pivot_value = row[pivot_col]
        if pivot_value != 1:
            row = row.translate(SCALE[INVERSE[pivot_value]])
        self._rows.append(row)
        self._headers.append(row[: self.size])
        self._pivot_cols.append(pivot_col)

    def _jordan(self) -> List[bytes]:
        """A copy of the rows, Gauss-Jordan reduced: ``row_i[pivot_col_j]
        == (1 if i == j else 0)``.

        Back-substitution from the last row up.  A row's entries at later
        pivot columns are cleared with the later rows, each reduced already
        and zero at every other pivot column, so each factor is read from
        the echelon row up front.
        """
        rows, cols, width = list(self._rows), self._pivot_cols, self._width
        from_bytes, tables = int.from_bytes, SCALE
        for index in range(len(rows) - 2, -1, -1):
            row = rows[index]
            reduced = from_bytes(row, "little")
            for later, col in zip(rows[index + 1 :], cols[index + 1 :]):
                if row[col]:
                    reduced ^= from_bytes(later.translate(tables[row[col]]), "little")
            rows[index] = reduced.to_bytes(width, "little")
        return rows


def rank_of_rows(rows: Iterable[bytes], size: int) -> int:
    """Rank of the ``size``-byte headers of *rows*, by the incremental
    eliminator."""
    eliminator = IncrementalDecoder(size)
    for row in rows:
        eliminator.add_row(row[:size])
    return eliminator.rank
