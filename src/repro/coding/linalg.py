"""Linear algebra over GF(2^8) for RLNC encoding and decoding.

Two styles of elimination are provided:

- batch helpers (:func:`rank`, :func:`rref`, :func:`solve`, :func:`invert`)
  over ``uint8`` numpy matrices, used by tests and by offline decoding, and
- :class:`IncrementalDecoder`, a progressive Gauss-Jordan eliminator that
  accepts one coded block at a time and answers the question the protocol
  actually asks: *is this block innovative?*  Servers (and, in full-RLNC
  mode, peers) keep one instance per segment.

The paper notes that decoding a segment of ``s`` blocks costs about ``O(s)``
operations per input block once blocks arrive; the incremental decoder has
exactly that per-block profile (one elimination pass against at most ``s``
pivot rows), and the pass itself is a *single batched gather-scale-XOR*
(:func:`repro.coding.gf256.vec_addmul_rows`) rather than a Python loop.

Equivalence of the batched pass with sequential elimination: stored pivot
rows are kept mutually Gauss-Jordan reduced, i.e. ``row_i[pivot_col_j] ==
(1 if i == j else 0)``.  Eliminating with ``row_i`` therefore never changes
the incoming vector's entry at any *other* pivot column, so the elimination
factors gathered up-front equal the factors the sequential loop would read
one at a time, and XOR accumulation commutes — the batched result is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.coding import gf256
from repro.coding.gf256 import Vector, VectorLike


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
    """Progressive Gauss-Jordan elimination over GF(256).

    Collects the coded blocks of one segment of *size* original blocks as
    rows ``[coefficients | payload]``.  Each offered row is reduced against
    the pivot rows accumulated so far; a row whose coefficients reduce to
    zero is *redundant* and rejected, otherwise it becomes a new pivot row.
    Once ``size`` pivot rows exist the payload columns *are* the originals.

    Payloads are optional (the protocol simulators often track rank
    evolution without carrying data bytes) but uniform: the first row fixes
    the payload length ``L`` (0 for header-only blocks) and a row of any
    other width raises ``ValueError``.

    Storage invariants (the zero-copy design): one ``size x (size + L)``
    matrix whose rows ``[0, rank)`` are the live pivot rows in insertion
    order — nothing is reallocated or vstacked per insert, and header and
    payload share every elimination pass because they are one row.
    """

    def __init__(self, size: int, payload_length: Optional[int] = None) -> None:
        if size < 1:
            raise ValueError(f"segment size must be >= 1, got {size}")
        self.size = size
        #: ``L`` once a payload row has been offered, None until then.
        self.payload_length = payload_length
        # Preallocated pivot-row storage; rows [0, _rank) are live.  The
        # payload columns join with the first payload row (`_widen`).
        self._matrix: Vector = np.zeros((size, size), dtype=np.uint8)
        # pivot column of each stored row, in insertion order
        self._pivot_cols: List[int] = []
        self._pivot_array = np.zeros(size, dtype=np.intp)
        self._rank = 0

    @property
    def rank(self) -> int:
        """Number of linearly independent blocks received so far."""
        return self._rank

    @property
    def is_complete(self) -> bool:
        """True once the full segment can be decoded."""
        return self._rank == self.size

    def would_be_innovative(self, coefficients: Vector) -> bool:
        """Check innovation without mutating the decoder state."""
        return bool(self._reduce(self._header(coefficients)).any())

    def add(
        self, coefficients: VectorLike, payload: Optional[VectorLike] = None
    ) -> bool:
        """Offer one coded block; return ``True`` iff it was innovative.

        *coefficients* is the length-``size`` encoding vector over the
        original blocks; *payload* is the coded data, present on every call
        or on none.  :meth:`add_row` takes the two as the one row they are.
        """
        parts = [self._header(coefficients)]
        if payload is not None:
            parts.append(gf256.as_vector(payload, copy=False))
        return self.add_row(np.concatenate(parts))

    def add_row(self, row: Vector) -> bool:
        """Offer one block as its row ``[coefficients | payload]``."""
        if row.shape != (self._matrix.shape[1],):
            self._widen(row)
        reduced = self._reduce(row)
        if not reduced[: self.size].any():
            return False
        self._insert(reduced)
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
        if self._matrix.shape[1] == self.size:
            raise ValueError("cannot decode: coded blocks carried no payloads")
        # Rows are maintained in fully reduced (Gauss-Jordan) form, so after
        # sorting by pivot column the coefficient matrix is the identity and
        # the payloads *are* the original blocks.
        order = np.argsort(self._pivot_array)
        result: Vector = self._matrix[order, self.size :]
        return result

    def coefficient_matrix(self) -> Vector:
        """Copy of the current reduced coefficient rows (for inspection)."""
        return self._matrix[: self._rank, : self.size].copy()

    def snapshot(self) -> DecoderSnapshot:
        """Serialize the live rows to a :class:`DecoderSnapshot`."""
        live = self._matrix[: self._rank]
        return DecoderSnapshot(
            size=self.size,
            payload_length=self.payload_length,
            pivot_cols=tuple(self._pivot_cols),
            has_payload=(live.shape[1] > self.size,) * self._rank,
            matrix_rows=live[:, : self.size].tobytes(),
            payload_rows=live[:, self.size :].tobytes(),
        )

    @classmethod
    def from_snapshot(cls, snap: DecoderSnapshot) -> "IncrementalDecoder":
        """Rebuild a decoder whose state is byte-identical to the snapshot."""
        r = len(snap.pivot_cols)
        # All rows carry payloads or none does.
        length = (snap.payload_length or 0) if any(snap.has_payload) else 0
        if r > snap.size or snap.has_payload != (length > 0,) * r:
            raise ValueError(
                f"snapshot of size {snap.size} has {r} pivot(s) with payload "
                f"flags {snap.has_payload} at length {snap.payload_length}"
            )
        # reshape raises ValueError unless each half holds exactly r rows.
        header = np.frombuffer(snap.matrix_rows, dtype=np.uint8).reshape(r, snap.size)
        data = np.frombuffer(snap.payload_rows, dtype=np.uint8).reshape(r, length)
        decoder = cls(snap.size, snap.payload_length)
        if r:
            decoder._matrix = np.zeros(
                (snap.size, snap.size + length), dtype=np.uint8
            )
            decoder._matrix[:r] = np.concatenate((header, data), axis=1)
            decoder._pivot_cols = list(snap.pivot_cols)
            decoder._pivot_array[:r] = snap.pivot_cols
            decoder._rank = r
        return decoder

    # -- internals ---------------------------------------------------------

    def _header(self, coefficients: VectorLike) -> Vector:
        vector = gf256.as_vector(coefficients, copy=False)  # _reduce copies
        if vector.shape != (self.size,):
            raise ValueError(
                f"coefficient vector has shape {vector.shape}, expected ({self.size},)"
            )
        return vector

    def _widen(self, row: Vector) -> None:
        """The first payload row, offered at rank 0, fixes ``L``."""
        length = row.shape[0] - self.size if row.ndim == 1 else 0
        if self._rank or length < 1 or self.payload_length not in (None, length):
            raise ValueError(
                f"block row of shape {row.shape} offered at rank {self._rank} of "
                f"size {self.size}, payload length {self.payload_length}"
            )
        self.payload_length = length
        self._matrix = np.zeros((self.size, row.shape[0]), dtype=np.uint8)

    def _reduce(self, row: Vector) -> Vector:
        """Eliminate *row* against the stored rows; returns a reduced copy.

        One batched gather-scale-XOR pass over all pivot rows, as wide as
        *row* (a bare header probes the header columns).  Gathering the
        factors up-front is exact because stored rows are mutually reduced.
        """
        reduced = row.copy()
        r = self._rank
        if r:
            gf256.vec_addmul_rows(
                reduced,
                self._matrix[:r, : row.shape[0]],
                reduced[self._pivot_array[:r]],
            )
        return reduced

    def _insert(self, row: Vector) -> None:
        """Normalize the reduced *row*, install it, and back-eliminate."""
        pivot_col = int(np.nonzero(row[: self.size])[0][0])
        pivot_value = int(row[pivot_col])
        if pivot_value != 1:
            row = gf256.vec_scale(row, gf256.inv(pivot_value))
        r = self._rank
        if r:
            # Back-substitute into existing rows so the basis stays
            # Gauss-Jordan reduced; this keeps `decode` trivial and
            # `_reduce` single-pass.  The factor column must be copied
            # before the in-place update zeroes it.
            gf256.rows_addmul(
                self._matrix[:r], row, self._matrix[:r, pivot_col].copy()
            )
        self._matrix[r] = row
        self._pivot_cols.append(pivot_col)
        self._pivot_array[r] = pivot_col
        self._rank = r + 1
