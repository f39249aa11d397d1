"""Arithmetic in the Galois field GF(2^8).

The paper's random linear code operates on byte symbols in GF(2^8) (Sec. 2:
"a coded block b from segment i is a linear combination ... in the Galois
field GF(2^8)").  This module implements the field from scratch:

- construction of exponential/logarithm tables over the AES polynomial
  ``x^8 + x^4 + x^3 + x + 1`` (0x11B) with generator 0x03,
- scalar ``add``/``sub``/``mul``/``div``/``inv``/``pow``,
- row arithmetic on immutable ``bytes`` rows, the representation of a coded
  block on the whole RLNC path (:data:`SCALE`, :func:`combine_rows`), and
- vectorized numpy kernels over ``uint8`` arrays, used by the batch helpers
  of :mod:`repro.coding.linalg` (``rref``/``rank``/``solve``) and by tests.

Addition in a binary extension field is XOR, so ``add`` and ``sub`` coincide.

Kernel design: a full 256x256 ``uint8`` multiplication table
(:data:`MUL_TABLE`, 64 KiB) is precomputed at import from the exp/log
tables.  A bytes row is scaled by ``c`` with one ``row.translate(SCALE[c])``
(``SCALE[c]`` is table row ``c`` as ``bytes``) and two rows are added by
XOR of their little-endian integers, so one combination of a block's
``[header | payload]`` row costs a C pass per input row and no numpy call.
The numpy kernels gather through the same table with no ``int32`` log
temporaries and no post-hoc zero-masking (row 0 and column 0 of the table
are already zero); :func:`vec_addmul` reuses a module-level scratch buffer.

The module is deliberately not thread-safe (the scratch buffer is shared);
the simulator is single-threaded by design.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple, Union, cast

import numpy as np
import numpy.typing as npt

#: A GF(256) coefficient/payload vector: a ``uint8`` numpy array.
Vector = npt.NDArray[np.uint8]
#: Anything :func:`as_vector` accepts.
VectorLike = Union[Iterable[int], "npt.NDArray[np.generic]"]

#: Field order and characteristic-polynomial constants.
ORDER = 256
#: AES reduction polynomial x^8 + x^4 + x^3 + x + 1.
MODULUS = 0x11B
#: 0x03 = x + 1 is a primitive element modulo 0x11B.
GENERATOR = 0x03


def _build_tables() -> Tuple[npt.NDArray[np.int32], npt.NDArray[np.int32]]:
    """Construct exp/log tables by iterating ``g^k`` with carry-less reduction."""
    exp = np.zeros(512, dtype=np.int32)  # doubled to skip the mod-255 in mul
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        # Multiply `value` by the generator 0x03 = x + 1:  v*0x03 = (v<<1) ^ v,
        # reduced modulo the field polynomial when the degree-8 bit appears.
        shifted = value << 1
        if shifted & 0x100:
            shifted ^= MODULUS
        value = shifted ^ value
    if value != 1:
        raise AssertionError("generator 0x03 must have multiplicative order 255")
    exp[255:510] = exp[0:255]
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()


def _build_mul_table() -> Vector:
    """Tabulate the full 256x256 product table from the exp/log tables.

    Row/column 0 stay zero, so kernels need no zero-masking: a gather
    through the table is the complete field multiplication.
    """
    table = np.zeros((ORDER, ORDER), dtype=np.uint8)
    logs = LOG_TABLE[1:ORDER]
    # log a + log b <= 508 < 510, inside the doubled exp table.
    table[1:, 1:] = EXP_TABLE[logs[:, None] + logs[None, :]].astype(np.uint8)
    return table


#: Flat multiplication table: ``MUL_TABLE[a, b] == mul(a, b)`` (64 KiB).
MUL_TABLE: Vector = _build_mul_table()
#: ``row.translate(SCALE[c])`` multiplies every byte of *row* by ``c``.
SCALE: Tuple[bytes, ...] = tuple(bytes(row) for row in MUL_TABLE)
#: The same 64 KiB as one vector, ``_FLAT_TABLE[(a << 8) | b] == mul(a, b)``,
#: and where each scalar's table row starts in it, as a ``(256, 1)`` column.
_FLAT_TABLE: Vector = MUL_TABLE.reshape(-1)
_ROW_START = (np.arange(ORDER, dtype=np.uint16) << 8)[:, None]


def validate_symbol(value: int) -> int:
    """Return *value* if it is a valid field element (0..255)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"GF(256) symbol must be an integer, got {value!r}")
    if not 0 <= int(value) < ORDER:
        raise ValueError(f"GF(256) symbol must lie in [0, 255], got {value!r}")
    return int(value)


def add(a: int, b: int) -> int:
    """Field addition (XOR)."""
    return validate_symbol(a) ^ validate_symbol(b)


def sub(a: int, b: int) -> int:
    """Field subtraction; identical to addition in characteristic 2."""
    return add(a, b)


def mul(a: int, b: int) -> int:
    """Field multiplication via log/exp tables."""
    a = validate_symbol(a)
    b = validate_symbol(b)
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def inv(a: int) -> int:
    """Multiplicative inverse; raises :class:`ZeroDivisionError` for 0."""
    a = validate_symbol(a)
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return int(EXP_TABLE[255 - LOG_TABLE[a]])


def div(a: int, b: int) -> int:
    """Field division ``a / b``; raises :class:`ZeroDivisionError` for b=0."""
    a = validate_symbol(a)
    b = validate_symbol(b)
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] - LOG_TABLE[b] + 255])


def power(a: int, exponent: int) -> int:
    """Field exponentiation ``a ** exponent`` for integer exponents.

    Negative exponents are defined through the inverse; ``0 ** 0 == 1`` by
    the usual empty-product convention, while ``0 ** n == 0`` for n > 0 and
    raises for n < 0.
    """
    a = validate_symbol(a)
    if not isinstance(exponent, (int, np.integer)) or isinstance(exponent, bool):
        raise ValueError(f"exponent must be an integer, got {exponent!r}")
    exponent = int(exponent)
    if a == 0:
        if exponent == 0:
            return 1
        if exponent < 0:
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        return 0
    return int(EXP_TABLE[(LOG_TABLE[a] * exponent) % 255])


# ---------------------------------------------------------------------------
# Row arithmetic on immutable bytes rows (the coded-block hot path).
# ---------------------------------------------------------------------------


def combine_rows(rows: Sequence[bytes], scalars: Sequence[int]) -> bytes:
    """Return the linear combination ``XOR_i scalars[i] * rows[i]``.

    The coding primitive behind re-encoding: a fresh row from equal-length
    ``bytes`` *rows* and one coefficient each.  One row is one ``translate``;
    more are translated and XOR-ed as little-endian integers.
    """
    if not rows or len(rows) != len(scalars):
        raise ValueError(
            f"{len(rows)} rows and {len(scalars)} scalars do not align"
        )
    if len(rows) == 1:
        return rows[0].translate(SCALE[scalars[0]])
    total, from_bytes, tables = 0, int.from_bytes, SCALE
    for row, scalar in zip(rows, scalars):
        total ^= from_bytes(row.translate(tables[scalar]), "little")
    return total.to_bytes(len(rows[0]), "little")


# ---------------------------------------------------------------------------
# Vectorized operations on uint8 numpy arrays.
# ---------------------------------------------------------------------------

#: Reusable gather buffers for the allocation-free axpy path, keyed by
#: length.  The simulation uses a handful of vector lengths (segment sizes
#: and payload widths), so the cache stays tiny; it is cleared if it ever
#: grows past ``_SCRATCH_LIMIT`` distinct lengths.
_SCRATCH: Dict[int, Vector] = {}
_SCRATCH_LIMIT = 16


def _scratch(length: int) -> Vector:
    buffer = _SCRATCH.get(length)
    if buffer is None:
        if len(_SCRATCH) >= _SCRATCH_LIMIT:
            _SCRATCH.clear()
        buffer = np.empty(length, dtype=np.uint8)
        _SCRATCH[length] = buffer
    return buffer


def as_vector(values: VectorLike, copy: bool = True) -> Vector:
    """Coerce *values* into a ``uint8`` coefficient vector, validating range.

    With ``copy=True`` (the default) the result always owns its memory, so
    callers may mutate it freely.  ``copy=False`` returns ``uint8`` ndarray
    inputs as-is — the zero-copy fast path for read-only callers such as
    the incremental decoder, which copies during reduction anyway.
    """
    array: npt.NDArray[np.generic]
    if isinstance(values, np.ndarray):
        array = values
    elif isinstance(values, (list, tuple)):
        array = np.asarray(values)
    else:
        array = np.asarray(list(values))
    if array.dtype == np.uint8:
        if copy:
            return array.copy()
        return cast(Vector, array)
    if array.size and (array.min() < 0 or array.max() > 255):
        raise ValueError("GF(256) vector entries must lie in [0, 255]")
    coerced: Vector = array.astype(np.uint8)  # astype always copies here
    return coerced


def as_row(values: VectorLike) -> bytes:
    """*values* as one ``bytes`` row, validated by :func:`as_vector`."""
    vector = as_vector(values, copy=False)
    if vector.ndim != 1:
        raise ValueError(f"expected one row of bytes, got shape {vector.shape}")
    return vector.tobytes()


def vec_add(a: Vector, b: Vector) -> Vector:
    """Element-wise field addition of two uint8 arrays."""
    result: Vector = np.bitwise_xor(a, b)
    return result


def vec_scale(vector: Vector, scalar: int, out: Optional[Vector] = None) -> Vector:
    """Multiply every entry of *vector* by the field scalar *scalar*.

    A single gather through the scalar's :data:`MUL_TABLE` row; ``out``
    (which must not alias *vector*) receives the result in place.
    """
    scalar = validate_symbol(scalar)
    row = MUL_TABLE[scalar]
    if out is None:
        result: Vector = row[vector]
        return result
    # mode='clip' skips bounds checking; uint8 indices into a 256-entry
    # table row are always in range.
    row.take(vector, out=out, mode="clip")
    return out


def vec_addmul(accumulator: Vector, vector: Vector, scalar: int) -> None:
    """In-place ``accumulator ^= scalar * vector`` (the axpy of GF(256)).

    One table gather into a reused scratch buffer plus one in-place XOR —
    no temporaries are allocated for 1-d operands.
    """
    if accumulator.shape != vector.shape:
        raise ValueError(
            f"shape mismatch: accumulator {accumulator.shape} vs vector {vector.shape}"
        )
    scalar = validate_symbol(scalar)
    if scalar == 0:
        return  # adds the zero vector
    row = MUL_TABLE[scalar]
    if vector.ndim == 1:
        buffer = _scratch(vector.shape[0])
        # mode='clip' skips bounds checking; uint8 indices into a 256-entry
        # table row are always in range.
        row.take(vector, out=buffer, mode="clip")
        np.bitwise_xor(accumulator, buffer, out=accumulator)
    else:
        np.bitwise_xor(accumulator, row[vector], out=accumulator)


def rows_addmul(rows: Vector, vector: Vector, scalars: Vector) -> None:
    """Batched row update: ``rows[i] ^= scalars[i] * vector`` for every i.

    The outer-product gather used for Gauss-Jordan back-elimination: one
    new pivot row is folded into all stored rows in a single pass, as one
    ``take`` on ``(scalar << 8) | value`` through the flat table
    (``MUL_TABLE[scalars[:, None], vector]`` is the same bytes, slower).
    """
    if rows.ndim != 2 or rows.shape[0] != scalars.shape[0]:
        raise ValueError(
            f"rows {rows.shape} and scalars {scalars.shape} do not align"
        )
    if rows.shape[1] != vector.shape[0]:
        raise ValueError(f"rows {rows.shape} do not match vector {vector.shape}")
    if not scalars.any():
        return
    products = _FLAT_TABLE.take(
        np.bitwise_or(_ROW_START[scalars], vector), mode="clip"
    )
    np.bitwise_xor(rows, products, out=rows)


def vec_mul(a: Vector, b: Vector) -> Vector:
    """Element-wise field multiplication of two uint8 arrays."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    result: Vector = MUL_TABLE[a, b]
    return result


def mat_vec(matrix: Vector, vector: Vector) -> Vector:
    """GF(256) matrix-vector product (rows of *matrix* dot *vector*)."""
    matrix = np.atleast_2d(matrix)
    if matrix.shape[1] != vector.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix {matrix.shape} x vector {vector.shape}"
        )
    if matrix.shape[1] == 0:
        return np.zeros(matrix.shape[0], dtype=np.uint8)
    products = MUL_TABLE[matrix, vector[None, :]]
    result: Vector = np.bitwise_xor.reduce(products, axis=1)
    return result


#: Element budget for one mat_mul broadcast; larger products are chunked
#: over the contraction axis to bound peak memory at ~4 MiB per step.
_MAT_MUL_CHUNK_ELEMS = 1 << 22


def mat_mul(a: Vector, b: Vector) -> Vector:
    """GF(256) matrix-matrix product."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    m, k = a.shape
    p = b.shape[1]
    out = np.zeros((m, p), dtype=np.uint8)
    if k == 0:
        return out
    step = max(1, _MAT_MUL_CHUNK_ELEMS // max(1, m * p))
    for start in range(0, k, step):
        stop = min(k, start + step)
        products = MUL_TABLE[a[:, start:stop, None], b[None, start:stop, :]]
        np.bitwise_xor(
            out, np.bitwise_xor.reduce(products, axis=1), out=out
        )
    return out
