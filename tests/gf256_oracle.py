"""GF(256) vector and matrix products, for building and checking test data.

The package computes over ``bytes`` rows and needs neither the numpy axpy
nor a matrix product; the tests use these to make coded payloads
(``mat_vec(originals.T, header)``) and to check combinations, inverses and
solutions.  They gather through :data:`repro.coding.gf256.MUL_TABLE` and
XOR-reduce.
"""

import numpy as np

from repro.coding.gf256 import MUL_TABLE, Vector

#: Element budget for one mat_mul broadcast; larger products are chunked
#: over the contraction axis to bound peak memory at ~4 MiB per step.
_MAT_MUL_CHUNK_ELEMS = 1 << 22


def vec_mul(a: Vector, b: Vector) -> Vector:
    """Element-wise field multiplication of two uint8 arrays."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return MUL_TABLE[a, b]


def vec_addmul(accumulator: Vector, vector: Vector, scalar: int) -> None:
    """In-place ``accumulator ^= scalar * vector`` (the axpy of GF(256))."""
    if accumulator.shape != vector.shape:
        raise ValueError(
            f"shape mismatch: accumulator {accumulator.shape} vs vector {vector.shape}"
        )
    np.bitwise_xor(accumulator, MUL_TABLE[scalar][vector], out=accumulator)


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
    return np.bitwise_xor.reduce(products, axis=1)


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
        np.bitwise_xor(out, np.bitwise_xor.reduce(products, axis=1), out=out)
    return out
