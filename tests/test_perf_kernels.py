"""Equivalence tests for the flat-table GF(256) kernels and the rewritten
incremental decoder.

The hot-path overhaul (mul-table kernels, preallocated decoder, batched
elimination) must be *behaviourally invisible*: every kernel agrees with the
scalar field arithmetic, and the rewritten :class:`IncrementalDecoder`
produces identical innovation verdicts, ranks, coefficient matrices, and
decoded payloads to a straightforward reference implementation on random
block streams — including payload-free and singular cases.  (A stream whose
blocks only sometimes carry a payload is refused: ``test_coded_rows.py``.)
"""

import random

import numpy as np
import pytest

from repro.coding import gf256
from repro.coding.gf256 import MUL_TABLE
from repro.coding.linalg import IncrementalDecoder, rank, rref
from tests import gf256_oracle as oracle


class TestMulTable:
    def test_exhaustive_agreement_with_scalar_mul(self):
        """All 65536 entries match the log/exp-table scalar multiply."""
        a = np.arange(256, dtype=np.uint8)
        expected = np.array(
            [[gf256.mul(int(x), int(y)) for y in a] for x in a], dtype=np.uint8
        )
        assert np.array_equal(MUL_TABLE, expected)

    def test_zero_row_and_column(self):
        assert not MUL_TABLE[0].any()
        assert not MUL_TABLE[:, 0].any()

    def test_identity_row(self):
        assert np.array_equal(MUL_TABLE[1], np.arange(256, dtype=np.uint8))

    def test_symmetry(self):
        assert np.array_equal(MUL_TABLE, MUL_TABLE.T)


class TestKernelsAgainstScalarOps:
    def setup_method(self):
        self.rng = np.random.default_rng(1234)

    def _vec(self, n):
        return self.rng.integers(0, 256, size=n, dtype=np.uint8)

    def test_vec_scale_matches_scalar(self):
        vector = self._vec(257)
        for scalar in (0, 1, 2, 0x53, 255):
            expected = np.array(
                [gf256.mul(int(v), scalar) for v in vector], dtype=np.uint8
            )
            assert np.array_equal(gf256.vec_scale(vector, scalar), expected)

    def test_vec_scale_out_parameter(self):
        vector = self._vec(64)
        out = np.empty(64, dtype=np.uint8)
        result = gf256.vec_scale(vector, 7, out=out)
        assert result is out
        assert np.array_equal(out, gf256.vec_scale(vector, 7))

    def test_vec_addmul_matches_scalar(self):
        for scalar in (0, 1, 5, 254):
            acc = self._vec(100)
            vector = self._vec(100)
            expected = np.array(
                [
                    int(a) ^ gf256.mul(int(v), scalar)
                    for a, v in zip(acc, vector)
                ],
                dtype=np.uint8,
            )
            oracle.vec_addmul(acc, vector, scalar)
            assert np.array_equal(acc, expected)

    def test_vec_addmul_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle.vec_addmul(self._vec(4), self._vec(5), 1)

    def test_vec_mul_matches_scalar(self):
        a, b = self._vec(300), self._vec(300)
        expected = np.array(
            [gf256.mul(int(x), int(y)) for x, y in zip(a, b)], dtype=np.uint8
        )
        assert np.array_equal(oracle.vec_mul(a, b), expected)

    def test_rows_addmul_matches_loop(self):
        rows = self.rng.integers(0, 256, size=(7, 33), dtype=np.uint8)
        expected = rows.copy()
        vector = self._vec(33)
        scalars = self._vec(7)
        for index in range(7):
            oracle.vec_addmul(expected[index], vector, int(scalars[index]))
        gf256.rows_addmul(rows, vector, scalars)
        assert np.array_equal(rows, expected)

    def test_combine_rows_matches_loop(self):
        """Bytes rows against the numpy axpy, for one row (the ``translate``
        path) and many, with zero scalars and zero rows among them."""
        for count in (1, 2, 5, 20):
            rows = self.rng.integers(0, 256, size=(count, 21), dtype=np.uint8)
            scalars = self._vec(count)
            rows[-1] = 0
            if count > 1:
                scalars[0] = 0
            expected = np.zeros(21, dtype=np.uint8)
            for row, scalar in zip(rows, scalars):
                oracle.vec_addmul(expected, row, int(scalar))
            combined = gf256.combine_rows(
                [row.tobytes() for row in rows], scalars.tobytes()
            )
            assert type(combined) is bytes and combined == expected.tobytes()

    def test_batched_kernels_reject_misaligned_shapes(self):
        rows = self.rng.integers(0, 256, size=(3, 6), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf256.combine_rows([row.tobytes() for row in rows], bytes(2))
        with pytest.raises(ValueError):
            gf256.combine_rows([], b"")
        with pytest.raises(ValueError):
            gf256.rows_addmul(rows, self._vec(5), self._vec(3))
        with pytest.raises(ValueError):
            gf256.rows_addmul(rows, self._vec(6), self._vec(4))

    def test_mat_vec_matches_scalar(self):
        matrix = self.rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
        vector = self._vec(17)
        expected = []
        for row in matrix:
            total = 0
            for x, y in zip(row, vector):
                total ^= gf256.mul(int(x), int(y))
            expected.append(total)
        assert np.array_equal(
            oracle.mat_vec(matrix, vector), np.array(expected, dtype=np.uint8)
        )

    def test_mat_mul_matches_mat_vec_columns(self):
        a = self.rng.integers(0, 256, size=(6, 11), dtype=np.uint8)
        b = self.rng.integers(0, 256, size=(11, 9), dtype=np.uint8)
        product = oracle.mat_mul(a, b)
        for col in range(9):
            assert np.array_equal(product[:, col], oracle.mat_vec(a, b[:, col]))

    def test_mat_mul_chunked_path_matches_direct(self, monkeypatch):
        """Shrinking the chunk budget must not change the product."""
        a = self.rng.integers(0, 256, size=(20, 64), dtype=np.uint8)
        b = self.rng.integers(0, 256, size=(64, 20), dtype=np.uint8)
        direct = oracle.mat_mul(a, b)
        monkeypatch.setattr(oracle, "_MAT_MUL_CHUNK_ELEMS", 512)
        assert np.array_equal(oracle.mat_mul(a, b), direct)


class _ReferenceDecoder:
    """Straightforward per-pivot-loop Gauss-Jordan decoder (the seed
    implementation's algorithm, kept deliberately naive) used as the oracle
    for the batched production decoder."""

    def __init__(self, size):
        self.size = size
        self.rows = []  # list of uint8 vectors
        self.payloads = []  # matching optional payload vectors
        self.pivot_cols = []

    def _reduce(self, vector, payload):
        vec = vector.astype(np.uint8).copy()
        data = None if payload is None else payload.astype(np.uint8).copy()
        for row_idx, pivot_col in enumerate(self.pivot_cols):
            factor = int(vec[pivot_col])
            if factor:
                for k in range(len(vec)):
                    vec[k] ^= gf256.mul(int(self.rows[row_idx][k]), factor)
                if data is not None and self.payloads[row_idx] is not None:
                    stored = self.payloads[row_idx]
                    for k in range(len(data)):
                        data[k] ^= gf256.mul(int(stored[k]), factor)
        return vec, data

    def add(self, vector, payload=None):
        vec, data = self._reduce(vector, payload)
        if not vec.any():
            return False
        pivot_col = int(np.nonzero(vec)[0][0])
        pivot_value = int(vec[pivot_col])
        if pivot_value != 1:
            inv = gf256.inv(pivot_value)
            vec = np.array(
                [gf256.mul(int(v), inv) for v in vec], dtype=np.uint8
            )
            if data is not None:
                data = np.array(
                    [gf256.mul(int(v), inv) for v in data], dtype=np.uint8
                )
        for row_idx in range(len(self.rows)):
            factor = int(self.rows[row_idx][pivot_col])
            if factor:
                for k in range(self.size):
                    self.rows[row_idx][k] ^= gf256.mul(int(vec[k]), factor)
                stored = self.payloads[row_idx]
                if stored is not None and data is not None:
                    for k in range(len(data)):
                        stored[k] ^= gf256.mul(int(data[k]), factor)
        self.rows.append(vec)
        self.payloads.append(data)
        self.pivot_cols.append(pivot_col)
        return True

    @property
    def rank(self):
        return len(self.rows)

    def coefficient_matrix(self):
        if not self.rows:
            return np.zeros((0, self.size), dtype=np.uint8)
        return np.stack(self.rows)

    def decode(self):
        if self.rank < self.size:
            raise ValueError("incomplete")
        if any(p is None for p in self.payloads):
            raise ValueError("no payloads")
        order = np.argsort(self.pivot_cols)
        return np.stack([self.payloads[i] for i in order])


def _random_stream(seed, size, payload_mode, n_blocks, span=None):
    """Generate a reproducible coded-block stream.

    *span* restricts coefficient vectors to a linear span of that many
    random basis vectors (to exercise singular/redundant streams);
    *payload_mode* is 'all' or 'none'.
    """
    rng = random.Random(seed)
    payload_len = 5

    def payload():
        if payload_mode == "none":
            return None
        return np.array(
            [rng.randrange(256) for _ in range(payload_len)], dtype=np.uint8
        )

    basis = None
    if span is not None:
        basis = [
            [rng.randrange(256) for _ in range(size)] for _ in range(span)
        ]
    stream = []
    for index in range(n_blocks):
        if basis is None:
            coeffs = np.array(
                [rng.randrange(256) for _ in range(size)], dtype=np.uint8
            )
        else:
            coeffs = np.zeros(size, dtype=np.uint8)
            for vector in basis:
                oracle.vec_addmul(
                    coeffs,
                    np.array(vector, dtype=np.uint8),
                    rng.randrange(256),
                )
        stream.append((coeffs, payload()))
    # sprinkle pathological inputs: a zero vector (with a payload, in 'all'
    # mode: what a polluted block looks like) and an exact duplicate
    stream.insert(1, (np.zeros(size, dtype=np.uint8), payload()))
    stream.append((stream[0][0].copy(), None if stream[0][1] is None else stream[0][1].copy()))
    return stream


class TestDecoderEquivalence:
    @pytest.mark.parametrize("size", [1, 3, 8, 16])
    @pytest.mark.parametrize("payload_mode", ["all", "none"])
    def test_random_streams_match_reference(self, size, payload_mode):
        for seed in range(3):
            stream = _random_stream(seed, size, payload_mode, size + 4)
            fast = IncrementalDecoder(size)
            slow = _ReferenceDecoder(size)
            for coeffs, payload in stream:
                # innovation probe must agree and stay pure
                probe = fast.would_be_innovative(coeffs.copy())
                verdict_fast = fast.add(coeffs, payload)
                verdict_slow = slow.add(coeffs, payload)
                assert probe == verdict_slow
                assert verdict_fast == verdict_slow
                assert fast.rank == slow.rank
                assert np.array_equal(
                    fast.coefficient_matrix(), slow.coefficient_matrix()
                )
            if fast.is_complete and payload_mode == "all":
                assert np.array_equal(fast.decode(), slow.decode())

    @pytest.mark.parametrize("span", [1, 2, 4])
    def test_singular_streams_match_reference(self, span):
        """Streams confined to a low-dimensional span never exceed its rank
        and agree with the reference verdict-for-verdict."""
        size = 8
        for seed in range(3):
            stream = _random_stream(seed, size, "none", 10, span=span)
            fast = IncrementalDecoder(size)
            slow = _ReferenceDecoder(size)
            for coeffs, payload in stream:
                assert fast.add(coeffs, payload) == slow.add(coeffs, payload)
            assert fast.rank == slow.rank <= span
            assert np.array_equal(
                fast.coefficient_matrix(), slow.coefficient_matrix()
            )
            with pytest.raises(ValueError, match="not decodable"):
                fast.decode()

    def test_payload_free_complete_segment_refuses_decode(self):
        fast = IncrementalDecoder(3)
        for row in np.eye(3, dtype=np.uint8):
            assert fast.add(row)
        assert fast.is_complete
        with pytest.raises(ValueError, match="carried no payloads"):
            fast.decode()

    def test_full_roundtrip_recovers_originals(self):
        rng = np.random.default_rng(7)
        size, payload_len = 12, 33
        originals = rng.integers(0, 256, size=(size, payload_len), dtype=np.uint8)
        decoder = IncrementalDecoder(size)
        while not decoder.is_complete:
            coeffs = rng.integers(0, 256, size=size, dtype=np.uint8)
            payload = oracle.mat_vec(originals.T, coeffs)
            decoder.add(coeffs, payload)
        assert np.array_equal(decoder.decode(), originals)


class TestRrefEquivalence:
    def _reference_rref(self, matrix):
        """Seed-style rref with Python pivot search and per-row axpy."""
        work = np.array(matrix, dtype=np.uint8)
        n_rows, n_cols = work.shape
        pivot_cols = []
        row = 0
        for col in range(n_cols):
            if row >= n_rows:
                break
            pivot_row = None
            for candidate in range(row, n_rows):
                if work[candidate, col]:
                    pivot_row = candidate
                    break
            if pivot_row is None:
                continue
            if pivot_row != row:
                work[[row, pivot_row]] = work[[pivot_row, row]]
            pivot_value = int(work[row, col])
            if pivot_value != 1:
                work[row] = gf256.vec_scale(work[row], gf256.inv(pivot_value))
            for other in range(n_rows):
                if other != row and work[other, col]:
                    oracle.vec_addmul(
                        work[other], work[row], int(work[other, col])
                    )
            pivot_cols.append(col)
            row += 1
        return work, pivot_cols

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 3), (3, 7), (12, 12)])
    def test_random_matrices_match_reference(self, shape):
        rng = np.random.default_rng(42)
        for trial in range(4):
            matrix = rng.integers(0, 256, size=shape, dtype=np.uint8)
            if trial % 2:
                # force rank deficiency: duplicate and zero some rows
                matrix[-1] = matrix[0]
                matrix[:, -1] = 0
            got, got_pivots = rref(matrix)
            want, want_pivots = self._reference_rref(matrix)
            assert got_pivots == want_pivots
            assert np.array_equal(got, want)
            assert rank(matrix) == len(want_pivots)
