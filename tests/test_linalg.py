"""Tests for GF(2^8) linear algebra and the incremental decoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import gf256
from repro.coding.linalg import (
    IncrementalDecoder,
    invert,
    is_invertible,
    rank,
    rref,
    solve,
)
from tests import gf256_oracle as oracle


def random_matrix(seed, rows, cols):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)


class TestRref:
    def test_identity_is_fixed_point(self):
        identity = np.eye(4, dtype=np.uint8)
        reduced, pivots = rref(identity)
        assert np.array_equal(reduced, identity)
        assert pivots == [0, 1, 2, 3]

    def test_zero_matrix(self):
        reduced, pivots = rref(np.zeros((3, 3), dtype=np.uint8))
        assert not reduced.any()
        assert pivots == []

    def test_input_not_mutated(self):
        matrix = random_matrix(1, 3, 3)
        copy = matrix.copy()
        rref(matrix)
        assert np.array_equal(matrix, copy)

    def test_pivot_columns_are_unit(self):
        matrix = random_matrix(2, 4, 6)
        reduced, pivots = rref(matrix)
        for row_index, col in enumerate(pivots):
            column = reduced[:, col]
            assert column[row_index] == 1
            assert column.sum() == 1  # single nonzero entry

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rref(np.array([[300]]))


class TestRank:
    def test_rank_of_identity(self):
        assert rank(np.eye(5, dtype=np.uint8)) == 5

    def test_rank_of_duplicated_rows(self):
        row = np.array([1, 2, 3], dtype=np.uint8)
        matrix = np.stack([row, row, gf256.vec_scale(row, 7)])
        assert rank(matrix) == 1

    def test_rank_bounded_by_dims(self):
        matrix = random_matrix(3, 2, 5)
        assert rank(matrix) <= 2

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_random_square_matrices_usually_full_rank(self, seed):
        # Over GF(256) a random 4x4 matrix is singular with probability
        # ~1/255 — assert rank is never above n and sanity check det-like
        # behavior via invertibility consistency.
        matrix = random_matrix(seed, 4, 4)
        r = rank(matrix)
        assert 0 <= r <= 4
        assert is_invertible(matrix) == (r == 4)


class TestSolveInvert:
    def test_solve_identity(self):
        rhs = np.array([7, 8, 9], dtype=np.uint8)
        assert np.array_equal(solve(np.eye(3, dtype=np.uint8), rhs), rhs)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_solve_recovers_solution(self, seed):
        matrix = random_matrix(seed, 4, 4)
        if not is_invertible(matrix):
            return
        x = random_matrix(seed + 1, 4, 1)[:, 0]
        b = oracle.mat_vec(matrix, x)
        assert np.array_equal(solve(matrix, b), x)

    def test_solve_singular_raises(self):
        singular = np.zeros((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            solve(singular, np.array([1, 2], dtype=np.uint8))

    def test_solve_non_square_raises(self):
        with pytest.raises(ValueError):
            solve(np.zeros((2, 3), dtype=np.uint8), np.zeros(2, dtype=np.uint8))

    def test_solve_rhs_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve(np.eye(3, dtype=np.uint8), np.zeros(2, dtype=np.uint8))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_invert_roundtrip(self, seed):
        matrix = random_matrix(seed, 3, 3)
        if not is_invertible(matrix):
            return
        inverse = invert(matrix)
        product = oracle.mat_mul(matrix, inverse)
        assert np.array_equal(product, np.eye(3, dtype=np.uint8))

    def test_invert_singular_raises(self):
        with pytest.raises(ValueError):
            invert(np.zeros((3, 3), dtype=np.uint8))


class TestIncrementalDecoder:
    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            IncrementalDecoder(0)

    def test_unit_vectors_complete(self):
        decoder = IncrementalDecoder(3)
        for index in range(3):
            unit = np.zeros(3, dtype=np.uint8)
            unit[index] = 1
            assert decoder.add(unit)
        assert decoder.is_complete
        assert decoder.rank == 3

    def test_duplicate_is_redundant(self):
        decoder = IncrementalDecoder(3)
        vector = np.array([1, 2, 3], dtype=np.uint8)
        assert decoder.add(vector)
        assert not decoder.add(vector)
        assert not decoder.add(gf256.vec_scale(vector, 9))
        assert decoder.rank == 1

    def test_zero_vector_is_redundant(self):
        decoder = IncrementalDecoder(2)
        assert not decoder.add(np.zeros(2, dtype=np.uint8))

    def test_would_be_innovative_is_pure(self):
        decoder = IncrementalDecoder(2)
        vector = np.array([1, 1], dtype=np.uint8)
        assert decoder.would_be_innovative(vector)
        assert decoder.rank == 0
        decoder.add(vector)
        assert not decoder.would_be_innovative(vector)

    def test_shape_mismatch_raises(self):
        decoder = IncrementalDecoder(3)
        with pytest.raises(ValueError):
            decoder.add(np.zeros(2, dtype=np.uint8))

    def test_decode_without_payloads_raises(self):
        decoder = IncrementalDecoder(1)
        decoder.add(np.array([1], dtype=np.uint8))
        with pytest.raises(ValueError):
            decoder.decode()

    def test_decode_incomplete_raises(self):
        decoder = IncrementalDecoder(2)
        decoder.add(np.array([1, 0], dtype=np.uint8), np.array([5], dtype=np.uint8))
        with pytest.raises(ValueError):
            decoder.decode()

    def test_payload_length_mismatch_raises(self):
        decoder = IncrementalDecoder(2)
        decoder.add(np.array([1, 0], dtype=np.uint8), np.array([5, 6], dtype=np.uint8))
        with pytest.raises(ValueError):
            decoder.add(
                np.array([0, 1], dtype=np.uint8), np.array([5], dtype=np.uint8)
            )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_decode_recovers_originals_from_random_combinations(
        self, seed, size, payload_len
    ):
        rng = np.random.default_rng(seed)
        originals = rng.integers(0, 256, size=(size, payload_len), dtype=np.uint8)
        decoder = IncrementalDecoder(size)
        attempts = 0
        while not decoder.is_complete:
            attempts += 1
            assert attempts < 50 * size, "decoder failed to fill up"
            coeffs = rng.integers(0, 256, size=size, dtype=np.uint8)
            payload = np.zeros(payload_len, dtype=np.uint8)
            for j in range(size):
                if coeffs[j]:
                    oracle.vec_addmul(payload, originals[j], int(coeffs[j]))
            decoder.add(coeffs, payload)
        assert np.array_equal(decoder.decode(), originals)

    def test_rank_never_exceeds_size(self):
        rng = np.random.default_rng(7)
        decoder = IncrementalDecoder(4)
        for _ in range(40):
            decoder.add(rng.integers(0, 256, size=4, dtype=np.uint8))
        assert decoder.rank == 4
        assert decoder.is_complete
