"""Unit and property-based tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.coding import gf256
from tests import gf256_oracle as oracle

symbols = st.integers(min_value=0, max_value=255)
nonzero_symbols = st.integers(min_value=1, max_value=255)


class TestTables:
    def test_exp_table_cycles_at_255(self):
        assert gf256.EXP_TABLE[0] == 1
        assert gf256.EXP_TABLE[255] == gf256.EXP_TABLE[0]

    def test_log_exp_roundtrip(self):
        for value in range(1, 256):
            assert gf256.EXP_TABLE[gf256.LOG_TABLE[value]] == value

    def test_exp_log_roundtrip(self):
        for power in range(255):
            assert gf256.LOG_TABLE[gf256.EXP_TABLE[power]] == power

    def test_exp_values_are_field_elements(self):
        assert gf256.EXP_TABLE[:255].min() >= 1
        assert gf256.EXP_TABLE[:255].max() <= 255

    def test_exp_values_distinct(self):
        assert len(set(int(v) for v in gf256.EXP_TABLE[:255])) == 255


class TestScalarOps:
    def test_add_is_xor(self):
        assert gf256.add(0b1010, 0b0110) == 0b1100

    def test_sub_equals_add(self):
        assert gf256.sub(200, 77) == gf256.add(200, 77)

    def test_mul_by_zero(self):
        assert gf256.mul(0, 123) == 0
        assert gf256.mul(123, 0) == 0

    def test_mul_by_one(self):
        for value in (1, 2, 77, 255):
            assert gf256.mul(1, value) == value

    def test_known_product(self):
        # 0x53 * 0xCA = 0x01 in the AES field (classic test vector).
        assert gf256.mul(0x53, 0xCA) == 0x01

    def test_inv_of_known_pair(self):
        assert gf256.inv(0x53) == 0xCA

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gf256.div(5, 0)

    def test_div_zero_numerator(self):
        assert gf256.div(0, 7) == 0

    def test_power_zero_exponent(self):
        assert gf256.power(17, 0) == 1
        assert gf256.power(0, 0) == 1

    def test_power_of_zero(self):
        assert gf256.power(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            gf256.power(0, -1)

    def test_power_matches_repeated_mul(self):
        value = 1
        for exponent in range(1, 10):
            value = gf256.mul(value, 0x1D)
            assert gf256.power(0x1D, exponent) == value

    def test_power_negative(self):
        assert gf256.power(7, -1) == gf256.inv(7)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gf256.add(256, 0)
        with pytest.raises(ValueError):
            gf256.mul(-1, 3)
        with pytest.raises(ValueError):
            gf256.validate_symbol(1.5)
        with pytest.raises(ValueError):
            gf256.validate_symbol(True)


class TestFieldAxioms:
    @given(symbols, symbols)
    def test_add_commutative(self, a, b):
        assert gf256.add(a, b) == gf256.add(b, a)

    @given(symbols, symbols)
    def test_mul_commutative(self, a, b):
        assert gf256.mul(a, b) == gf256.mul(b, a)

    @given(symbols, symbols, symbols)
    def test_mul_associative(self, a, b, c):
        assert gf256.mul(gf256.mul(a, b), c) == gf256.mul(a, gf256.mul(b, c))

    @given(symbols, symbols, symbols)
    def test_distributive(self, a, b, c):
        left = gf256.mul(a, gf256.add(b, c))
        right = gf256.add(gf256.mul(a, b), gf256.mul(a, c))
        assert left == right

    @given(nonzero_symbols)
    def test_inverse_cancels(self, a):
        assert gf256.mul(a, gf256.inv(a)) == 1

    @given(symbols, nonzero_symbols)
    def test_div_is_mul_by_inverse(self, a, b):
        assert gf256.div(a, b) == gf256.mul(a, gf256.inv(b))

    @given(symbols)
    def test_additive_self_inverse(self, a):
        assert gf256.add(a, a) == 0


class TestVectorOps:
    def test_as_vector_validates_range(self):
        with pytest.raises(ValueError):
            gf256.as_vector([0, 300])

    def test_as_vector_copies(self):
        source = np.array([1, 2, 3], dtype=np.uint8)
        out = gf256.as_vector(source)
        out[0] = 99
        assert source[0] == 1

    def test_vec_scale_zero_scalar(self):
        a = gf256.as_vector([5, 6, 7])
        assert not gf256.vec_scale(a, 0).any()

    def test_vec_scale_one_scalar_copies(self):
        a = gf256.as_vector([5, 6, 7])
        out = gf256.vec_scale(a, 1)
        assert list(out) == [5, 6, 7]
        out[0] = 0
        assert a[0] == 5

    @given(st.lists(symbols, min_size=1, max_size=16), nonzero_symbols)
    def test_vec_scale_matches_scalar_mul(self, values, scalar):
        vector = gf256.as_vector(values)
        scaled = gf256.vec_scale(vector, scalar)
        for index, value in enumerate(values):
            assert scaled[index] == gf256.mul(value, scalar)

    @given(st.lists(symbols, min_size=1, max_size=12), symbols)
    def test_vec_addmul_matches_manual(self, values, scalar):
        accumulator = gf256.as_vector(values)
        vector = gf256.as_vector(list(reversed(values)))
        expected = [
            gf256.add(a, gf256.mul(v, scalar))
            for a, v in zip(values, reversed(values))
        ]
        oracle.vec_addmul(accumulator, vector, scalar)
        assert list(accumulator) == expected

    def test_vec_addmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            oracle.vec_addmul(
                gf256.as_vector([1, 2]), gf256.as_vector([1, 2, 3]), 1
            )

    def test_vec_mul_elementwise(self):
        a = gf256.as_vector([0x53, 0, 1])
        b = gf256.as_vector([0xCA, 5, 9])
        assert list(oracle.vec_mul(a, b)) == [1, 0, 9]

    def test_mat_vec_identity(self):
        identity = np.eye(3, dtype=np.uint8)
        vector = gf256.as_vector([9, 8, 7])
        assert list(oracle.mat_vec(identity, vector)) == [9, 8, 7]

    def test_mat_vec_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracle.mat_vec(np.eye(3, dtype=np.uint8), gf256.as_vector([1, 2]))

    def test_mat_mul_identity(self):
        rng = np.random.default_rng(0)
        matrix = rng.integers(0, 256, size=(4, 4), dtype=np.uint8)
        identity = np.eye(4, dtype=np.uint8)
        assert np.array_equal(oracle.mat_mul(matrix, identity), matrix)
        assert np.array_equal(oracle.mat_mul(identity, matrix), matrix)

    @given(st.integers(0, 2**32 - 1))
    def test_mat_mul_associates_with_mat_vec(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
        b = rng.integers(0, 256, size=(3, 3), dtype=np.uint8)
        v = rng.integers(0, 256, size=3, dtype=np.uint8)
        left = oracle.mat_vec(oracle.mat_mul(a, b), v)
        right = oracle.mat_vec(a, oracle.mat_vec(b, v))
        assert np.array_equal(left, right)
