"""Tests for the utility layer: RandomizedSet, tables, summary, validation."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.randomset import RandomizedSet
from repro.util.summary import (
    Summary,
    mean,
    merge_by_key,
    percentile,
    relative_error,
    summarize,
)
from repro.util.tables import format_cell, render_series, render_table
from repro.util.validation import (
    require_in_range,
    require_nonnegative,
    require_nonnegative_int,
    require_positive,
    require_positive_int,
    require_probability,
    require_rate,
)


class TestRandomizedSet:
    def test_add_and_contains(self):
        rs = RandomizedSet()
        assert rs.add(1)
        assert not rs.add(1)
        assert 1 in rs and 2 not in rs
        assert len(rs) == 1

    def test_discard(self):
        rs = RandomizedSet([1, 2, 3])
        assert rs.discard(2)
        assert not rs.discard(2)
        assert sorted(rs) == [1, 3]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            RandomizedSet().remove(5)

    def test_sample_empty_raises(self):
        with pytest.raises(IndexError):
            RandomizedSet().sample(random.Random(0))

    def test_sample_covers_all_members(self):
        rs = RandomizedSet(list(range(10)))
        rng = random.Random(1)
        seen = {rs.sample(rng) for _ in range(500)}
        assert seen == set(range(10))

    def test_sample_roughly_uniform(self):
        rs = RandomizedSet(["a", "b", "c", "d"])
        rng = random.Random(2)
        counts = {}
        trials = 8000
        for _ in range(trials):
            counts[rs.sample(rng)] = counts.get(rs.sample(rng), 0) + 1
        for value in counts.values():
            assert abs(value / trials - 0.25) < 0.05

    def test_sample_with_numpy_generator(self):
        import numpy as np

        rs = RandomizedSet([10, 20])
        rng = np.random.default_rng(0)
        assert rs.sample(rng) in (10, 20)

    def test_bool_and_repr(self):
        assert not RandomizedSet()
        rs = RandomizedSet([1])
        assert rs
        assert "1" in repr(rs)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 20)), min_size=1, max_size=200
        )
    )
    @settings(max_examples=50)
    def test_model_based_against_builtin_set(self, operations):
        """RandomizedSet must behave exactly like a plain set under any
        sequence of add/discard operations."""
        rs = RandomizedSet()
        model = set()
        for is_add, value in operations:
            if is_add:
                assert rs.add(value) == (value not in model)
                model.add(value)
            else:
                assert rs.discard(value) == (value in model)
                model.discard(value)
            assert len(rs) == len(model)
            assert set(rs) == model


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(1.23456) == "1.2346"
        assert format_cell("x") == "x"
        assert format_cell(7) == "7"

    def test_render_table_alignment(self):
        table = render_table(["a", "bb"], [[1, 2], [30, 40]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_render_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_table_title(self):
        table = render_table(["a"], [[1]], title="Title")
        assert table.startswith("Title\n")

    def test_render_series(self):
        text = render_series("x", [1, 2], [("y", [3.0, 4.0])])
        assert "x" in text and "y" in text and "3.0000" in text

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], [("y", [3.0])])


class TestSummary:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.n == 3
        assert summary.minimum == 1.0 and summary.maximum == 3.0
        assert math.isclose(summary.std, 1.0)

    def test_summarize_single(self):
        summary = summarize([5.0])
        assert summary.std == 0.0
        assert summary.stderr == 0.0
        assert summary.ci95() == 0.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_mean(self):
        assert mean([2, 4]) == 3.0
        with pytest.raises(ValueError):
            mean([])

    def test_merge_by_key(self):
        merged = merge_by_key([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert merged["a"].mean == 2.0
        assert merged["b"].n == 1

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert math.isinf(relative_error(1.0, 0.0))

    def test_str_format(self):
        assert "n=2" in str(summarize([1.0, 2.0]))

    def test_percentile_basics(self):
        assert percentile([5.0], 50.0) == 5.0
        assert percentile([1.0, 3.0], 50.0) == 2.0
        data = [4.0, 1.0, 3.0, 2.0]  # unsorted input is fine
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 4.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestValidation:
    def test_require_positive(self):
        assert require_positive("x", 1.5) == 1.5
        for bad in (0, -1, math.nan, math.inf, "a", True, None):
            with pytest.raises(ValueError):
                require_positive("x", bad)

    def test_require_nonnegative(self):
        assert require_nonnegative("x", 0) == 0.0
        with pytest.raises(ValueError):
            require_nonnegative("x", -0.1)

    def test_require_positive_int(self):
        assert require_positive_int("x", 3) == 3
        for bad in (0, -1, 1.5, True, "3"):
            with pytest.raises(ValueError):
                require_positive_int("x", bad)

    def test_require_nonnegative_int(self):
        assert require_nonnegative_int("x", 0) == 0
        with pytest.raises(ValueError):
            require_nonnegative_int("x", -1)

    def test_require_probability(self):
        assert require_probability("p", 0.5) == 0.5
        for bad in (-0.01, 1.01):
            with pytest.raises(ValueError):
                require_probability("p", bad)

    def test_require_rate(self):
        assert require_rate("r", 2.0) == 2.0
        assert require_rate("r", 0.0, allow_zero=True) == 0.0
        with pytest.raises(ValueError):
            require_rate("r", 0.0)

    def test_require_in_range(self):
        assert require_in_range("x", 5, low=0, high=10) == 5.0
        with pytest.raises(ValueError):
            require_in_range("x", -1, low=0)
        with pytest.raises(ValueError):
            require_in_range("x", 11, high=10)

    def test_error_messages_name_the_field(self):
        with pytest.raises(ValueError, match="gossip_rate"):
            require_positive("gossip_rate", -1)
