"""Shared utilities: randomized sets, validation, tables, summary statistics."""

from repro.util.randomset import RandomizedSet
from repro.util.summary import mean
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

__all__ = [
    "RandomizedSet",
    "mean",
    "format_cell",
    "render_series",
    "render_table",
    "require_in_range",
    "require_nonnegative",
    "require_nonnegative_int",
    "require_positive",
    "require_positive_int",
    "require_probability",
    "require_rate",
]
