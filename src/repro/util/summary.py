"""The two sample statistics the repo reports: a mean and a percentile.

Experiments average a metric over their seeds with :func:`mean` (summed
in the order given, so a merged parallel run matches the serial one bit
for bit); delay reports and the bench ledger read :func:`percentile`.
"""

from __future__ import annotations

import math
from typing import Sequence


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; raises :class:`ValueError` when empty."""
    values = list(samples)
    if not values:
        raise ValueError("cannot take the mean of an empty sample")
    return sum(float(v) for v in values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of *values*, q in [0, 100].

    Sorts a copy; for pre-sorted hot paths use numpy instead.  Raises
    :class:`ValueError` on empty input or q outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    data = sorted(float(v) for v in values)
    if len(data) == 1:
        return data[0]
    position = (len(data) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return data[low]
    weight = position - low
    return data[low] * (1 - weight) + data[high] * weight

