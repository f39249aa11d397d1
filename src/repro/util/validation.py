"""Parameter validation helpers shared across the library.

Configuration mistakes in a simulator fail late and confusingly (a negative
rate quietly reverses time ordering in the event heap, for example), so every
public entry point validates its numeric inputs eagerly through these helpers
and raises :class:`ValueError` with a field name the user can act on.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

#: Exit code of a usage or configuration error (README, "Exit codes").
EXIT_USAGE = 2


def usage_error(message: object) -> int:
    """Report an invalid invocation: one ``error: …`` stderr line, exit 2.

    Every ``repro`` command turns the :class:`ValueError` the helpers below
    raise into this, so a bad knob never ends in a traceback.
    """
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def require_positive(name: str, value: float) -> float:
    """Return *value* if it is a finite number > 0, else raise ValueError."""
    _require_real(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_nonnegative(name: str, value: float) -> float:
    """Return *value* if it is a finite number >= 0, else raise ValueError."""
    _require_real(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def require_positive_int(name: str, value: int) -> int:
    """Return *value* if it is an integer >= 1, else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def require_nonnegative_int(name: str, value: int) -> int:
    """Return *value* if it is an integer >= 0, else raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_probability(name: str, value: float) -> float:
    """Return *value* if it is a finite number in [0, 1], else raise ValueError."""
    _require_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def require_rate(name: str, value: float, allow_zero: bool = False) -> float:
    """Validate a Poisson rate parameter (events per unit time)."""
    if allow_zero:
        return require_nonnegative(name, value)
    return require_positive(name, value)


def require_in_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> float:
    """Return *value* if it lies in the closed range [low, high]."""
    _require_real(name, value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")
    return float(value)


def _require_real(name: str, value: float) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
