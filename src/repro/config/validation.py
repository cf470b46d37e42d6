"""Small validation helpers shared by every configuration dataclass.

The helpers raise :class:`repro.exceptions.ConfigurationError` with a message
naming the offending field, so errors surfaced to users always point at the
exact configuration value that is wrong.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

from repro.exceptions import ConfigurationError


def ensure_integer(name: str, value: object) -> int:
    """Return ``value`` as an ``int``; NumPy integers pass, floats and bools raise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def ensure_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, otherwise raise."""
    if not value > 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def ensure_non_negative(name: str, value: float) -> float:
    """Return ``value`` if >= 0, otherwise raise (NaN raises too)."""
    if not value >= 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def ensure_finite(name: str, value: float) -> float:
    """Return ``value`` if it is neither infinite nor NaN, otherwise raise."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def ensure_fraction(name: str, value: float) -> float:
    """Return ``value`` if it lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value!r}")
    return value


def ensure_in_range(name: str, value: float, low: float, high: float) -> float:
    """Return ``value`` if it lies in the closed interval [low, high]."""
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be within [{low}, {high}], got {value!r}"
        )
    return value


def ensure_at_least(name: str, value: float, low: float) -> float:
    """Return ``value`` if it is finite and at least ``low``."""
    if not low <= value < math.inf:
        raise ConfigurationError(
            f"{name} must be finite and >= {low}, got {value!r}"
        )
    return value


def ensure_choice(name: str, value: str, choices: Iterable[str]) -> str:
    """Return ``value`` if it is one of ``choices``."""
    allowed = tuple(choices)
    if value not in allowed:
        raise ConfigurationError(
            f"{name} must be one of {allowed}, got {value!r}"
        )
    return value


def ensure_non_empty(name: str, value: Sequence) -> Sequence:
    """Return ``value`` if it contains at least one element."""
    if len(value) == 0:
        raise ConfigurationError(f"{name} must not be empty")
    return value


def ensure_sorted_positive(name: str, values: Sequence[float]) -> Sequence[float]:
    """Return ``values`` if non-empty, strictly positive and non-decreasing."""
    ensure_non_empty(name, values)
    previous = None
    for item in values:
        ensure_positive(f"{name} entries", item)
        if previous is not None and item < previous:
            raise ConfigurationError(f"{name} must be non-decreasing, got {values!r}")
        previous = item
    return values
