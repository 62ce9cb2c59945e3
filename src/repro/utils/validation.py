"""Argument-validation helpers raising consistent, descriptive errors."""

from __future__ import annotations

import numbers

__all__ = [
    "require_int",
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_in_range",
]


def require_int(value: object, name: str, low: int) -> int:
    """Return ``value`` if an int (not a bool) >= ``low``, otherwise raise ``ValueError``.

    Specs arrive as JSON, where ``2.5`` and ``true`` parse fine; a count or
    seed must fail here, naming its field, not deep inside a run.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, otherwise raise ``ValueError``."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if within [0, 1], otherwise raise ``ValueError``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value!r}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if within [low, high], otherwise raise ``ValueError``."""
    if not low <= value <= high:
        raise ValueError(f"{name} must be within [{low}, {high}], got {value!r}")
    return value
