"""Argument-validation helpers raising consistent, descriptive errors."""

from __future__ import annotations

import math
import numbers

__all__ = [
    "require_int",
    "require_real",
    "require_bool",
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


def require_real(value: object, name: str, low: float) -> float:
    """Return ``value`` as a float if a finite number (not a bool) >= ``low``.

    Otherwise raise ``ValueError``: JSON's ``true`` would run as 1.0, and a
    string would only fail at its first comparison, without naming its field.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value < low
    ):
        raise ValueError(f"{name} must be a finite number >= {low}, got {value!r}")
    return float(value)


def require_bool(value: object, name: str) -> bool:
    """Return ``value`` if a bool, otherwise raise ``ValueError`` (``"no"`` is truthy)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, otherwise raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, otherwise (NaN included) raise ``ValueError``."""
    if not value >= 0:
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
