"""Argument validation: declared field rules and the checks behind them.

A dataclass declares each scalar field's rule once, in its field metadata
(``count: int = field(default=1, metadata=integer(0))``), and its
``__post_init__`` calls :func:`check_fields` first.  Specs arrive as JSON,
where ``NaN``, ``Infinity``, ``true`` and ``"5"`` all parse: each must fail
here with ``"<name> must be ..., got <value!r>"``, not inside a run.  The
``require_*`` helpers check one plain argument the same way.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers
from typing import Callable, Dict, Mapping, Sequence, Type

__all__ = [
    "RULE",
    "Rule",
    "check_fields",
    "integer",
    "real",
    "positive",
    "within",
    "boolean",
    "text",
    "one_of",
    "member",
    "mapping",
    "require_int",
    "require_real",
    "require_bool",
    "require_positive",
    "require_non_negative",
]

#: The field-metadata key under which a field declares its :class:`Rule`.
RULE = "rule"


def _is_number(value: object) -> bool:
    """A finite real that is not a bool (JSON's ``true`` would run as 1.0)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def require_int(value: object, name: str, low: int) -> int:
    """Return ``value`` if an int (not a bool) >= ``low``, otherwise raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
    return value


def require_real(value: object, name: str, low: float) -> float:
    """Return ``value`` as a float if a finite number (not a bool) >= ``low``."""
    if not _is_number(value) or value < low:
        raise ValueError(f"{name} must be a finite number >= {low}, got {value!r}")
    return float(value)


def require_bool(value: object, name: str) -> bool:
    """Return ``value`` if a bool, otherwise raise ``ValueError`` (``"no"`` is truthy)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if a finite number (not a bool) > 0, otherwise raise ``ValueError``."""
    if not _is_number(value) or not value > 0:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, otherwise (NaN included) raise ``ValueError``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


# --------------------------------------------------------------------------- #
# Declared field rules
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Rule:
    """One field's declared rule: ``check(value, name)`` raises ``ValueError``.

    ``optional`` lets ``None`` through; ``each`` checks every item of a list
    or tuple instead, naming it ``name[i]``.
    """

    check: Callable[[object, str], object]
    optional: bool = False
    each: bool = False

    def apply(self, value: object, name: str) -> None:
        if value is None and self.optional:
            return
        if not self.each:
            self.check(value, name)
            return
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        for index, item in enumerate(value):
            self.check(item, f"{name}[{index}]")


def check_fields(obj: object, prefix: str = "", error: Type[Exception] = ValueError) -> None:
    """Check every field of dataclass ``obj`` that declares a :class:`Rule`.

    A field is named ``"<prefix> <field>"`` (its bare name without a prefix)
    and a failed rule raises ``error``.  Values are checked, never coerced.
    """
    for f in dataclasses.fields(obj):
        if RULE in f.metadata:
            try:
                f.metadata[RULE].apply(getattr(obj, f.name), f"{prefix} {f.name}".strip())
            except ValueError as exc:
                raise error(str(exc)) from None


def _expect(ok: Callable[[object], bool], expected: str) -> Callable[[object, str], None]:
    def check(value: object, name: str) -> None:
        if not ok(value):
            raise ValueError(f"{name} must be {expected}, got {value!r}")

    return check


def _alternatives(choices: Sequence[object]) -> str:
    """``'a', 'b' or 'c'``."""
    quoted = [repr(choice) for choice in choices]
    return " or ".join([", ".join(quoted[:-1]), quoted[-1]] if len(quoted) > 1 else quoted)


def integer(low: int, optional: bool = False) -> Dict[str, Rule]:
    return {RULE: Rule(lambda value, name: require_int(value, name, low), optional)}


def real(low: float = 0.0, optional: bool = False, each: bool = False) -> Dict[str, Rule]:
    return {RULE: Rule(lambda value, name: require_real(value, name, low), optional, each)}


def positive(optional: bool = False) -> Dict[str, Rule]:
    return {RULE: Rule(require_positive, optional)}


def within(low: float, high: float, open_low: bool = False) -> Dict[str, Rule]:
    """A finite number in ``[low, high]``, or in ``(low, high]`` if ``open_low``."""

    def ok(v: object) -> bool:
        return _is_number(v) and (low < v if open_low else low <= v) and v <= high

    return {RULE: Rule(_expect(ok, f"within {'(' if open_low else '['}{low}, {high}]"))}


def boolean() -> Dict[str, Rule]:
    return {RULE: Rule(require_bool)}


def text(optional: bool = False, each: bool = False) -> Dict[str, Rule]:
    nonempty = _expect(lambda v: isinstance(v, str) and v != "", "a non-empty str")
    return {RULE: Rule(nonempty, optional, each)}


def one_of(
    label: str, choices: Sequence[str], optional: bool = False, each: bool = False
) -> Dict[str, Rule]:
    """A str from the choice set named ``label`` (e.g. ``"job router"``)."""

    def check(value: object, name: str) -> None:
        if value not in choices:
            raise ValueError(f"unknown {label} {value!r}: {name} must be {_alternatives(choices)}")

    return {RULE: Rule(check, optional, each)}


def member(kind: Type[enum.Enum]) -> Dict[str, Rule]:
    """A member of enum ``kind``: its value (the string ``"llm"``) is not one."""
    values = _alternatives([m.value for m in kind])
    return {RULE: Rule(_expect(lambda v: isinstance(v, kind), f"a {kind.__name__} ({values})"))}


def mapping() -> Dict[str, Rule]:
    """A mapping (a JSON object); its owner checks the entries."""
    return {RULE: Rule(_expect(lambda v: isinstance(v, Mapping), "a mapping"))}
