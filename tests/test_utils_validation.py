"""Tests for validation helpers and the declared-field walker."""

import dataclasses
import re
from dataclasses import field
from typing import Mapping, Optional, Tuple

import numpy as np
import pytest

from repro.dag.task import TaskType
from repro.utils.validation import (
    boolean,
    check_fields,
    integer,
    mapping,
    member,
    one_of,
    positive,
    require_bool,
    require_int,
    require_non_negative,
    require_positive,
    require_real,
    text,
    within,
)


class TestRequireInt:
    @pytest.mark.parametrize("value", [0, 7, np.int64(3)])
    def test_accepts_integers_at_or_above_low(self, value):
        assert require_int(value, "n", 0) == value

    @pytest.mark.parametrize("value", [-1, 2.0, 2.5, True, "3", None])
    def test_rejects_what_is_not_an_int_at_or_above_low(self, value):
        with pytest.raises(ValueError, match=r"n must be an int >= 0"):
            require_int(value, "n", 0)


class TestRequireReal:
    @pytest.mark.parametrize("value", [0, 0.0, 2.5, np.float64(1.5), np.int64(3)])
    def test_accepts_finite_numbers_at_or_above_low(self, value):
        result = require_real(value, "x", 0.0)
        assert result == value and type(result) is float

    @pytest.mark.parametrize(
        "value", [-0.1, True, False, "1.0", None, float("nan"), float("inf"), -float("inf")]
    )
    def test_rejects_what_is_not_a_finite_number_at_or_above_low(self, value):
        with pytest.raises(ValueError, match=r"x must be a finite number >= 0.0"):
            require_real(value, "x", 0.0)


class TestRequireBool:
    def test_accepts_bools(self):
        assert require_bool(True, "flag") is True
        assert require_bool(False, "flag") is False

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="flag must be a bool"):
            require_bool(value, "flag")


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(0.5, "x") == 0.5

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError, match="x"):
            require_positive(0.0, "x")
        with pytest.raises(ValueError):
            require_positive(-1, "x")

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), True, "1"], ids=repr)
    def test_rejects_non_finite_numbers_bools_and_strings(self, value):
        with pytest.raises(ValueError, match=r"x must be a finite number > 0, got "):
            require_positive(value, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            require_non_negative(float("nan"), "x")


@dataclasses.dataclass(frozen=True)
class _Declared:
    count: int = field(default=1, metadata=integer(1))
    ratio: float = field(default=0.5, metadata=within(0, 1))
    load: float = field(default=1.0, metadata=within(0, 2, open_low=True))
    rate: Optional[float] = field(default=None, metadata=positive(optional=True))
    flag: bool = field(default=False, metadata=boolean())
    names: Tuple[str, ...] = field(default=("a",), metadata=text(each=True))
    kind: str = field(default="x", metadata=one_of("thing kind", ("x", "y")))
    task_type: TaskType = field(default=TaskType.LLM, metadata=member(TaskType))
    kwargs: Mapping[str, object] = field(default_factory=dict, metadata=mapping())
    undeclared: object = "anything"


class TestCheckFields:
    def test_declared_values_pass_as_they_are(self):
        declared = _Declared(ratio=1, load=2, rate=np.float64(0.5), names=["a", "b"])
        check_fields(declared)
        assert declared.ratio == 1 and type(declared.ratio) is int  # checked, never coerced
        assert declared.names == ["a", "b"]

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("count", True, "count must be an int >= 1, got True"),
            ("ratio", 1.5, "ratio must be within [0, 1], got 1.5"),
            ("ratio", float("nan"), "ratio must be within [0, 1], got nan"),
            ("load", 0, "load must be within (0, 2], got 0"),
            ("rate", float("inf"), "rate must be a finite number > 0, got inf"),
            ("flag", "no", "flag must be a bool, got 'no'"),
            ("names", "ab", "names must be a list, got 'ab'"),
            ("names", ("a", ""), "names[1] must be a non-empty str, got ''"),
            ("kind", "z", "unknown thing kind 'z': kind must be 'x' or 'y'"),
            ("task_type", "llm", "task_type must be a TaskType ('regular' or 'llm'), got 'llm'"),
            ("kwargs", None, "kwargs must be a mapping, got None"),
        ],
    )
    def test_a_failed_rule_names_the_field_and_the_value(self, name, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_fields(_Declared(**{name: value}))

    def test_a_prefix_names_the_section_and_the_error_type_is_chosen(self):
        class SectionError(ValueError):
            pass

        with pytest.raises(SectionError, match=r"^workload count must be an int >= 1, got 0$"):
            check_fields(_Declared(count=0), "workload", SectionError)
