"""Tests for validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    require_bool,
    require_in_range,
    require_int,
    require_non_negative,
    require_positive,
    require_probability,
    require_real,
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


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            require_non_negative(float("nan"), "x")


class TestRequireProbability:
    def test_accepts_bounds(self):
        assert require_probability(0.0, "p") == 0.0
        assert require_probability(1.0, "p") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            require_probability(1.5, "p")
        with pytest.raises(ValueError):
            require_probability(-0.5, "p")


class TestRequireInRange:
    def test_accepts_inside(self):
        assert require_in_range(5, 0, 10, "x") == 5

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(11, 0, 10, "x")
