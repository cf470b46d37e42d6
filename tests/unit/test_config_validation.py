"""Unit tests for the configuration validation helpers."""

import pytest

from repro.config import validation
from repro.exceptions import ConfigurationError


class TestEnsurePositive:
    def test_accepts_positive(self):
        assert validation.ensure_positive("x", 3.0) == 3.0

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            validation.ensure_positive("x", 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validation.ensure_positive("x", -1.0)


class TestEnsureNonNegative:
    def test_accepts_zero(self):
        assert validation.ensure_non_negative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            validation.ensure_non_negative("x", -0.1)

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError, match="x must be >= 0"):
            validation.ensure_non_negative("x", float("nan"))


class TestEnsureFinite:
    def test_accepts_finite(self):
        assert validation.ensure_finite("x", -2.5) == -2.5

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ConfigurationError, match="x must be finite"):
            validation.ensure_finite("x", value)


class TestEnsureAtLeast:
    def test_accepts_the_bound_and_above(self):
        assert validation.ensure_at_least("x", 1.0, 1.0) == 1.0
        assert validation.ensure_at_least("x", 1e300, 1.0) == 1e300

    @pytest.mark.parametrize("value", [0.5, float("inf"), float("nan")])
    def test_rejects_below_or_non_finite(self, value):
        with pytest.raises(ConfigurationError, match="x must be finite and >= 1.0"):
            validation.ensure_at_least("x", value, 1.0)


class TestEnsureFraction:
    def test_accepts_bounds(self):
        assert validation.ensure_fraction("x", 0.0) == 0.0
        assert validation.ensure_fraction("x", 1.0) == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            validation.ensure_fraction("x", 1.01)


class TestEnsureInRange:
    def test_accepts_inside(self):
        assert validation.ensure_in_range("x", 5.0, 1.0, 10.0) == 5.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            validation.ensure_in_range("x", 11.0, 1.0, 10.0)


class TestEnsureChoice:
    def test_accepts_member(self):
        assert validation.ensure_choice("x", "b", ("a", "b")) == "b"

    def test_rejects_non_member(self):
        with pytest.raises(ConfigurationError, match="must be one of"):
            validation.ensure_choice("x", "z", ("a", "b"))


class TestEnsureSequences:
    def test_non_empty_passes(self):
        assert validation.ensure_non_empty("x", [1]) == [1]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            validation.ensure_non_empty("x", [])

    def test_sorted_positive_passes(self):
        assert validation.ensure_sorted_positive("x", (1.0, 2.0, 2.0, 3.0))

    def test_sorted_positive_rejects_decreasing(self):
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            validation.ensure_sorted_positive("x", (3.0, 1.0))

    def test_sorted_positive_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            validation.ensure_sorted_positive("x", (0.0, 1.0))
