"""Unit tests for the configuration validation helpers."""

import numpy as np
import pytest

from repro.adaptive import GreedyBatchSweep, make_trace
from repro.config import validation
from repro.config.application import ApplicationConfig
from repro.cosim import run_cosim
from repro.exceptions import ConfigurationError
from repro.fleet import FleetAnalyzer, homogeneous, mixed_devices, plan_capacity, plan_edges


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


class TestEnsureInteger:
    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, "2"])
    def test_rejects_bools_floats_and_strings(self, value):
        with pytest.raises(ConfigurationError, match="x must be an integer"):
            validation.ensure_integer("x", value)


def _cosim(**kwargs):
    return run_cosim(homogeneous(2), GreedyBatchSweep(), make_trace("step", 2), **kwargs)


#: Entry points that take a count, each called with ``True`` for it, by the
#: field the error names.  ``operator.index(True)`` is 1, so a bool would
#: otherwise pass as one user, edge, shard or update.
BOOL_COUNTS = {
    "n_users": lambda: homogeneous(True),
    "n_users (mixed)": lambda: mixed_devices(True),
    "n_edges (fleet)": lambda: FleetAnalyzer(homogeneous(2), n_edges=True),
    "n_edges (cosim)": lambda: _cosim(n_edges=True),
    "n_shards": lambda: _cosim(n_shards=True),
    "sensor_updates_per_frame": lambda: ApplicationConfig(sensor_updates_per_frame=True),
    "n_edges (capacity)": lambda: plan_capacity(n_edges=True),
    "max_users": lambda: plan_capacity(max_users=True),
    "max_edges": lambda: plan_edges(max_edges=True),
}


@pytest.mark.parametrize("field", sorted(BOOL_COUNTS))
def test_a_bool_count_is_rejected_naming_its_field(field):
    name = field.split(" ")[0]
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer, got True"):
        BOOL_COUNTS[field]()


def test_capacity_plan_records_its_validated_ceiling():
    plan = plan_capacity(device="XR1", slo_ms=800.0, max_users=np.int64(4))
    assert plan.search_ceiling == 4
    assert type(plan.search_ceiling) is int
