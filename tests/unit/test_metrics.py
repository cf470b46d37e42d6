"""Unit tests for the evaluation metrics."""

import pytest

from repro.evaluation.metrics import (
    mean_absolute_percentage_error,
    mean_error_percent,
    normalized_accuracy,
    relative_error,
)


class TestMAPE:
    def test_exact_predictions_have_zero_error(self):
        assert mean_absolute_percentage_error([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_known_value(self):
        # errors: 10% and 20% -> mean 15%
        assert mean_absolute_percentage_error([110.0, 80.0], [100.0, 100.0]) == pytest.approx(15.0)

    def test_symmetric_in_sign_of_error(self):
        assert mean_absolute_percentage_error([90.0], [100.0]) == pytest.approx(
            mean_absolute_percentage_error([110.0], [100.0])
        )

    def test_alias(self):
        assert mean_error_percent([110.0], [100.0]) == pytest.approx(10.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [1.0, 2.0])

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([1.0], [0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_absolute_percentage_error([], [])


class TestNormalizedAccuracy:
    def test_ground_truth_scores_100(self):
        assert normalized_accuracy(50.0, 50.0) == pytest.approx(100.0)

    def test_ten_percent_error_scores_90(self):
        assert normalized_accuracy(110.0, 100.0) == pytest.approx(90.0)

    def test_floored_at_zero(self):
        assert normalized_accuracy(500.0, 100.0) == 0.0

    def test_relative_error(self):
        assert relative_error(120.0, 100.0) == pytest.approx(0.2)

    def test_invalid_truth_rejected(self):
        with pytest.raises(ValueError):
            normalized_accuracy(1.0, 0.0)
