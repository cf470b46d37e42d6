"""Unit tests for the multiple linear regression machinery."""

import numpy as np
import pytest

from repro.exceptions import RegressionError
from repro.measurement.regression import LinearRegression, RegressionResult, r_squared


class TestRSquared:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_mean_predictor_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        predictions = np.full(3, 2.0)
        assert r_squared(y, predictions) == pytest.approx(0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(RegressionError):
            r_squared(np.array([1.0]), np.array([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(RegressionError):
            r_squared(np.array([]), np.array([]))


class TestLinearRegression:
    def _make_data(self, rng, noise=0.0, n=500):
        X = np.column_stack([np.ones(n), rng.uniform(0, 10, n), rng.uniform(-5, 5, n)])
        beta = np.array([2.0, 1.5, -0.7])
        y = X @ beta + rng.normal(0.0, noise, n)
        return X, y, beta

    def test_recovers_exact_coefficients(self, rng):
        X, y, beta = self._make_data(rng)
        result = LinearRegression(("b0", "b1", "b2")).fit(X, y)
        assert np.allclose(result.coefficients, beta)
        assert result.r_squared_train == pytest.approx(1.0)

    def test_noisy_fit_reports_sensible_r_squared(self, rng):
        X, y, _ = self._make_data(rng, noise=1.0)
        result = LinearRegression().fit(X, y)
        assert 0.8 < result.r_squared_train < 1.0

    def test_test_set_r_squared(self, rng):
        X, y, _ = self._make_data(rng, noise=0.5)
        X_test, y_test, _ = self._make_data(rng, noise=0.5, n=200)
        result = LinearRegression().fit(X, y, X_test, y_test)
        assert not np.isnan(result.r_squared_test)
        assert result.n_test == 200

    def test_coefficients_before_fit_raise(self):
        with pytest.raises(RegressionError):
            LinearRegression().coefficients

    def test_confidence_intervals_shrink_with_more_data(self, rng):
        X_small, y_small, _ = self._make_data(rng, noise=1.0, n=60)
        X_large, y_large, _ = self._make_data(rng, noise=1.0, n=6000)
        small = LinearRegression().fit(X_small, y_small)
        large = LinearRegression().fit(X_large, y_large)
        assert np.all(large.confidence_intervals < small.confidence_intervals)

    def test_underdetermined_rejected(self):
        with pytest.raises(RegressionError):
            LinearRegression().fit(np.ones((2, 3)), np.ones(2))

    def test_rank_deficient_rejected(self, rng):
        x = rng.uniform(0, 1, 100)
        X = np.column_stack([x, 2.0 * x])
        with pytest.raises(RegressionError, match="rank deficient"):
            LinearRegression().fit(X, x)

    def test_summary_mentions_feature_names(self, rng):
        X, y, _ = self._make_data(rng, noise=0.1)
        result = LinearRegression(("intercept", "slope", "other")).fit(X, y)
        assert "intercept" in result.summary()
        assert isinstance(result, RegressionResult)
