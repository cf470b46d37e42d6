"""Ordinary-least-squares multiple linear regression with R^2 reporting.

The paper's modeling framework relies on multiple linear regressions wherever
an explicit analytical form is impractical (computation resource, mean power,
encoding latency, CNN complexity) and reports the fit quality as R^2 values
(0.87, 0.863, 0.79, 0.844).  This module provides the small amount of
regression machinery needed to reproduce that methodology on the synthetic
campaign: design-matrix fitting via :func:`numpy.linalg.lstsq`, R^2 on
training and held-out data, and 95% confidence intervals on the coefficients
(the paper states its models use a 95% confidence boundary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import RegressionError


def r_squared(y_true: np.ndarray, y_predicted: np.ndarray) -> float:
    """Coefficient of determination of predictions against observations."""
    y_true = np.asarray(y_true, dtype=float)
    y_predicted = np.asarray(y_predicted, dtype=float)
    if y_true.shape != y_predicted.shape:
        raise RegressionError(
            f"shape mismatch: y_true {y_true.shape} vs y_predicted {y_predicted.shape}"
        )
    if y_true.size == 0:
        raise RegressionError("cannot compute R^2 on empty arrays")
    residual = float(np.sum((y_true - y_predicted) ** 2))
    total = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if total == 0.0:
        return 1.0 if residual == 0.0 else 0.0
    return 1.0 - residual / total


@dataclass(frozen=True)
class RegressionResult:
    """Outcome of one linear regression fit.

    Attributes:
        coefficients: fitted coefficient vector (same order as the feature
            columns; includes the intercept when the design matrix had one).
        r_squared_train: R^2 on the training data.
        r_squared_test: R^2 on the held-out data (NaN if no test set given).
        confidence_intervals: per-coefficient 95% confidence half-widths.
        n_train: number of training samples.
        n_test: number of test samples.
        feature_names: optional human-readable names of the columns.
    """

    coefficients: np.ndarray
    r_squared_train: float
    r_squared_test: float
    confidence_intervals: np.ndarray
    n_train: int
    n_test: int
    feature_names: tuple[str, ...] = ()

    def summary(self) -> str:
        """Multi-line human readable summary of the fit."""
        lines = [
            f"n_train={self.n_train}, n_test={self.n_test}",
            f"R^2 (train) = {self.r_squared_train:.3f}",
        ]
        if not np.isnan(self.r_squared_test):
            lines.append(f"R^2 (test)  = {self.r_squared_test:.3f}")
        names = self.feature_names or tuple(
            f"x{i}" for i in range(len(self.coefficients))
        )
        for name, coefficient, interval in zip(
            names, self.coefficients, self.confidence_intervals
        ):
            lines.append(f"  {name:>14s} = {coefficient:+.4f} (+/- {interval:.4f})")
        return "\n".join(lines)


class LinearRegression:
    """Multiple linear regression ``y = X @ beta`` fitted by least squares.

    The design matrix is taken as-is: callers append a column of ones when
    they want an intercept (the paper's regression forms each have their own
    structure, e.g. the compute-resource model of Eq. 3 has *no* global
    intercept but CPU- and GPU-specific ones).
    """

    def __init__(self, feature_names: Sequence[str] = ()) -> None:
        self.feature_names = tuple(feature_names)
        self._coefficients: Optional[np.ndarray] = None

    @property
    def coefficients(self) -> np.ndarray:
        """Fitted coefficient vector.

        Raises:
            RegressionError: if the model has not been fitted yet.
        """
        if self._coefficients is None:
            raise RegressionError("the regression has not been fitted yet")
        return self._coefficients

    def fit(
        self,
        design_matrix: np.ndarray,
        targets: np.ndarray,
        test_design_matrix: Optional[np.ndarray] = None,
        test_targets: Optional[np.ndarray] = None,
    ) -> RegressionResult:
        """Fit the regression and report train/test R^2 and 95% intervals.

        Args:
            design_matrix: (n_samples, n_features) training design matrix.
            targets: (n_samples,) training targets.
            test_design_matrix: optional held-out design matrix.
            test_targets: optional held-out targets.

        Raises:
            RegressionError: on shape mismatches or under-determined systems.
        """
        X = np.asarray(design_matrix, dtype=float)
        y = np.asarray(targets, dtype=float)
        if X.ndim != 2:
            raise RegressionError(f"design matrix must be 2-D, got shape {X.shape}")
        if y.ndim != 1 or len(y) != X.shape[0]:
            raise RegressionError(
                f"targets must be 1-D with {X.shape[0]} entries, got shape {y.shape}"
            )
        if X.shape[0] < X.shape[1]:
            raise RegressionError(
                f"need at least {X.shape[1]} samples to fit {X.shape[1]} coefficients, "
                f"got {X.shape[0]}"
            )
        coefficients, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        if rank < X.shape[1]:
            raise RegressionError(
                f"design matrix is rank deficient (rank {rank} < {X.shape[1]} features)"
            )
        self._coefficients = coefficients

        predictions = X @ coefficients
        train_r2 = r_squared(y, predictions)

        test_r2 = float("nan")
        n_test = 0
        if test_design_matrix is not None and test_targets is not None:
            X_test = np.asarray(test_design_matrix, dtype=float)
            y_test = np.asarray(test_targets, dtype=float)
            test_r2 = r_squared(y_test, X_test @ coefficients)
            n_test = len(y_test)

        intervals = self._confidence_intervals(X, y, predictions, coefficients)
        return RegressionResult(
            coefficients=coefficients,
            r_squared_train=train_r2,
            r_squared_test=test_r2,
            confidence_intervals=intervals,
            n_train=len(y),
            n_test=n_test,
            feature_names=self.feature_names,
        )

    @staticmethod
    def _confidence_intervals(
        X: np.ndarray,
        y: np.ndarray,
        predictions: np.ndarray,
        coefficients: np.ndarray,
        confidence: float = 0.95,
    ) -> np.ndarray:
        """95% confidence half-widths of the fitted coefficients."""
        from scipy import stats  # the only SciPy use; kept off ``import repro``

        n_samples, n_features = X.shape
        dof = max(n_samples - n_features, 1)
        residual_variance = float(np.sum((y - predictions) ** 2)) / dof
        gram = X.T @ X
        try:
            covariance = residual_variance * np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            covariance = residual_variance * np.linalg.pinv(gram)
        standard_errors = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
        t_value = float(stats.t.ppf(0.5 + confidence / 2.0, dof))
        return t_value * standard_errors
