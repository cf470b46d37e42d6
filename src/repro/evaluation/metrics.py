"""Error and accuracy metrics used in the paper's evaluation (Section VIII).

The paper reports two kinds of numbers:

* **mean error** of a model against the ground truth, in percent (2.74 % /
  3.23 % for latency, 3.52 % / 5.38 % for energy),
* **normalized accuracy**, where the ground truth is 100 % and a model's
  accuracy is reduced by its relative deviation (Fig. 5).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_arrays(predictions: Sequence[float], truths: Sequence[float]):
    predicted = np.asarray(predictions, dtype=float)
    truth = np.asarray(truths, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError(
            f"shape mismatch: predictions {predicted.shape} vs truths {truth.shape}"
        )
    if predicted.size == 0:
        raise ValueError("metrics need at least one (prediction, truth) pair")
    if np.any(truth <= 0.0):
        raise ValueError("ground-truth values must be strictly positive")
    return predicted, truth


def mean_absolute_percentage_error(
    predictions: Sequence[float], truths: Sequence[float]
) -> float:
    """Mean absolute percentage error (in percent) of predictions vs ground truth."""
    predicted, truth = _as_arrays(predictions, truths)
    return float(np.mean(np.abs(predicted - truth) / truth) * 100.0)


def mean_error_percent(predictions: Sequence[float], truths: Sequence[float]) -> float:
    """Alias of :func:`mean_absolute_percentage_error` matching the paper's wording."""
    return mean_absolute_percentage_error(predictions, truths)


def normalized_accuracy(prediction: float, truth: float) -> float:
    """Normalized accuracy (percent) of one prediction against the ground truth.

    The ground truth itself scores 100 %; a prediction deviating by x % of the
    ground truth scores ``100 - x`` (floored at 0).
    """
    if truth <= 0.0:
        raise ValueError(f"ground truth must be > 0, got {truth}")
    deviation = abs(prediction - truth) / truth * 100.0
    return float(max(0.0, 100.0 - deviation))


def relative_error(prediction: float, truth: float) -> float:
    """Unsigned relative error of one prediction (fraction, not percent)."""
    if truth <= 0.0:
        raise ValueError(f"ground truth must be > 0, got {truth}")
    return abs(prediction - truth) / truth
