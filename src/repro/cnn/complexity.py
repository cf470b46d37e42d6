"""CNN complexity model — Eq. (12) of the paper.

The complexity of a CNN model, used by the local and remote inference latency
models, is a linear regression over the model depth, storage size and depth
scaling factor::

    C_CNN = 2.45 + 0.0025 * d_CNN + 0.03 * s_CNN + 0.0029 * d_scale

with a reported R^2 of 0.844.  The coefficients can either be the paper's
published values or re-fitted from the synthetic measurement campaign
(:mod:`repro.measurement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.cnn.model import CNNModel
from repro.exceptions import ModelDomainError


@lru_cache(maxsize=4096)
def _evaluate_complexity(
    intercept: float,
    depth_coefficient: float,
    size_coefficient: float,
    scale_coefficient: float,
    depth: float,
    size_mb: float,
    depth_scale: float,
) -> float:
    """Memoized Eq. (12) evaluation (keyed by coefficients and parameters).

    The accumulation order matches the unmemoized expression, so cached and
    fresh evaluations are bit-identical.
    """
    complexity = (
        intercept
        + depth_coefficient * depth
        + size_coefficient * size_mb
        + scale_coefficient * depth_scale
    )
    if complexity <= 0.0:
        raise ModelDomainError(
            f"CNN complexity evaluated to {complexity:.4f} <= 0 for "
            f"depth={depth}, size_mb={size_mb}, depth_scale={depth_scale}"
        )
    return complexity

#: Published coefficients of Eq. (12): (intercept, depth, size_mb, depth_scale).
PAPER_COMPLEXITY_COEFFICIENTS: tuple[float, float, float, float] = (
    2.45,
    0.0025,
    0.03,
    0.0029,
)


@dataclass(frozen=True)
class CNNComplexityModel:
    """Linear complexity model ``C_CNN(depth, size, depth_scale)``.

    Attributes:
        intercept: constant term.
        depth_coefficient: weight of the layer count ``d_CNN``.
        size_coefficient: weight of the storage size ``s_CNN`` (MB).
        scale_coefficient: weight of the depth scaling factor ``d_scale``.
        r_squared: goodness of fit reported for the coefficients (for the
            paper's published values this is 0.844).
    """

    intercept: float = PAPER_COMPLEXITY_COEFFICIENTS[0]
    depth_coefficient: float = PAPER_COMPLEXITY_COEFFICIENTS[1]
    size_coefficient: float = PAPER_COMPLEXITY_COEFFICIENTS[2]
    scale_coefficient: float = PAPER_COMPLEXITY_COEFFICIENTS[3]
    r_squared: float = 0.844

    @classmethod
    def paper(cls) -> "CNNComplexityModel":
        """The model with the paper's published Eq. (12) coefficients."""
        return cls()

    @classmethod
    def from_coefficients(
        cls, coefficients: Sequence[float], r_squared: float = float("nan")
    ) -> "CNNComplexityModel":
        """Build a model from a fitted coefficient vector (intercept first)."""
        if len(coefficients) != 4:
            raise ModelDomainError(
                f"CNN complexity model needs 4 coefficients, got {len(coefficients)}"
            )
        intercept, depth_c, size_c, scale_c = (float(c) for c in coefficients)
        return cls(
            intercept=intercept,
            depth_coefficient=depth_c,
            size_coefficient=size_c,
            scale_coefficient=scale_c,
            r_squared=r_squared,
        )

    # -- evaluation ----------------------------------------------------------

    def complexity_from_parameters(
        self, depth: float, size_mb: float, depth_scale: float = 1.0
    ) -> float:
        """Evaluate ``C_CNN`` for raw (depth, size, depth-scale) parameters.

        Raises:
            ModelDomainError: if the evaluated complexity is not strictly
                positive (the inference latency model divides or multiplies by
                it, so a non-positive value signals the model left its domain).
        """
        if depth <= 0 or size_mb <= 0 or depth_scale <= 0:
            raise ModelDomainError(
                "CNN parameters must be positive: "
                f"depth={depth}, size_mb={size_mb}, depth_scale={depth_scale}"
            )
        return _evaluate_complexity(
            self.intercept,
            self.depth_coefficient,
            self.size_coefficient,
            self.scale_coefficient,
            depth,
            size_mb,
            depth_scale,
        )

    def complexity(self, model: CNNModel) -> float:
        """Evaluate ``C_CNN`` for a :class:`~repro.cnn.model.CNNModel` descriptor."""
        return self.complexity_from_parameters(
            depth=model.depth, size_mb=model.size_mb, depth_scale=model.depth_scale
        )
