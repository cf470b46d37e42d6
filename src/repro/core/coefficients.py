"""Regression coefficient sets used by the analytical models.

The paper's framework relies on four regression models.  Their published
coefficients (Eqs. 3, 10, 12, 21) are shipped verbatim as
``CoefficientSet.paper()``.  Because we validate against a *simulated*
testbed rather than the authors' physical one, the framework can also
re-calibrate the same regression forms against the synthetic measurement
campaign (``CoefficientSet.calibrated()``) — this mirrors exactly what the
paper did against its own testbed and is what the figure-reproduction
harness uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.cnn.complexity import CNNComplexityModel
from repro.core.numeric import ArrayLike, any_true
from repro.exceptions import ModelDomainError


@dataclass(frozen=True)
class QuadraticBlend:
    """A CPU/GPU blended quadratic response (the Eq. 3 / Eq. 21 form).

    ``value = w_c * (a0 + a1 f_c + a2 f_c^2) + (1 - w_c) * (b0 + b1 f_g + b2 f_g^2)``

    The clocks may be floats or aligned arrays.  The square is ``f * f``, not
    ``f ** 2``: NumPy squares an array exactly, while ``float ** 2`` calls the
    C library's ``pow``, which can differ in the last bit.

    Attributes:
        cpu: (intercept, linear, quadratic) coefficients in the CPU clock.
        gpu: (intercept, linear, quadratic) coefficients in the GPU clock.
    """

    cpu: Tuple[float, float, float]
    gpu: Tuple[float, float, float]

    def cpu_component(self, cpu_freq_ghz: ArrayLike) -> ArrayLike:
        """Evaluate the CPU polynomial."""
        a0, a1, a2 = self.cpu
        return a0 + a1 * cpu_freq_ghz + a2 * (cpu_freq_ghz * cpu_freq_ghz)

    def gpu_component(self, gpu_freq_ghz: ArrayLike) -> ArrayLike:
        """Evaluate the GPU polynomial."""
        b0, b1, b2 = self.gpu
        return b0 + b1 * gpu_freq_ghz + b2 * (gpu_freq_ghz * gpu_freq_ghz)

    def evaluate(
        self, cpu_freq_ghz: ArrayLike, gpu_freq_ghz: ArrayLike, cpu_share: float
    ) -> ArrayLike:
        """Evaluate the blended response at an operating point (or aligned points)."""
        if not 0.0 <= cpu_share <= 1.0:
            raise ModelDomainError(f"cpu share must be in [0, 1], got {cpu_share}")
        if any_true(cpu_freq_ghz <= 0.0) or any_true(gpu_freq_ghz <= 0.0):
            raise ModelDomainError(
                f"clock frequencies must be > 0, got cpu={cpu_freq_ghz}, gpu={gpu_freq_ghz}"
            )
        return cpu_share * self.cpu_component(cpu_freq_ghz) + (
            1.0 - cpu_share
        ) * self.gpu_component(gpu_freq_ghz)

    @classmethod
    def from_flat(cls, coefficients) -> "QuadraticBlend":
        """Build from a flat 6-vector ``[a0, a1, a2, b0, b1, b2]``."""
        values = [float(c) for c in coefficients]
        if len(values) != 6:
            raise ModelDomainError(
                f"a quadratic blend needs 6 coefficients, got {len(values)}"
            )
        return cls(cpu=(values[0], values[1], values[2]), gpu=(values[3], values[4], values[5]))


@dataclass(frozen=True)
class EncodingCoefficients:
    """Coefficients of the frame-encoding latency regression (Eq. 10).

    The encoding latency is ``numerator / c_client + delta_f1 / m_client``
    where the numerator is a linear function of the encoder parameters.

    Attributes map one-to-one to the paper's regression terms.
    """

    intercept: float
    i_frame_interval: float
    b_frame_count: float
    bitrate_mbps: float
    frame_side_px: float
    frame_rate_fps: float
    quantization: float

    def numerator(
        self,
        i_frame_interval: float,
        b_frame_count: float,
        bitrate_mbps: ArrayLike,
        frame_side_px: ArrayLike,
        frame_rate_fps: float,
        quantization: float,
    ) -> ArrayLike:
        """Evaluate the encoding workload numerator (per point on aligned arrays).

        Raises:
            ModelDomainError: if the numerator is non-positive at some point,
                which means the encoder configuration lies outside the
                regression's valid domain.
        """
        value = (
            self.intercept
            + self.i_frame_interval * i_frame_interval
            + self.b_frame_count * b_frame_count
            + self.bitrate_mbps * bitrate_mbps
            + self.frame_side_px * frame_side_px
            + self.frame_rate_fps * frame_rate_fps
            + self.quantization * quantization
        )
        if any_true(value <= 0.0):
            raise ModelDomainError(
                "encoding regression evaluated to a non-positive workload "
                f"({np.min(value):.2f}); the encoder configuration is outside the "
                "model domain"
            )
        return value

    @classmethod
    def from_flat(cls, coefficients) -> "EncodingCoefficients":
        """Build from a flat 7-vector in the Eq. 10 term order."""
        values = [float(c) for c in coefficients]
        if len(values) != 7:
            raise ModelDomainError(
                f"the encoding regression needs 7 coefficients, got {len(values)}"
            )
        return cls(*values)


#: The paper's published Eq. (3) coefficients (compute resource).
PAPER_RESOURCE_BLEND = QuadraticBlend(
    cpu=(18.24, -6.02, 1.84), gpu=(193.67, -558.29, 400.96)
)

#: The paper's published Eq. (21) coefficients (mean power, W).
PAPER_POWER_BLEND = QuadraticBlend(
    cpu=(-20.74, 18.85, -3.64), gpu=(-62.197, 187.48, -135.11)
)

#: The paper's published Eq. (10) coefficients (encoding latency).
PAPER_ENCODING = EncodingCoefficients(
    intercept=-574.36,
    i_frame_interval=-7.71,
    b_frame_count=142.61,
    bitrate_mbps=53.38,
    frame_side_px=1.43,
    frame_rate_fps=163.65,
    quantization=3.62,
)

#: R^2 values the paper reports for its regressions.
PAPER_R_SQUARED: Dict[str, float] = {
    "compute_resource": 0.87,
    "mean_power": 0.863,
    "encoding_latency": 0.79,
    "cnn_complexity": 0.844,
}


@dataclass(frozen=True)
class CoefficientSet:
    """All regression coefficients the analytical framework consumes.

    Attributes:
        resource: compute-resource blend (Eq. 3).
        power: mean-power blend (Eq. 21).
        encoding: encoding-latency coefficients (Eq. 10).
        cnn_complexity: CNN complexity model (Eq. 12).
        decode_discount: decoding-to-encoding latency ratio ``gamma`` (Eq. 14).
        edge_compute_scale: edge-to-client compute ratio (the paper measures
            ``c_epsilon = 11.76 c_client``).
        r_squared: fit quality of each regression.
        source: provenance of the coefficients (``"paper"`` or ``"calibrated"``).
    """

    resource: QuadraticBlend = PAPER_RESOURCE_BLEND
    power: QuadraticBlend = PAPER_POWER_BLEND
    encoding: EncodingCoefficients = PAPER_ENCODING
    cnn_complexity: CNNComplexityModel = field(default_factory=CNNComplexityModel.paper)
    decode_discount: float = 1.0 / 3.0
    edge_compute_scale: float = 11.76
    r_squared: Mapping[str, float] = field(default_factory=lambda: dict(PAPER_R_SQUARED))
    source: str = "paper"

    def __post_init__(self) -> None:
        if not 0.0 < self.decode_discount <= 1.0:
            raise ModelDomainError(
                f"decode discount must be in (0, 1], got {self.decode_discount}"
            )
        if self.edge_compute_scale <= 0.0:
            raise ModelDomainError(
                f"edge compute scale must be > 0, got {self.edge_compute_scale}"
            )

    @classmethod
    def paper(cls) -> "CoefficientSet":
        """The coefficient set published in the paper (Eqs. 3, 10, 12, 21)."""
        return cls()

    @classmethod
    def from_campaign_fits(cls, fits, **overrides) -> "CoefficientSet":
        """Build a coefficient set from synthetic-campaign regression fits.

        Args:
            fits: a :class:`repro.measurement.synthetic.CampaignFits` instance.
            **overrides: optional field overrides (e.g. ``decode_discount``).
        """
        r2 = {
            "compute_resource": fits.resource.r_squared_train,
            "mean_power": fits.power.r_squared_train,
            "encoding_latency": fits.encoding.r_squared_train,
            "cnn_complexity": fits.complexity.r_squared_train,
            "compute_resource_test": fits.resource.r_squared_test,
            "mean_power_test": fits.power.r_squared_test,
            "encoding_latency_test": fits.encoding.r_squared_test,
            "cnn_complexity_test": fits.complexity.r_squared_test,
        }
        base = cls(
            resource=QuadraticBlend.from_flat(fits.resource.coefficients),
            power=QuadraticBlend.from_flat(fits.power.coefficients),
            encoding=EncodingCoefficients.from_flat(fits.encoding.coefficients),
            cnn_complexity=CNNComplexityModel.from_coefficients(
                fits.complexity.coefficients, r_squared=fits.complexity.r_squared_train
            ),
            r_squared=r2,
            source="calibrated",
        )
        if overrides:
            base = replace(base, **overrides)
        return base


# ---------------------------------------------------------------------------
# Calibration cache
# ---------------------------------------------------------------------------

_CALIBRATION_CACHE: Dict[Tuple[int, int], CoefficientSet] = {}


def calibrated_coefficients(
    n_samples: int = 6000, seed: int = 2024, force_refit: bool = False
) -> CoefficientSet:
    """Coefficients re-fitted against the synthetic measurement campaign.

    This is the coefficient set the figure-reproduction harness uses: the
    regression *forms* are the paper's, but the constants are calibrated to
    the simulated testbed, exactly as the paper calibrated its constants to
    the physical testbed.  The two constants the campaign does not fit,
    ``decode_discount`` and ``edge_compute_scale``, are read from the
    campaign's truth, whose values equal the paper's published 1/3 (Eq. 14)
    and 11.76, so they hand the model nothing the paper did not publish; a
    truth that moved away from those values would leak its hidden constants
    into the calibrated model.  Results are cached per (n_samples, seed).

    Args:
        n_samples: number of synthetic measurement samples.
        seed: campaign RNG seed.
        force_refit: bypass the in-process cache.
    """
    key = (int(n_samples), int(seed))
    if not force_refit and key in _CALIBRATION_CACHE:
        return _CALIBRATION_CACHE[key]
    from repro.measurement.synthetic import CampaignConfig, SyntheticCampaign

    campaign = SyntheticCampaign(CampaignConfig(n_samples=n_samples, seed=seed))
    fits = campaign.fit()
    coefficients = CoefficientSet.from_campaign_fits(
        fits,
        decode_discount=campaign.truth.decode_discount,
        edge_compute_scale=campaign.truth.edge_compute_scale,
    )
    _CALIBRATION_CACHE[key] = coefficients
    return coefficients
