"""Hidden response surfaces of the simulated testbed.

These functions answer "what would the physical devices actually do" for the
quantities the paper measures and then models with regressions:

* how much effective compute capability a (CPU clock, GPU clock, CPU share)
  operating point provides (the paper's ``c_client``, Eq. 3),
* how much mean power that operating point draws (Eq. 21),
* how long H.264 encoding takes for a given encoder configuration (Eq. 10),
* how complex a CNN model effectively is (Eq. 12).

Both the synthetic measurement campaign (which re-fits the paper's regression
forms) and the simulated ground-truth testbed (which the analytical models
are validated against) evaluate the *same* surfaces — mirroring the paper,
where the regressions and the ground truth both come from the same physical
devices.  The surfaces are intentionally simple, physically-monotone
functions (capability grows with clock, power grows super-linearly with
clock); they are **not** the paper's regression polynomials, so fitting those
polynomials to this truth is a genuine regression exercise with non-trivial
residuals.

The absolute scale is chosen so that the end-to-end latency and energy of the
default object-detection pipeline land in the ranges reported by the paper's
figures (hundreds of milliseconds, 600-1800 mJ per frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping

from repro.exceptions import ModelDomainError

#: Relative power draw of each pipeline segment with respect to the mean
#: computation power ``P_mean``.  Encoding leans on the hardware codec (cheap),
#: inference leans on the GPU/NPU (expensive), transmission and handoff use the
#: radio instead of the compute complex.
SEGMENT_POWER_FACTORS: Dict[str, float] = {
    "frame_generation": 0.85,
    "volumetric": 1.00,
    "external": 0.20,
    "conversion": 0.90,
    "encoding": 0.50,
    "local_inference": 1.25,
    "remote_inference": 0.15,
    "transmission": 0.40,
    "handoff": 0.40,
    "rendering": 1.10,
    "cooperation": 0.40,
}

#: Per-device multiplicative factors (compute capability, power draw) capturing
#: the heterogeneity of the Table I devices around the nominal surfaces.
DEVICE_FACTORS: Dict[str, tuple[float, float]] = {
    "XR1": (1.06, 0.97),
    "XR2": (1.03, 1.00),
    "XR3": (0.94, 1.05),
    "XR4": (0.95, 1.03),
    "XR5": (0.97, 0.96),
    "XR6": (1.01, 1.04),
    "XR7": (0.98, 1.06),
}


@dataclass(frozen=True)
class TestbedTruth:
    """The simulated testbed's ground-truth response surfaces.

    (The ``Testbed`` prefix refers to the simulated testbed, not to pytest;
    ``__test__`` is set so test collectors skip it.)

    Attributes:
        cpu_capability_intercept / cpu_capability_slope: effective compute
            capability contributed by the CPU complex as an affine function of
            the CPU clock (GHz).
        gpu_capability_intercept / gpu_capability_slope: same for the GPU.
        cpu_power_coeffs: (intercept, linear, quadratic) of the CPU power (W)
            in the CPU clock.
        gpu_power_coeffs: (intercept, linear, quadratic) of the GPU power (W)
            in the GPU clock.
        encoding_coeffs: coefficients of the encoding-latency numerator in
            (1, n_i, n_b, bitrate, frame_side, fps, quantization); the
            numerator divided by the compute capability gives milliseconds.
        cnn_complexity_coeffs: (intercept, depth, size_mb, depth_scale) of the
            effective CNN complexity.
        decode_discount: fraction of the encoding latency a decode takes on
            the same device (the paper's ``gamma``, ~1/3).
        edge_compute_scale: ratio of edge to client allocated compute
            (the paper measures 11.76).
        device_factors: per-device (compute, power) multiplicative factors.
    """

    #: Tell pytest this is not a test class despite the ``Test`` prefix.
    __test__ = False

    cpu_capability_intercept: float = 1.6
    cpu_capability_slope: float = 0.8
    gpu_capability_intercept: float = 1.0
    gpu_capability_slope: float = 2.5
    cpu_power_coeffs: tuple[float, float, float] = (0.33, 0.22, 0.10)
    gpu_power_coeffs: tuple[float, float, float] = (0.66, 1.21, 0.0)
    encoding_coeffs: tuple[float, float, float, float, float, float, float] = (
        -150.0,
        -1.35,
        24.8,
        9.4,
        0.82,
        12.0,
        0.64,
    )
    cnn_complexity_coeffs: tuple[float, float, float, float] = (2.45, 0.0025, 0.03, 0.0029)
    decode_discount: float = 1.0 / 3.0
    edge_compute_scale: float = 11.76
    device_factors: Mapping[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEVICE_FACTORS)
    )

    # -- helpers -----------------------------------------------------------------

    def _factors(self, device_name: str | None) -> tuple[float, float]:
        if device_name is None:
            return (1.0, 1.0)
        return self.device_factors.get(device_name, (1.0, 1.0))

    # -- compute capability (the paper's c_client) --------------------------------

    def compute_capability(
        self,
        cpu_freq_ghz: float,
        gpu_freq_ghz: float,
        cpu_share: float,
        device_name: str | None = None,
    ) -> float:
        """Effective compute capability of an operating point.

        The unit is "swept frame-size units per millisecond": dividing a
        frame-size-like task measure by this capability yields milliseconds,
        exactly how the paper uses ``c_client``.
        """
        if cpu_freq_ghz <= 0.0 or gpu_freq_ghz <= 0.0:
            raise ModelDomainError(
                "clock frequencies must be > 0 GHz, got "
                f"cpu={cpu_freq_ghz}, gpu={gpu_freq_ghz}"
            )
        if not 0.0 <= cpu_share <= 1.0:
            raise ModelDomainError(f"cpu share must be in [0, 1], got {cpu_share}")
        compute_factor, _ = self._factors(device_name)
        cpu = self.cpu_capability_intercept + self.cpu_capability_slope * cpu_freq_ghz
        gpu = self.gpu_capability_intercept + self.gpu_capability_slope * gpu_freq_ghz
        return compute_factor * (cpu_share * cpu + (1.0 - cpu_share) * gpu)

    # -- power (the paper's P_mean) -------------------------------------------------

    def mean_power_w(
        self,
        cpu_freq_ghz: float,
        gpu_freq_ghz: float,
        cpu_share: float,
        device_name: str | None = None,
    ) -> float:
        """Mean computation power (W) of an operating point."""
        if cpu_freq_ghz <= 0.0 or gpu_freq_ghz <= 0.0:
            raise ModelDomainError(
                "clock frequencies must be > 0 GHz, got "
                f"cpu={cpu_freq_ghz}, gpu={gpu_freq_ghz}"
            )
        if not 0.0 <= cpu_share <= 1.0:
            raise ModelDomainError(f"cpu share must be in [0, 1], got {cpu_share}")
        _, power_factor = self._factors(device_name)
        a0, a1, a2 = self.cpu_power_coeffs
        b0, b1, b2 = self.gpu_power_coeffs
        cpu = a0 + a1 * cpu_freq_ghz + a2 * cpu_freq_ghz**2
        gpu = b0 + b1 * gpu_freq_ghz + b2 * gpu_freq_ghz**2
        return power_factor * (cpu_share * cpu + (1.0 - cpu_share) * gpu)

    def segment_power_w(
        self,
        segment: str,
        cpu_freq_ghz: float,
        gpu_freq_ghz: float,
        cpu_share: float,
        device_name: str | None = None,
    ) -> float:
        """Power drawn while executing one named pipeline segment."""
        try:
            factor = SEGMENT_POWER_FACTORS[segment]
        except KeyError as error:
            raise ModelDomainError(
                f"unknown segment {segment!r}; known: {sorted(SEGMENT_POWER_FACTORS)}"
            ) from error
        return factor * self.mean_power_w(
            cpu_freq_ghz, gpu_freq_ghz, cpu_share, device_name=device_name
        )

    # -- encoding -----------------------------------------------------------------

    def encoding_numerator(
        self,
        i_frame_interval: float,
        b_frame_count: float,
        bitrate_mbps: float,
        frame_side_px: float,
        frame_rate_fps: float,
        quantization: float,
    ) -> float:
        """Encoding-latency numerator (divide by the compute capability for ms)."""
        c0, c1, c2, c3, c4, c5, c6 = self.encoding_coeffs
        numerator = (
            c0
            + c1 * i_frame_interval
            + c2 * b_frame_count
            + c3 * bitrate_mbps
            + c4 * frame_side_px
            + c5 * frame_rate_fps
            + c6 * quantization
        )
        if numerator <= 0.0:
            raise ModelDomainError(
                "encoding workload evaluated to a non-positive value; the encoder "
                "configuration is outside the testbed's measured domain"
            )
        return numerator

    # -- CNN complexity ---------------------------------------------------------------

    def cnn_complexity(self, depth: float, size_mb: float, depth_scale: float = 1.0) -> float:
        """True effective complexity of a CNN model."""
        if depth <= 0 or size_mb <= 0 or depth_scale <= 0:
            raise ModelDomainError(
                "CNN parameters must be positive: "
                f"depth={depth}, size_mb={size_mb}, depth_scale={depth_scale}"
            )
        k0, k1, k2, k3 = self.cnn_complexity_coeffs
        return k0 + k1 * depth + k2 * size_mb + k3 * depth_scale
