"""Noise models used by the simulated testbed.

Two effects separate a real measurement from the analytical expectation:

* multiplicative run-to-run variability (thermal state, background load,
  DVFS governor decisions) — modelled as a log-normal factor with unit
  median,
* additive OS scheduling jitter — modelled as an exponential tail added to
  each segment.

Both are small by default; the simulated testbed applies them per segment and
per frame so that ground-truth curves wobble around the analytical model the
way the paper's measured curves wobble around its model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class NoiseModel:
    """Per-segment measurement noise.

    Attributes:
        relative_sigma: standard deviation of the log-normal multiplicative
            factor (0 disables it).
        jitter_mean_ms: mean of the additive exponential OS jitter
            (0 disables it).
        power_sigma: relative standard deviation applied to power draws.
    """

    relative_sigma: float = 0.06
    jitter_mean_ms: float = 1.5
    power_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.relative_sigma < 0.0:
            raise ConfigurationError(
                f"relative_sigma must be >= 0, got {self.relative_sigma}"
            )
        if self.jitter_mean_ms < 0.0:
            raise ConfigurationError(
                f"jitter_mean_ms must be >= 0, got {self.jitter_mean_ms}"
            )
        if self.power_sigma < 0.0:
            raise ConfigurationError(
                f"power_sigma must be >= 0, got {self.power_sigma}"
            )

    def latency_ms(self, expected_ms: float, rng: np.random.Generator) -> float:
        """Sample a noisy latency around ``expected_ms``."""
        if expected_ms < 0.0:
            raise ValueError(f"expected latency must be >= 0 ms, got {expected_ms}")
        if expected_ms == 0.0:
            return 0.0
        value = expected_ms
        if self.relative_sigma > 0.0:
            # Log-normal with unit median keeps the noise strictly positive.
            value *= float(rng.lognormal(mean=0.0, sigma=self.relative_sigma))
        if self.jitter_mean_ms > 0.0:
            value += float(rng.exponential(self.jitter_mean_ms))
        return value

    def power_w(self, expected_w: float, rng: np.random.Generator) -> float:
        """Sample a noisy power draw around ``expected_w`` (never negative)."""
        if expected_w < 0.0:
            raise ValueError(f"expected power must be >= 0 W, got {expected_w}")
        if expected_w == 0.0 or self.power_sigma == 0.0:
            return expected_w
        return float(max(expected_w * (1.0 + rng.normal(0.0, self.power_sigma)), 0.0))
