"""Small-scale Rician fading.

Fading is outside the paper's baseline assumptions; the mobility condition
trace (:func:`repro.adaptive.traces.mobility_fading_trace`) uses it to
stress the transmission-latency model with a time-varying wireless channel.
The sampler returns multiplicative power gains (linear scale, mean 1.0)
that scale a link's throughput.
"""

from __future__ import annotations

import numpy as np


class RicianFading:
    """Rician (line-of-sight) fading power-gain sampler with mean gain 1.

    :attr:`K_FACTOR` is the ratio of line-of-sight power to scattered power;
    a larger K means a steadier channel (K -> infinity is no fading, K = 0
    degenerates to Rayleigh).
    """

    K_FACTOR = 6.0

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` power gains."""
        if size <= 0:
            raise ValueError(f"size must be > 0, got {size}")
        k = self.K_FACTOR
        # Complex Gaussian with a line-of-sight component: the in-phase part
        # carries sqrt(k / (k + 1)) of the amplitude, the scattered part the rest.
        los = np.sqrt(k / (k + 1.0))
        sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
        in_phase = rng.normal(los, sigma, size=size)
        quadrature = rng.normal(0.0, sigma, size=size)
        return in_phase**2 + quadrature**2
