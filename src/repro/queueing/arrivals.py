"""Arrival processes for the queueing substrate.

:class:`PoissonProcess` draws exponential inter-event times, the arrivals of
the M/M/1 queue simulation (:func:`repro.queueing.simulation.simulate_mm1`).

Rates are expressed in events per millisecond so the generated timestamps
line up with the rest of the framework's millisecond time base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class PoissonProcess:
    """Homogeneous Poisson process with rate ``rate_per_ms``.

    Attributes:
        rate_per_ms: expected number of events per millisecond.
    """

    rate_per_ms: float

    def __post_init__(self) -> None:
        if self.rate_per_ms <= 0.0:
            raise ConfigurationError(
                f"Poisson rate must be > 0 events/ms, got {self.rate_per_ms}"
            )

    @property
    def mean_interarrival_ms(self) -> float:
        """Mean time between events in milliseconds."""
        return 1.0 / self.rate_per_ms

    def sample_interarrival_times(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` exponential inter-arrival times (ms)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return rng.exponential(self.mean_interarrival_ms, size=n)

    def sample_arrival_times(
        self, horizon_ms: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Arrival timestamps (ms) of all events up to ``horizon_ms``."""
        if horizon_ms <= 0.0:
            raise ValueError(f"horizon must be > 0 ms, got {horizon_ms}")
        # Draw in chunks until the horizon is exceeded.
        expected = int(self.rate_per_ms * horizon_ms)
        chunk = max(16, expected + 4 * int(np.sqrt(expected) + 1))
        times: List[float] = []
        current = 0.0
        while current <= horizon_ms:
            gaps = self.sample_interarrival_times(chunk, rng)
            for gap in gaps:
                current += float(gap)
                if current > horizon_ms:
                    break
                times.append(current)
        return np.array(times, dtype=float)
