"""Arrival and service processes for the queueing substrate.

Two concrete processes cover everything the framework needs:

* :class:`PoissonProcess` — exponential inter-event times, used for the
  M/M/1 input-buffer model and its simulation counterpart,
* :class:`DeterministicProcess` — fixed-period events, used for sensor
  information generation at a fixed frequency (Fig. 2) and for M/D/1
  comparisons.

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


@dataclass(frozen=True)
class DeterministicProcess:
    """Deterministic (fixed-period) event process.

    Attributes:
        period_ms: time between consecutive events.
        offset_ms: timestamp of the first event.
    """

    period_ms: float
    offset_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ms <= 0.0:
            raise ConfigurationError(
                f"period must be > 0 ms, got {self.period_ms}"
            )
        if self.offset_ms < 0.0:
            raise ConfigurationError(
                f"offset must be >= 0 ms, got {self.offset_ms}"
            )

    @property
    def rate_per_ms(self) -> float:
        """Event rate in events per millisecond."""
        return 1.0 / self.period_ms

    def sample_arrival_times(
        self, horizon_ms: float, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Event timestamps (ms) up to ``horizon_ms`` (rng accepted for API parity)."""
        if horizon_ms <= 0.0:
            raise ValueError(f"horizon must be > 0 ms, got {horizon_ms}")
        first = self.offset_ms if self.offset_ms > 0.0 else self.period_ms
        return np.arange(first, horizon_ms + 1e-12, self.period_ms, dtype=float)
