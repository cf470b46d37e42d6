"""Closed-form M/M/1 queue results.

The paper models buffering in the XR input buffer as a stable M/M/1 queue
(Eq. 7) and re-uses the same result for the average time an information
packet spends in the buffer in the AoI model (Eq. 22):

    T̄ = 1 / (mu - lambda)

This module provides that result plus the standard companion quantities
(utilisation, waiting time, service time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import UnstableQueueError


@dataclass(frozen=True)
class MM1Queue:
    """A stationary M/M/1 queue.

    An idle queue (``lambda == 0``) is a legitimate boundary case — e.g. a
    fleet with zero offloaders — and yields zero waiting time, an empty
    queue, and a sojourn time equal to the service time.

    Attributes:
        arrival_rate_per_ms: Poisson arrival rate ``lambda`` (packets/ms),
            >= 0.
        service_rate_per_ms: exponential service rate ``mu`` (packets/ms).
    """

    arrival_rate_per_ms: float
    service_rate_per_ms: float

    def __post_init__(self) -> None:
        if self.arrival_rate_per_ms < 0.0:
            raise UnstableQueueError(
                f"arrival rate must be >= 0, got {self.arrival_rate_per_ms}"
            )
        if self.service_rate_per_ms <= 0.0:
            raise UnstableQueueError(
                f"service rate must be > 0, got {self.service_rate_per_ms}"
            )
        if self.arrival_rate_per_ms >= self.service_rate_per_ms:
            raise UnstableQueueError(
                "M/M/1 queue requires lambda < mu for stability, got "
                f"lambda={self.arrival_rate_per_ms}, mu={self.service_rate_per_ms}"
            )

    # -- first-order quantities ----------------------------------------------

    @property
    def utilization(self) -> float:
        """Server utilisation ``rho = lambda / mu`` (strictly below 1)."""
        return self.arrival_rate_per_ms / self.service_rate_per_ms

    @property
    def mean_time_in_system_ms(self) -> float:
        """Mean sojourn time ``T̄ = 1 / (mu - lambda)`` of Eqs. (7) and (22)."""
        return 1.0 / (self.service_rate_per_ms - self.arrival_rate_per_ms)

    @property
    def mean_waiting_time_ms(self) -> float:
        """Mean waiting (queueing-only) time ``W_q = rho / (mu - lambda)``."""
        return self.utilization * self.mean_time_in_system_ms

    @property
    def mean_service_time_ms(self) -> float:
        """Mean service time ``1 / mu``."""
        return 1.0 / self.service_rate_per_ms

    # -- convenience constructors ----------------------------------------------

    @classmethod
    def from_rates_hz(cls, arrival_rate_hz: float, service_rate_hz: float) -> "MM1Queue":
        """Build a queue from rates expressed in events per second."""
        return cls(
            arrival_rate_per_ms=arrival_rate_hz / 1e3,
            service_rate_per_ms=service_rate_hz / 1e3,
        )
