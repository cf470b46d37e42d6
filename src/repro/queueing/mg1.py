"""M/G/1 queue via the Pollaczek–Khinchine formula.

The paper assumes Markovian service at the input buffer; real buffer service
times are closer to deterministic (fixed-size control packets).  The M/G/1
model lets the buffer ablation quantify how much that assumption matters
by comparing M/M/1 against M/D/1 (deterministic service, squared coefficient
of variation 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import UnstableQueueError


@dataclass(frozen=True)
class MG1Queue:
    """A stationary M/G/1 queue characterised by its service-time moments.

    An idle queue (``lambda == 0``) is a legitimate boundary case — e.g. a
    fleet with zero offloaders — and yields zero waiting time.

    Attributes:
        arrival_rate_per_ms: Poisson arrival rate ``lambda`` (packets/ms),
            >= 0.
        mean_service_time_ms: mean service time ``E[S]``.
        service_scv: squared coefficient of variation of the service time
            (``Var[S] / E[S]^2``): 1 recovers M/M/1, 0 gives M/D/1.
    """

    arrival_rate_per_ms: float
    mean_service_time_ms: float
    service_scv: float = 1.0

    def __post_init__(self) -> None:
        if self.arrival_rate_per_ms < 0.0:
            raise UnstableQueueError(
                f"arrival rate must be >= 0, got {self.arrival_rate_per_ms}"
            )
        if self.mean_service_time_ms <= 0.0:
            raise UnstableQueueError(
                f"mean service time must be > 0, got {self.mean_service_time_ms}"
            )
        if self.service_scv < 0.0:
            raise UnstableQueueError(
                f"service SCV must be >= 0, got {self.service_scv}"
            )
        if self.utilization >= 1.0:
            raise UnstableQueueError(
                f"M/G/1 queue requires rho < 1, got rho={self.utilization:.4f}"
            )

    @classmethod
    def md1(cls, arrival_rate_per_ms: float, mean_service_time_ms: float) -> "MG1Queue":
        """Deterministic-service (M/D/1) special case."""
        return cls(
            arrival_rate_per_ms=arrival_rate_per_ms,
            mean_service_time_ms=mean_service_time_ms,
            service_scv=0.0,
        )

    @property
    def utilization(self) -> float:
        """Server utilisation ``rho = lambda * E[S]``."""
        return self.arrival_rate_per_ms * self.mean_service_time_ms

    @property
    def mean_waiting_time_ms(self) -> float:
        """Pollaczek–Khinchine mean waiting time.

        ``W_q = rho * E[S] * (1 + c_s^2) / (2 * (1 - rho))``
        """
        rho = self.utilization
        return (
            rho
            * self.mean_service_time_ms
            * (1.0 + self.service_scv)
            / (2.0 * (1.0 - rho))
        )

    @property
    def mean_time_in_system_ms(self) -> float:
        """Mean sojourn time ``W = W_q + E[S]``."""
        return self.mean_waiting_time_ms + self.mean_service_time_ms
