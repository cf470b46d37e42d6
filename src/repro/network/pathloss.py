"""Path-loss models.

The paper explicitly assumes no path loss, shadowing or fading in its default
propagation model but notes they "can be incorporated into the model
according to system requirements".  This module provides the standard
log-distance model, which a network configuration switches on with
``enable_path_loss``, and the free-space reference loss it builds on.
Shadowing is not modelled: the link budget is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ModelDomainError

#: Reference distance ``d0`` of the log-distance model.
REFERENCE_DISTANCE_M = 1.0


def free_space_path_loss_db(distance_m: float, carrier_frequency_ghz: float) -> float:
    """Free-space path loss (dB) at ``distance_m`` and ``carrier_frequency_ghz``.

    Uses the standard FSPL formula ``20 log10(d) + 20 log10(f) + 32.45`` with
    distance in kilometres and frequency in MHz, rearranged for metres / GHz.

    Raises:
        ModelDomainError: for non-positive distance or frequency.
    """
    if distance_m <= 0.0:
        raise ModelDomainError(f"distance must be > 0 m, got {distance_m}")
    if carrier_frequency_ghz <= 0.0:
        raise ModelDomainError(
            f"carrier frequency must be > 0 GHz, got {carrier_frequency_ghz}"
        )
    frequency_mhz = carrier_frequency_ghz * 1e3
    distance_km = distance_m / 1e3
    return 20.0 * math.log10(distance_km) + 20.0 * math.log10(frequency_mhz) + 32.45


@dataclass(frozen=True)
class LogDistancePathLoss:
    """Log-distance path loss.

    ``PL(d) = PL(d0) + 10 * n * log10(d / d0)``, with ``d0`` the
    :data:`REFERENCE_DISTANCE_M` and ``PL(d0)`` its free-space loss; closer
    than ``d0`` the loss stays at ``PL(d0)``.

    Attributes:
        exponent: path-loss exponent ``n`` (2 free space, ~3 indoor office).
        carrier_frequency_ghz: carrier used for the reference free-space loss.
    """

    exponent: float = 3.0
    carrier_frequency_ghz: float = 5.0

    def __post_init__(self) -> None:
        if self.exponent <= 0.0:
            raise ModelDomainError(f"path-loss exponent must be > 0, got {self.exponent}")

    def path_loss_db(self, distance_m: float) -> float:
        """Path loss (dB) at ``distance_m``."""
        if distance_m <= 0.0:
            raise ModelDomainError(f"distance must be > 0 m, got {distance_m}")
        distance = max(distance_m, REFERENCE_DISTANCE_M)
        reference_loss = free_space_path_loss_db(
            REFERENCE_DISTANCE_M, self.carrier_frequency_ghz
        )
        return reference_loss + 10.0 * self.exponent * math.log10(
            distance / REFERENCE_DISTANCE_M
        )

    def received_power_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Received power (dBm) for a given transmit power and distance."""
        return tx_power_dbm - self.path_loss_db(distance_m)
