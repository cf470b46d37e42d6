"""External sensor runtime model.

One :class:`ExternalSensor` wraps a :class:`~repro.config.network.SensorConfig`
and answers the questions the latency and AoI models ask about it:

the latency of delivering the ``n``-th update of frame ``q`` (Eq. 6:
generation period plus propagation delay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import units
from repro.config.network import SensorConfig


@dataclass(frozen=True)
class ExternalSensor:
    """Runtime view of one external sensor or device.

    Attributes:
        config: static sensor configuration.
        propagation_speed_m_per_s: propagation speed of the wireless medium
            between the sensor and the XR device.
    """

    config: SensorConfig
    propagation_speed_m_per_s: float = units.SPEED_OF_LIGHT_M_PER_S

    @property
    def name(self) -> str:
        """Sensor identifier."""
        return self.config.name

    @property
    def generation_period_ms(self) -> float:
        """Information generation period ``1 / f_t^m`` (ms)."""
        return self.config.generation_period_ms

    @property
    def propagation_delay_ms(self) -> float:
        """One-way propagation delay from the sensor to the XR device (ms)."""
        return units.propagation_delay_ms(
            self.config.distance_m, self.propagation_speed_m_per_s
        )

    # -- Eq. (6) ----------------------------------------------------------------

    def update_latency_ms(self, distance_m: Optional[float] = None) -> float:
        """Latency of one information update, ``1/f_t + d/c`` (Eq. 6).

        Args:
            distance_m: optionally override the configured distance (the paper
                allows the distance to vary per update as the devices move).
        """
        propagation = (
            self.propagation_delay_ms
            if distance_m is None
            else units.propagation_delay_ms(distance_m, self.propagation_speed_m_per_s)
        )
        return self.generation_period_ms + propagation

    def total_latency_ms(self, n_updates: int) -> float:
        """Total latency of ``n_updates`` consecutive updates (inner sum of Eq. 5)."""
        if n_updates < 0:
            raise ValueError(f"n_updates must be >= 0, got {n_updates}")
        return n_updates * self.update_latency_ms()
