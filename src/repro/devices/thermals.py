"""Thermal model: heat dissipation of an XR device (``E_theta`` of Eq. 19).

The paper observes that a small fraction of the consumed electrical energy is
converted to heat by the CPU, GPU and battery, causing user discomfort.  The
framework models two aspects:

* the per-frame thermal energy ``E_theta`` as ``thermal_fraction`` of the
  computation energy (consumed by the energy model),
* a coarse lumped-capacitance skin-temperature trajectory used by the
  simulated testbed and the example applications to reason about sustained
  sessions (thermal throttling is reported, not enforced, because the paper
  does not model throttling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.device import DeviceSpec


@dataclass
class ThermalModel:
    """Lumped-capacitance thermal model of one XR device.

    Attributes:
        thermal_fraction: fraction of consumed energy converted to heat.
        ambient_c: ambient temperature in Celsius.
        thermal_resistance_c_per_w: device-to-ambient thermal resistance.
        thermal_capacitance_j_per_c: heat capacity of the device body.
        throttle_threshold_c: skin temperature above which a real device
            would throttle; the model only flags it.
    """

    thermal_fraction: float = 0.06
    ambient_c: float = 24.0
    thermal_resistance_c_per_w: float = 12.0
    thermal_capacitance_j_per_c: float = 45.0
    throttle_threshold_c: float = 43.0
    _temperature_c: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.thermal_fraction <= 1.0:
            raise ValueError(
                f"thermal_fraction must be within [0, 1], got {self.thermal_fraction}"
            )
        self._temperature_c = self.ambient_c

    @classmethod
    def from_spec(cls, spec: DeviceSpec) -> "ThermalModel":
        """Create a thermal model using the spec's thermal conversion fraction."""
        return cls(thermal_fraction=spec.thermal_fraction)

    @property
    def temperature_c(self) -> float:
        """Current device skin temperature."""
        return self._temperature_c

    @property
    def is_throttling(self) -> bool:
        """True when the skin temperature exceeds the throttle threshold."""
        return self._temperature_c >= self.throttle_threshold_c

    def thermal_energy_mj(self, consumed_energy_mj: float) -> float:
        """Thermal energy ``E_theta`` (mJ) produced by consuming ``consumed_energy_mj``."""
        if consumed_energy_mj < 0.0:
            raise ValueError(
                f"consumed energy must be >= 0 mJ, got {consumed_energy_mj}"
            )
        return self.thermal_fraction * consumed_energy_mj

    def step(self, consumed_energy_mj: float, duration_ms: float) -> float:
        """Advance the temperature state by one interval and return it.

        Args:
            consumed_energy_mj: electrical energy consumed during the interval.
            duration_ms: interval length in milliseconds.

        Returns:
            The skin temperature (Celsius) at the end of the interval.
        """
        if duration_ms <= 0.0:
            raise ValueError(f"duration must be > 0 ms, got {duration_ms}")
        heat_j = self.thermal_energy_mj(consumed_energy_mj) / 1e3
        duration_s = duration_ms / 1e3
        heat_power_w = heat_j / duration_s
        # Newton cooling towards ambient plus heating from dissipated power.
        tau_s = self.thermal_resistance_c_per_w * self.thermal_capacitance_j_per_c
        steady_state_c = self.ambient_c + heat_power_w * self.thermal_resistance_c_per_w
        decay = pow(2.718281828459045, -duration_s / tau_s)
        self._temperature_c = steady_state_c + (self._temperature_c - steady_state_c) * decay
        return self._temperature_c
