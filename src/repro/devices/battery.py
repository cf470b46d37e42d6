"""Battery model for XR devices.

The analytical framework reports per-frame energy (mJ); the battery model
turns those per-frame figures into state-of-charge trajectories and runtime
estimates, which the example applications and the simulated testbed use to
answer "how long can this XR session last" style questions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.device import DeviceSpec
from repro.exceptions import ConfigurationError


@dataclass
class Battery:
    """Mutable battery state of one XR device.

    Attributes:
        capacity_mj: full-charge energy in millijoules.
        remaining_mj: remaining energy in millijoules.
    """

    capacity_mj: float
    remaining_mj: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.capacity_mj < 0.0:
            raise ConfigurationError(
                f"battery capacity must be >= 0 mJ, got {self.capacity_mj}"
            )
        if self.remaining_mj < 0.0:
            self.remaining_mj = self.capacity_mj
        if self.remaining_mj > self.capacity_mj:
            raise ConfigurationError(
                "remaining energy cannot exceed capacity "
                f"({self.remaining_mj} > {self.capacity_mj})"
            )

    @classmethod
    def from_spec(cls, spec: DeviceSpec) -> "Battery":
        """Create a full battery matching a device specification."""
        return cls(capacity_mj=spec.battery_capacity_mj)

    @property
    def is_tethered(self) -> bool:
        """True for devices without a battery (e.g. the Jetson boards)."""
        return self.capacity_mj == 0.0

    @property
    def state_of_charge(self) -> float:
        """Remaining charge as a fraction in [0, 1] (1.0 for tethered devices)."""
        if self.is_tethered:
            return 1.0
        return self.remaining_mj / self.capacity_mj

    def drain(self, energy_mj: float) -> float:
        """Remove ``energy_mj`` from the battery and return the energy actually drawn.

        Tethered devices always deliver the requested energy.  Battery powered
        devices deliver at most what remains.

        Raises:
            ValueError: if ``energy_mj`` is negative.
        """
        if energy_mj < 0.0:
            raise ValueError(f"energy to drain must be >= 0 mJ, got {energy_mj}")
        if self.is_tethered:
            return energy_mj
        drawn = min(energy_mj, self.remaining_mj)
        self.remaining_mj -= drawn
        return drawn

    def frames_remaining(self, energy_per_frame_mj: float) -> float:
        """Number of frames the battery can still sustain at the given cost."""
        if energy_per_frame_mj <= 0.0:
            raise ValueError(
                f"energy per frame must be > 0 mJ, got {energy_per_frame_mj}"
            )
        if self.is_tethered:
            return float("inf")
        return self.remaining_mj / energy_per_frame_mj

    def runtime_remaining_s(
        self, energy_per_frame_mj: float, frame_latency_ms: float
    ) -> float:
        """Remaining session runtime in seconds at the given per-frame cost/latency."""
        if frame_latency_ms <= 0.0:
            raise ValueError(f"frame latency must be > 0 ms, got {frame_latency_ms}")
        frames = self.frames_remaining(energy_per_frame_mj)
        if frames == float("inf"):
            return float("inf")
        return frames * frame_latency_ms / 1e3
