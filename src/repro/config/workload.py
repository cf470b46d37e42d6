"""Workload and sweep definitions used by the evaluation harness.

The paper's evaluation sweeps frame size (300-700 pixel^2) and CPU clock
frequency (1, 2, 3 GHz) for the latency/energy figures, and sensor
information-generation frequency for the AoI figures.  These sweeps are
described declaratively here so the figure generators, the example scripts
and the tests all consume the exact same definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.config.validation import (
    ensure_finite,
    ensure_non_negative,
    ensure_positive,
    ensure_sorted_positive,
)
from repro.exceptions import ConfigurationError

#: Most packets an AoI workload may generate: ``horizon_ms / 1e3`` times the
#: summed sensor frequencies.  The paper workload generates about 33; the
#: emulation lists every packet, so the bound keeps its arrays small.
MAX_WORKLOAD_PACKETS = 1e6


@dataclass(frozen=True)
class SweepConfig:
    """A two-dimensional (frame size x CPU frequency) evaluation sweep.

    Attributes:
        frame_sides_px: swept frame sizes (the paper uses 300..700 in steps
            of 100).
        cpu_freqs_ghz: swept CPU clock frequencies (the paper uses 1, 2, 3).
        repetitions: number of simulated ground-truth runs averaged per point.
        frames_per_run: number of frames simulated per ground-truth run.
        seed: base RNG seed for the simulated testbed.
    """

    frame_sides_px: Tuple[float, ...] = (300.0, 400.0, 500.0, 600.0, 700.0)
    cpu_freqs_ghz: Tuple[float, ...] = (1.0, 2.0, 3.0)
    repetitions: int = 3
    frames_per_run: int = 20
    seed: int = 2024

    def __post_init__(self) -> None:
        ensure_sorted_positive("frame_sides_px", self.frame_sides_px)
        ensure_sorted_positive("cpu_freqs_ghz", self.cpu_freqs_ghz)
        ensure_positive("repetitions", self.repetitions)
        ensure_positive("frames_per_run", self.frames_per_run)
        ensure_non_negative("seed", self.seed)

    def points(self) -> Iterator[Tuple[float, float]]:
        """Iterate over all (cpu_freq_ghz, frame_side_px) sweep points."""
        for cpu_freq in self.cpu_freqs_ghz:
            for frame_side in self.frame_sides_px:
                yield cpu_freq, frame_side

    @property
    def n_points(self) -> int:
        """Total number of sweep points."""
        return len(self.frame_sides_px) * len(self.cpu_freqs_ghz)

    @classmethod
    def paper_default(cls) -> "SweepConfig":
        """The sweep used by Figs. 4(a)-(d) and 5(a)-(b)."""
        return cls()

    @classmethod
    def quick(cls) -> "SweepConfig":
        """A reduced sweep for fast tests and smoke runs."""
        return cls(
            frame_sides_px=(300.0, 500.0, 700.0),
            cpu_freqs_ghz=(1.0, 3.0),
            repetitions=1,
            frames_per_run=5,
        )


@dataclass(frozen=True)
class WorkloadConfig:
    """AoI emulation workload (Fig. 4(e)/(f)).

    Attributes:
        sensor_frequencies_hz: information-generation frequencies of the
            emulated sensors (the paper uses 200, 100 and 66.67 Hz).
        required_update_period_ms: the XR application's requested update
            period (1 update every 5 ms in the paper).
        horizon_ms: emulation horizon.
        buffer_service_rate_hz: service rate of the input buffer.
        sensor_distances_m: sensor-to-device distances.
        seed: RNG seed for the emulated arrival process.
    """

    sensor_frequencies_hz: Tuple[float, ...] = (200.0, 100.0, 66.67)
    required_update_period_ms: float = 5.0
    horizon_ms: float = 90.0
    buffer_service_rate_hz: float = 2000.0
    sensor_distances_m: Tuple[float, ...] = (10.0, 15.0, 20.0)
    seed: int = 7

    def __post_init__(self) -> None:
        ensure_sorted_positive(
            "sensor_frequencies_hz", tuple(sorted(self.sensor_frequencies_hz))
        )
        for frequency in self.sensor_frequencies_hz:
            ensure_finite("sensor_frequencies_hz entries", frequency)
        ensure_positive("required_update_period_ms", self.required_update_period_ms)
        ensure_positive("horizon_ms", self.horizon_ms)
        ensure_finite("horizon_ms", self.horizon_ms)
        ensure_positive("buffer_service_rate_hz", self.buffer_service_rate_hz)
        ensure_non_negative("seed", self.seed)
        packets = self.horizon_ms / 1e3 * sum(self.sensor_frequencies_hz)
        if not packets <= MAX_WORKLOAD_PACKETS:
            raise ConfigurationError(
                f"horizon_ms ({self.horizon_ms!r}) and sensor_frequencies_hz "
                f"generate {packets!r} packets, above {MAX_WORKLOAD_PACKETS:g}"
            )
        if len(self.sensor_distances_m) != len(self.sensor_frequencies_hz):
            raise ConfigurationError(
                "sensor_distances_m must have the same length as "
                f"sensor_frequencies_hz ({len(self.sensor_frequencies_hz)}), "
                f"got {len(self.sensor_distances_m)}"
            )
        for index, distance in enumerate(self.sensor_distances_m):
            ensure_non_negative(f"sensor_distances_m[{index}]", distance)

    @property
    def required_update_frequency_hz(self) -> float:
        """The XR application's required information frequency ``f_req``."""
        return 1e3 / self.required_update_period_ms

    @classmethod
    def paper_default(cls) -> "WorkloadConfig":
        """The AoI emulation workload used by Fig. 4(e)/(f)."""
        return cls()
