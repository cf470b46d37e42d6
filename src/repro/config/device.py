"""Hardware descriptions of XR devices and edge servers.

These dataclasses capture the information in Table I of the paper (the seven
XR devices and the two Nvidia Jetson boards used as external sensor host and
edge server), plus the handful of extra parameters the analytical and
simulation layers need that the table reports indirectly (memory bandwidth,
base power, thermal conversion fraction).

Concrete catalog entries live in :mod:`repro.devices.catalog`; this module
only defines the shape and validation of a specification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.config.validation import (
    ensure_fraction,
    ensure_in_range,
    ensure_non_negative,
    ensure_positive,
)


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware specification of an XR (client) device.

    Attributes:
        name: short identifier used throughout the framework (e.g. ``"XR1"``).
        model: commercial model name (e.g. ``"Huawei Mate 40 Pro"``).
        soc: system-on-chip name.
        process_nm: SoC manufacturing process in nanometres.
        cpu_cores: number of CPU cores.
        cpu_max_freq_ghz: maximum CPU clock frequency in GHz.
        gpu_name: GPU marketing name.
        gpu_max_freq_ghz: maximum GPU clock frequency in GHz.
        ram_gb: installed RAM in GB.
        memory_type: LPDDR generation string (``"LPDDR5"`` etc.).
        memory_bandwidth_gb_s: peak memory bandwidth in GB/s (``m_client``).
        os_name: operating system string.
        wifi_standards: supported IEEE 802.11 amendments (e.g. ``("a", "ax")``).
        release: human-readable release date.
        base_power_w: always-on background power draw (``E_base`` source).
        thermal_fraction: fraction of consumed energy converted to heat
            (``E_theta`` source), in [0, 1].
        idle_display_power_w: display/idle contribution included in base power
            accounting; kept separate so battery models can subtract it.
        battery_capacity_mah: nominal battery capacity (0 for tethered devices).
        battery_voltage_v: nominal battery voltage.
        role: ``"xr"`` for head-mounted/handheld clients, ``"external"`` for
            external sensor hosts, ``"edge"`` for edge servers described with
            the same fields.
    """

    name: str
    model: str
    soc: str
    process_nm: int
    cpu_cores: int
    cpu_max_freq_ghz: float
    gpu_name: str
    gpu_max_freq_ghz: float
    ram_gb: float
    memory_type: str
    memory_bandwidth_gb_s: float
    os_name: str
    wifi_standards: Tuple[str, ...]
    release: str
    base_power_w: float = 0.45
    thermal_fraction: float = 0.06
    idle_display_power_w: float = 0.30
    battery_capacity_mah: float = 4000.0
    battery_voltage_v: float = 3.85
    role: str = "xr"

    def __post_init__(self) -> None:
        ensure_positive("cpu_cores", self.cpu_cores)
        ensure_positive("cpu_max_freq_ghz", self.cpu_max_freq_ghz)
        ensure_positive("gpu_max_freq_ghz", self.gpu_max_freq_ghz)
        ensure_positive("ram_gb", self.ram_gb)
        ensure_positive("memory_bandwidth_gb_s", self.memory_bandwidth_gb_s)
        ensure_non_negative("base_power_w", self.base_power_w)
        ensure_fraction("thermal_fraction", self.thermal_fraction)
        ensure_non_negative("idle_display_power_w", self.idle_display_power_w)
        ensure_non_negative("battery_capacity_mah", self.battery_capacity_mah)
        ensure_non_negative("battery_voltage_v", self.battery_voltage_v)
        ensure_in_range("process_nm", self.process_nm, 1, 50)

    # -- derived quantities -------------------------------------------------

    @property
    def battery_capacity_mj(self) -> float:
        """Usable battery energy in millijoules (0 for tethered devices)."""
        # mAh * V = mWh; 1 mWh = 3600 mJ
        return self.battery_capacity_mah * self.battery_voltage_v * 3600.0

    def with_memory_bandwidth(self, bandwidth_gb_s: float) -> "DeviceSpec":
        """Return a copy of the spec with a different memory bandwidth."""
        return replace(self, memory_bandwidth_gb_s=bandwidth_gb_s)

    def describe(self) -> str:
        """One-line human readable description used by the report generator."""
        return (
            f"{self.name}: {self.model} ({self.soc}, {self.cpu_cores}-core up to "
            f"{self.cpu_max_freq_ghz:.2f} GHz, {self.gpu_name}, {self.ram_gb:.0f} GB "
            f"{self.memory_type}, {self.os_name})"
        )


@dataclass(frozen=True)
class EdgeServerSpec:
    """Static hardware specification of an edge server.

    The paper uses Nvidia Jetson boards (TX2 and AGX Xavier) as the edge tier.
    The analytical model mostly consumes the edge server through its allocated
    compute resource ``c_epsilon`` and memory bandwidth ``m_epsilon``; the
    remaining fields feed the simulated testbed and the device catalog table.

    Attributes:
        name: short identifier (e.g. ``"EDGE-AGX"``).
        model: board name.
        cpu_description: CPU complex description from Table I.
        cpu_cores: number of CPU cores.
        cpu_max_freq_ghz: maximum CPU clock in GHz.
        gpu_name: GPU description.
        gpu_cuda_cores: number of CUDA cores.
        ram_gb: installed RAM in GB.
        memory_type: memory generation.
        memory_bandwidth_gb_s: peak memory bandwidth (``m_epsilon``).
        os_name: operating system.
        release: release date string.
        compute_scale_vs_client: ratio of allocated edge compute to client
            compute; the paper derives ``c_epsilon = 11.76 * c_client`` from
            its measurements (Section IV-B, Eq. 14 discussion).
        idle_power_w: idle power of the board (edge energy is not billed to
            the XR device but the simulator tracks it).
        max_power_w: power ceiling of the board's performance mode.
    """

    name: str
    model: str
    cpu_description: str
    cpu_cores: int
    cpu_max_freq_ghz: float
    gpu_name: str
    gpu_cuda_cores: int
    ram_gb: float
    memory_type: str
    memory_bandwidth_gb_s: float
    os_name: str
    release: str
    compute_scale_vs_client: float = 11.76
    idle_power_w: float = 5.0
    max_power_w: float = 30.0

    def __post_init__(self) -> None:
        ensure_positive("cpu_cores", self.cpu_cores)
        ensure_positive("cpu_max_freq_ghz", self.cpu_max_freq_ghz)
        ensure_positive("gpu_cuda_cores", self.gpu_cuda_cores)
        ensure_positive("ram_gb", self.ram_gb)
        ensure_positive("memory_bandwidth_gb_s", self.memory_bandwidth_gb_s)
        ensure_positive("compute_scale_vs_client", self.compute_scale_vs_client)
        ensure_non_negative("idle_power_w", self.idle_power_w)
        ensure_positive("max_power_w", self.max_power_w)

    def describe(self) -> str:
        """One-line human readable description used by the report generator."""
        return (
            f"{self.name}: {self.model} ({self.cpu_description}, {self.gpu_name} with "
            f"{self.gpu_cuda_cores} CUDA cores, {self.ram_gb:.0f} GB {self.memory_type})"
        )
