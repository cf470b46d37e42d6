"""Configuration layer for the XR performance analysis framework.

Every user-facing entry point of the framework is parameterised through the
frozen dataclasses defined in this package:

* :class:`~repro.config.device.DeviceSpec` /
  :class:`~repro.config.device.EdgeServerSpec` — hardware descriptions,
* :class:`~repro.config.application.ApplicationConfig` (plus
  :class:`~repro.config.application.EncoderConfig`,
  :class:`~repro.config.application.InferenceConfig`,
  :class:`~repro.config.application.CooperationConfig`) — the XR application
  pipeline parameters of Section III,
* :class:`~repro.config.network.NetworkConfig` (plus
  :class:`~repro.config.network.HandoffConfig`,
  :class:`~repro.config.network.SensorConfig`) — the wireless/edge topology,
* :class:`~repro.config.workload.SweepConfig` /
  :class:`~repro.config.workload.WorkloadConfig` — evaluation sweeps used by
  the figure generators.

All configs validate themselves at construction time and raise
:class:`repro.exceptions.ConfigurationError` on inconsistent input.
"""

from repro.config.application import (
    ApplicationConfig,
    CooperationConfig,
    EncoderConfig,
    ExecutionMode,
    InferenceConfig,
)
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import HandoffConfig, NetworkConfig, SensorConfig
from repro.config.workload import SweepConfig, WorkloadConfig

__all__ = [
    "ApplicationConfig",
    "CooperationConfig",
    "DeviceSpec",
    "EdgeServerSpec",
    "EncoderConfig",
    "ExecutionMode",
    "HandoffConfig",
    "InferenceConfig",
    "NetworkConfig",
    "SensorConfig",
    "SweepConfig",
    "WorkloadConfig",
]
