"""Resolution of device/edge arguments to their specification dataclasses.

Public entry points across the framework accept a device or an edge server
either as a Table I catalog name or as its specification dataclass.  The two
helpers here normalise both forms to the spec the analytical models consume;
the scalar facade (:mod:`repro.core.framework`) and the batch engine
(:mod:`repro.batch`) share them, so the accepted forms can never diverge
between the two paths.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.devices.catalog import get_device, get_edge_server
from repro.exceptions import ConfigurationError

DeviceLike = Union[str, DeviceSpec]
EdgeLike = Union[str, EdgeServerSpec, None]


def resolve_device_spec(device: DeviceLike) -> DeviceSpec:
    """Normalise a catalog name / spec to its spec.

    Raises:
        ConfigurationError: for values of an unsupported type.
        UnknownDeviceError: for catalog names not in Table I.
    """
    if isinstance(device, DeviceSpec):
        return device
    if isinstance(device, str):
        return get_device(device)
    raise ConfigurationError(f"cannot interpret {device!r} as an XR device")


def resolve_edge_spec(edge: EdgeLike) -> Optional[EdgeServerSpec]:
    """Normalise a catalog name / spec to its spec (None passes).

    Raises:
        ConfigurationError: for values of an unsupported type.
        UnknownDeviceError: for catalog names not in Table I.
    """
    if edge is None:
        return None
    if isinstance(edge, EdgeServerSpec):
        return edge
    if isinstance(edge, str):
        return get_edge_server(edge)
    raise ConfigurationError(f"cannot interpret {edge!r} as an edge server")
