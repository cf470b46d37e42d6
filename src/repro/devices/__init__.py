"""Device substrate: the Table I catalog, battery and thermal models.

The analytical framework consumes devices through a small number of
aggregate parameters (clock frequencies, memory bandwidth, base power) of
their specification dataclasses; the session analysis adds the battery and
thermal models defined here.
"""

from repro.devices.battery import Battery
from repro.devices.catalog import (
    DEVICE_CATALOG,
    EDGE_CATALOG,
    TEST_DEVICES,
    TRAIN_DEVICES,
    get_device,
    get_edge_server,
    list_devices,
    list_edge_servers,
)
from repro.devices.resolve import resolve_device_spec, resolve_edge_spec
from repro.devices.thermals import ThermalModel

__all__ = [
    "Battery",
    "DEVICE_CATALOG",
    "EDGE_CATALOG",
    "TEST_DEVICES",
    "TRAIN_DEVICES",
    "ThermalModel",
    "get_device",
    "get_edge_server",
    "list_devices",
    "list_edge_servers",
    "resolve_device_spec",
    "resolve_edge_spec",
]
