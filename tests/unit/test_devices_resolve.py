"""Unit tests for resolving device and edge arguments to their specs.

A device or edge server argument is a Table I catalog name or its spec
dataclass; :mod:`repro.devices.resolve` is the one place that turns either
form into the spec, for the scalar facade and the batch engine alike.
"""

import pytest

from repro.batch import OperatingPoint, evaluate_points
from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.devices.catalog import DEVICE_CATALOG, EDGE_CATALOG, get_device, get_edge_server
from repro.devices.resolve import resolve_device_spec, resolve_edge_spec
from repro.exceptions import ConfigurationError, UnknownDeviceError

#: Values of neither accepted form: not a name, not a spec.
UNSUPPORTED = [42, 1.5, b"XR1", ("XR1",)]


def _rejected_as_unsupported(resolve, value):
    """``resolve(value)`` raises a type error, not an unknown-name error."""
    with pytest.raises(ConfigurationError, match="cannot interpret") as info:
        resolve(value)
    assert not isinstance(info.value, UnknownDeviceError)


class TestDevices:
    @pytest.mark.parametrize("name", sorted(DEVICE_CATALOG))
    def test_catalog_name_resolves_to_its_spec(self, name):
        assert resolve_device_spec(name) is DEVICE_CATALOG[name]

    def test_spec_outside_the_catalog_passes_through(self):
        custom = get_device("XR1").with_memory_bandwidth(12.5)
        assert resolve_device_spec(custom) is custom

    def test_unknown_name_raises_unknown_device(self):
        with pytest.raises(UnknownDeviceError, match="XR42"):
            resolve_device_spec("XR42")

    def test_no_device_is_rejected(self):
        _rejected_as_unsupported(resolve_device_spec, None)

    def test_edge_spec_is_not_a_device(self):
        _rejected_as_unsupported(resolve_device_spec, get_edge_server("EDGE-AGX"))

    @pytest.mark.parametrize("value", UNSUPPORTED, ids=repr)
    def test_unsupported_values_rejected(self, value):
        _rejected_as_unsupported(resolve_device_spec, value)


class TestEdges:
    @pytest.mark.parametrize("name", sorted(EDGE_CATALOG))
    def test_catalog_name_resolves_to_its_spec(self, name):
        assert resolve_edge_spec(name) is EDGE_CATALOG[name]

    def test_spec_passes_through(self):
        spec = get_edge_server("EDGE-TX2")
        assert resolve_edge_spec(spec) is spec

    def test_no_edge_resolves_to_none(self):
        assert resolve_edge_spec(None) is None

    def test_unknown_name_raises_unknown_device(self):
        with pytest.raises(UnknownDeviceError, match="EDGE-X"):
            resolve_edge_spec("EDGE-X")

    def test_device_spec_is_not_an_edge(self):
        _rejected_as_unsupported(resolve_edge_spec, get_device("XR7"))

    @pytest.mark.parametrize("value", UNSUPPORTED, ids=repr)
    def test_unsupported_values_rejected(self, value):
        _rejected_as_unsupported(resolve_edge_spec, value)


class TestSharedByScalarAndBatchPaths:
    """Both evaluation paths reject what the resolver rejects."""

    def test_facade_rejects_an_edge_spec_as_device(self):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            XRPerformanceModel(device=get_edge_server("EDGE-AGX"))

    def test_facade_rejects_a_device_spec_as_edge(self):
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            XRPerformanceModel(device="XR1", edge=get_device("XR2"))

    def test_batch_engine_rejects_an_edge_spec_as_device(self):
        point = OperatingPoint(
            app=ApplicationConfig.object_detection_default(),
            network=NetworkConfig(),
            device=get_edge_server("EDGE-AGX"),
            edge="EDGE-AGX",
        )
        with pytest.raises(ConfigurationError, match="cannot interpret"):
            evaluate_points([point])
