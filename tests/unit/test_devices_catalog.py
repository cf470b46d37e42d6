"""Unit tests for the Table I device catalog."""

from dataclasses import replace

import pytest

from repro.config.device import DeviceSpec, EdgeServerSpec
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
from repro.exceptions import ConfigurationError, UnknownDeviceError


class TestCatalogContents:
    def test_seven_xr_devices(self):
        assert len(DEVICE_CATALOG) == 7
        assert set(DEVICE_CATALOG) == {f"XR{i}" for i in range(1, 8)}

    def test_two_edge_servers(self):
        assert len(EDGE_CATALOG) == 2

    def test_xr1_matches_table_one(self):
        xr1 = get_device("XR1")
        assert xr1.model == "Huawei Mate 40 Pro"
        assert xr1.soc == "Kirin 9000"
        assert xr1.cpu_max_freq_ghz == pytest.approx(3.13)
        assert xr1.ram_gb == pytest.approx(8.0)
        assert "ax" in xr1.wifi_standards

    def test_xr6_is_quest_2(self):
        assert get_device("XR6").model == "Meta Quest 2"
        assert get_device("XR6").os_name == "Oculus OS"

    def test_xr7_is_external_jetson(self):
        xr7 = get_device("XR7")
        assert xr7.role == "external"
        assert xr7.battery_capacity_mah == 0.0

    def test_edge_agx_has_512_cuda_cores(self):
        assert get_edge_server("EDGE-AGX").gpu_cuda_cores == 512

    def test_agx_uses_paper_compute_scale(self):
        assert get_edge_server("EDGE-AGX").compute_scale_vs_client == pytest.approx(11.76)


class TestTrainTestSplit:
    def test_split_matches_paper(self):
        assert TRAIN_DEVICES == ("XR1", "XR3", "XR5", "XR6")
        assert TEST_DEVICES == ("XR2", "XR4", "XR7")

    def test_split_is_disjoint_and_complete(self):
        assert not set(TRAIN_DEVICES) & set(TEST_DEVICES)
        assert set(TRAIN_DEVICES) | set(TEST_DEVICES) == set(DEVICE_CATALOG)


class TestLookups:
    def test_unknown_device_raises(self):
        with pytest.raises(UnknownDeviceError, match="XR99"):
            get_device("XR99")

    def test_unknown_edge_raises(self):
        with pytest.raises(UnknownDeviceError):
            get_edge_server("EDGE-NONE")

    def test_list_devices_sorted(self):
        names = [device.name for device in list_devices()]
        assert names == sorted(names)
        assert len(names) == 7

    def test_list_edge_servers_returns_specs(self):
        edges = list_edge_servers()
        assert all(isinstance(edge, EdgeServerSpec) for edge in edges)
        assert len(edges) == 2

    def test_devices_are_specs(self):
        assert all(isinstance(device, DeviceSpec) for device in list_devices())


class TestDerivedSpecProperties:
    def test_battery_capacity_mj(self):
        xr1 = get_device("XR1")
        expected = 4400.0 * xr1.battery_voltage_v * 3600.0
        assert xr1.battery_capacity_mj == pytest.approx(expected)

    def test_with_memory_bandwidth_copy(self):
        xr1 = get_device("XR1")
        modified = xr1.with_memory_bandwidth(10.0)
        assert modified.memory_bandwidth_gb_s == pytest.approx(10.0)
        assert xr1.memory_bandwidth_gb_s != 10.0
        # The delta/m term divides by it without a check of its own.
        with pytest.raises(ConfigurationError):
            xr1.with_memory_bandwidth(0.0)
        with pytest.raises(ConfigurationError):
            replace(get_edge_server("EDGE-AGX"), memory_bandwidth_gb_s=0.0)

    def test_describe_mentions_model(self):
        assert "Huawei" in get_device("XR1").describe()
        assert "Xavier" in get_edge_server("EDGE-AGX").describe()
