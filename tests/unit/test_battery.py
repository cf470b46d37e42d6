"""Unit tests for the battery model."""

import pytest

from repro.devices.battery import Battery
from repro.devices.catalog import get_device
from repro.exceptions import ConfigurationError


class TestConstruction:
    def test_full_by_default(self):
        battery = Battery(capacity_mj=1000.0)
        assert battery.remaining_mj == pytest.approx(1000.0)
        assert battery.state_of_charge == pytest.approx(1.0)

    def test_from_spec(self):
        battery = Battery.from_spec(get_device("XR1"))
        assert battery.capacity_mj == pytest.approx(get_device("XR1").battery_capacity_mj)

    def test_remaining_cannot_exceed_capacity(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity_mj=100.0, remaining_mj=200.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            Battery(capacity_mj=-1.0)


class TestDrain:
    def test_drain_reduces_charge(self):
        battery = Battery(capacity_mj=1000.0)
        drawn = battery.drain(300.0)
        assert drawn == pytest.approx(300.0)
        assert battery.remaining_mj == pytest.approx(700.0)
        assert battery.state_of_charge == pytest.approx(0.7)

    def test_drain_is_capped_at_remaining(self):
        battery = Battery(capacity_mj=100.0)
        assert battery.drain(250.0) == pytest.approx(100.0)
        assert battery.remaining_mj == 0.0

    def test_drain_rejects_negative(self):
        with pytest.raises(ValueError):
            Battery(capacity_mj=10.0).drain(-1.0)

    def test_tethered_device_never_depletes(self):
        battery = Battery.from_spec(get_device("XR7"))
        assert battery.is_tethered
        assert battery.drain(1e9) == pytest.approx(1e9)
        assert battery.state_of_charge == pytest.approx(1.0)


class TestRuntime:
    def test_frames_remaining(self):
        battery = Battery(capacity_mj=1000.0)
        assert battery.frames_remaining(10.0) == pytest.approx(100.0)

    def test_frames_remaining_rejects_zero_cost(self):
        with pytest.raises(ValueError):
            Battery(capacity_mj=10.0).frames_remaining(0.0)

    def test_runtime_remaining_seconds(self):
        battery = Battery(capacity_mj=1000.0)
        # 10 mJ per 100 ms frame -> 100 frames -> 10 seconds
        assert battery.runtime_remaining_s(10.0, 100.0) == pytest.approx(10.0)

    def test_tethered_runtime_is_infinite(self):
        battery = Battery(capacity_mj=0.0)
        assert battery.runtime_remaining_s(10.0, 100.0) == float("inf")
