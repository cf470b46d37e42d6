"""Unit tests for the thermal model."""

import pytest

from repro.devices.catalog import get_device
from repro.devices.thermals import ThermalModel


class TestThermalEnergy:
    def test_fraction_of_consumed_energy(self):
        model = ThermalModel(thermal_fraction=0.1)
        assert model.thermal_energy_mj(200.0) == pytest.approx(20.0)

    def test_rejects_negative_energy(self):
        with pytest.raises(ValueError):
            ThermalModel().thermal_energy_mj(-1.0)

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ThermalModel(thermal_fraction=1.5)

    def test_from_spec_uses_device_fraction(self):
        spec = get_device("XR6")
        assert ThermalModel.from_spec(spec).thermal_fraction == pytest.approx(
            spec.thermal_fraction
        )


class TestTemperatureDynamics:
    def test_starts_at_ambient(self):
        model = ThermalModel(ambient_c=25.0)
        assert model.temperature_c == pytest.approx(25.0)

    def test_heating_raises_temperature(self):
        model = ThermalModel()
        before = model.temperature_c
        model.step(consumed_energy_mj=5000.0, duration_ms=1000.0)
        assert model.temperature_c > before

    def test_no_load_keeps_ambient(self):
        model = ThermalModel()
        model.step(consumed_energy_mj=0.0, duration_ms=1000.0)
        assert model.temperature_c == pytest.approx(model.ambient_c, abs=1e-6)

    def test_cooling_towards_ambient_after_load(self):
        model = ThermalModel()
        for _ in range(50):
            model.step(consumed_energy_mj=8000.0, duration_ms=1000.0)
        hot = model.temperature_c
        for _ in range(50):
            model.step(consumed_energy_mj=0.0, duration_ms=1000.0)
        assert model.temperature_c < hot

    def test_throttling_flag_on_sustained_load(self):
        model = ThermalModel(
            thermal_fraction=0.3,
            thermal_resistance_c_per_w=30.0,
            thermal_capacitance_j_per_c=5.0,
        )
        for _ in range(500):
            model.step(consumed_energy_mj=10_000.0, duration_ms=1000.0)
        assert model.is_throttling

    def test_step_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            ThermalModel().step(10.0, 0.0)
