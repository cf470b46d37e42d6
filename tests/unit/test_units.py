"""Unit tests for :mod:`repro.units`."""


import numpy as np
import pytest

from repro import units


class TestTimeConversions:
    def test_seconds_to_ms(self):
        assert units.seconds_to_ms(1.5) == pytest.approx(1500.0)

    def test_ms_to_seconds_roundtrip(self):
        assert units.ms_to_seconds(units.seconds_to_ms(0.25)) == pytest.approx(0.25)

    def test_hz_to_period_ms(self):
        assert units.hz_to_period_ms(100.0) == pytest.approx(10.0)

    def test_hz_to_period_ms_of_frame_rate(self):
        assert units.hz_to_period_ms(30.0) == pytest.approx(33.333, rel=1e-3)

    def test_period_ms_to_hz_roundtrip(self):
        assert units.period_ms_to_hz(units.hz_to_period_ms(66.67)) == pytest.approx(66.67)

    def test_hz_to_period_rejects_zero(self):
        with pytest.raises(ValueError):
            units.hz_to_period_ms(0.0)

    def test_period_to_hz_rejects_negative(self):
        with pytest.raises(ValueError):
            units.period_ms_to_hz(-5.0)


class TestDataSizes:
    def test_bytes_to_mb(self):
        assert units.bytes_to_mb(2_000_000) == pytest.approx(2.0)

    def test_mb_to_bytes_roundtrip(self):
        assert units.mb_to_bytes(units.bytes_to_mb(123456.0)) == pytest.approx(123456.0)

    def test_mb_to_megabits(self):
        assert units.mb_to_megabits(1.0) == pytest.approx(8.0)

    def test_frame_pixels_square(self):
        assert units.frame_pixels(500.0) == pytest.approx(250_000.0)

    def test_frame_pixels_rejects_non_positive(self):
        with pytest.raises(ValueError):
            units.frame_pixels(0.0)
        with pytest.raises(ValueError):
            units.frame_pixels(np.array([500.0, 0.0]))

    def test_yuv_frame_size(self):
        # 500x500 pixels x 1.5 bytes = 375 kB = 0.375 MB
        assert units.yuv_frame_size_mb(500.0) == pytest.approx(0.375)

    def test_rgb_frame_is_twice_yuv420(self):
        assert units.rgb_frame_size_mb(400.0) == pytest.approx(
            2.0 * units.yuv_frame_size_mb(400.0)
        )


class TestLatencyPrimitives:
    def test_transmission_latency(self):
        # 1 MB = 8 Mb over 100 Mbps = 80 ms
        assert units.transmission_latency_ms(1.0, 100.0) == pytest.approx(80.0)

    def test_transmission_rejects_negative_data(self):
        with pytest.raises(ValueError):
            units.transmission_latency_ms(-1.0, 100.0)

    def test_propagation_delay_speed_of_light(self):
        delay = units.propagation_delay_ms(300.0)
        assert delay == pytest.approx(300.0 / units.SPEED_OF_LIGHT_M_PER_S * 1e3)

    def test_propagation_delay_zero_distance(self):
        assert units.propagation_delay_ms(0.0) == 0.0

    def test_propagation_rejects_zero_speed(self):
        with pytest.raises(ValueError):
            units.propagation_delay_ms(10.0, 0.0)


class TestEnergyPrimitives:
    def test_energy_w_times_ms_is_mj(self):
        assert units.energy_mj(2.0, 500.0) == pytest.approx(1000.0)

    def test_energy_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            units.energy_mj(1.0, -1.0)

    def test_db_to_linear_of_ten_db(self):
        assert units.db_to_linear(10.0) == pytest.approx(10.0)

    def test_db_to_linear_of_zero_db(self):
        assert units.db_to_linear(0.0) == pytest.approx(1.0)
