"""Unit tests for external sensors and the input buffer."""

import pytest

from oracles import simulate_buffer_delays
from repro import units
from repro.config.network import NetworkConfig, SensorConfig
from repro.exceptions import UnstableQueueError
from repro.queueing.mm1 import MM1Queue
from repro.sensors.buffer import InputBuffer
from repro.sensors.sensor import ExternalSensor


class TestExternalSensor:
    def test_update_latency_is_eq6(self):
        sensor = ExternalSensor(SensorConfig(name="s", generation_frequency_hz=100.0, distance_m=30.0))
        expected = 10.0 + units.propagation_delay_ms(30.0)
        assert sensor.update_latency_ms() == pytest.approx(expected)

    def test_total_latency_scales_with_updates(self):
        sensor = ExternalSensor(SensorConfig(name="s", generation_frequency_hz=50.0))
        assert sensor.total_latency_ms(3) == pytest.approx(3.0 * sensor.update_latency_ms())

    def test_total_latency_rejects_negative_updates(self):
        sensor = ExternalSensor(SensorConfig(name="s", generation_frequency_hz=50.0))
        with pytest.raises(ValueError):
            sensor.total_latency_ms(-1)

    def test_distance_override(self):
        sensor = ExternalSensor(SensorConfig(name="s", generation_frequency_hz=100.0, distance_m=10.0))
        near = sensor.update_latency_ms(distance_m=1.0)
        far = sensor.update_latency_ms(distance_m=10_000.0)
        assert far > near


class TestInputBuffer:
    def test_stream_delay_matches_mm1(self):
        buffer = InputBuffer(service_rate_hz=600.0)
        expected = MM1Queue.from_rates_hz(30.0, 600.0).mean_time_in_system_ms
        assert buffer.stream_delay_ms(30.0) == pytest.approx(expected)

    def test_analytical_delays_sum(self, app, network):
        buffer = InputBuffer(app.buffer_service_rate_hz)
        delays = buffer.analytical_delays(app, network)
        assert delays.total_ms == pytest.approx(
            delays.frame_ms + delays.volumetric_ms + delays.external_ms
        )
        assert delays.external_ms > 0.0

    def test_no_sensors_means_no_external_delay(self, app):
        buffer = InputBuffer(app.buffer_service_rate_hz)
        delays = buffer.analytical_delays(app, NetworkConfig(sensors=()))
        assert delays.external_ms == 0.0

    def test_unstable_buffer_rejected(self):
        buffer = InputBuffer(service_rate_hz=100.0)
        with pytest.raises(UnstableQueueError):
            buffer.stream_delay_ms(200.0)

    def test_zero_service_rate_rejected(self):
        with pytest.raises(UnstableQueueError):
            InputBuffer(service_rate_hz=0.0)

    def test_simulated_delays_capture_cross_stream_interference(self, app, network, rng):
        buffer = InputBuffer(app.buffer_service_rate_hz)
        analytical = buffer.analytical_delays(app, network)
        simulated = simulate_buffer_delays(app, network, horizon_ms=200_000.0, rng=rng)
        # The analytical model treats each stream as its own M/M/1 queue, so the
        # simulated shared buffer (where streams interfere) is never faster.
        assert simulated.total_ms >= analytical.total_ms * 0.9
        # Every packet of the shared FIFO buffer sees an M/M/1 system loaded with
        # the aggregate arrival rate; the per-frame total is three such sojourns.
        total_rate_hz = 2.0 * app.frame_rate_fps + network.total_sensor_arrival_rate_hz
        shared = MM1Queue.from_rates_hz(total_rate_hz, app.buffer_service_rate_hz)
        assert simulated.total_ms == pytest.approx(3.0 * shared.mean_time_in_system_ms, rel=0.2)

    def test_aoi_service_time_matches_eq22(self, network):
        buffer = InputBuffer(service_rate_hz=2000.0)
        arrival = network.total_sensor_arrival_rate_hz
        expected = 1.0 / (2.0 - arrival / 1e3)
        assert buffer.stream_delay_ms(arrival) == pytest.approx(expected)
