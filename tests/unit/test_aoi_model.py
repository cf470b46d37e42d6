"""Unit tests for the AoI / RoI models (Eqs. 22-26)."""

import pytest

from repro.config.network import SensorConfig
from repro.core.aoi import AoIModel
from repro.exceptions import ModelDomainError


@pytest.fixture
def model():
    return AoIModel(buffer_service_rate_hz=2000.0)


class TestBufferTime:
    def test_eq22(self, model):
        # T = 1/(mu - lambda) with rates per ms
        assert model.average_buffer_time_ms(1000.0) == pytest.approx(1.0 / (2.0 - 1.0))

    def test_zero_arrival_rate_means_no_buffer_wait(self, model):
        assert model.average_buffer_time_ms(0.0) == 0.0

    def test_invalid_service_rate_rejected(self):
        with pytest.raises(ModelDomainError):
            AoIModel(buffer_service_rate_hz=0.0)


class TestUpdateAoI:
    def test_matched_sensor_has_constant_aoi(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=200.0, distance_m=0.0)
        values = [
            model.update_aoi_ms(sensor, n, required_update_period_ms=5.0, buffer_time_ms=0.0)
            for n in (1, 2, 3, 4)
        ]
        assert values == pytest.approx([5.0, 5.0, 5.0, 5.0])

    def test_slow_sensor_aoi_grows_linearly(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=100.0, distance_m=0.0)
        values = [
            model.update_aoi_ms(sensor, n, required_update_period_ms=5.0, buffer_time_ms=0.0)
            for n in (1, 2, 3)
        ]
        # The paper's Fig. 4(f) staircase: 10, 15, 20 ms.
        assert values == pytest.approx([10.0, 15.0, 20.0])

    def test_buffer_and_propagation_shift_aoi(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=100.0, distance_m=3e5)
        aoi = model.update_aoi_ms(sensor, 1, 5.0, buffer_time_ms=2.0)
        assert aoi == pytest.approx(10.0 + 1.0 + 2.0, abs=0.01)  # 300 km ~ 1 ms propagation

    def test_invalid_update_index_rejected(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=100.0)
        with pytest.raises(ModelDomainError):
            model.update_aoi_ms(sensor, 0, 5.0, 0.0)


class TestTimeline:
    def test_number_of_updates_matches_horizon(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=100.0)
        timeline = model.timeline(sensor, required_update_period_ms=5.0, horizon_ms=90.0)
        assert timeline.n_updates == 9
        assert timeline.times_ms[-1] == pytest.approx(90.0)

    def test_fig4f_roi_values(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=100.0, distance_m=0.0)
        fast_buffer = AoIModel(buffer_service_rate_hz=1e9)
        timeline = fast_buffer.timeline(sensor, 5.0, 40.0)
        assert timeline.aoi_ms[:3] == pytest.approx([10.0, 15.0, 20.0], abs=1e-4)
        assert timeline.roi[:3] == pytest.approx([0.5, 1.0 / 3.0, 0.25], abs=1e-4)

    def test_fast_sensor_is_fresh(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=400.0, distance_m=0.0)
        fast_buffer = AoIModel(buffer_service_rate_hz=1e9)
        timeline = fast_buffer.timeline(sensor, required_update_period_ms=5.0, horizon_ms=50.0)
        assert timeline.is_fresh

    def test_slow_sensor_goes_stale(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=66.67)
        timeline = model.timeline(sensor, 5.0, 90.0)
        assert not timeline.is_fresh
        assert timeline.final_aoi_ms > timeline.aoi_ms[0]

    def test_workload_timelines_one_per_sensor(self, model, aoi_workload):
        timelines = model.timelines_for_workload(aoi_workload)
        assert len(timelines) == len(aoi_workload.sensor_frequencies_hz)
        frequencies = {t.generation_frequency_hz for t in timelines}
        assert frequencies == set(aoi_workload.sensor_frequencies_hz)

    def test_invalid_horizon_rejected(self, model):
        sensor = SensorConfig(name="s", generation_frequency_hz=100.0)
        with pytest.raises(ModelDomainError):
            model.timeline(sensor, 5.0, 0.0)


class TestFrameAnalysis:
    def test_analyze_frame_reports_every_sensor(self, model, network):
        result = model.analyze_frame(network, updates_per_frame=3, frame_latency_ms=600.0)
        assert set(result.average_aoi_ms) == {s.name for s in network.sensors}
        assert set(result.roi) == set(result.average_aoi_ms)

    def test_required_frequency_derived_from_latency(self, model, network):
        result = model.analyze_frame(network, updates_per_frame=3, frame_latency_ms=600.0)
        assert result.required_frequency_hz == pytest.approx(3.0 / 0.6)

    def test_faster_sensors_have_lower_aoi(self, model, network):
        result = model.analyze_frame(network, updates_per_frame=3, frame_latency_ms=600.0)
        aoi_by_freq = {
            sensor.generation_frequency_hz: result.average_aoi_ms[sensor.name]
            for sensor in network.sensors
        }
        frequencies = sorted(aoi_by_freq)
        assert aoi_by_freq[frequencies[0]] > aoi_by_freq[frequencies[-1]]

    def test_fresh_sensors_are_those_with_roi_of_at_least_one(self, model, network):
        result = model.analyze_frame(network, updates_per_frame=3, frame_latency_ms=600.0)
        fresh = set(result.fresh_sensors())
        assert fresh <= set(result.roi)
        assert all((value >= 1.0) == (name in fresh) for name, value in result.roi.items())

    def test_str_mentions_every_sensor(self, model, network):
        result = model.analyze_frame(network, updates_per_frame=3, frame_latency_ms=600.0)
        text = str(result)
        for sensor in network.sensors:
            assert sensor.name in text

    def test_invalid_inputs_rejected(self, model, network):
        with pytest.raises(ModelDomainError):
            model.analyze_frame(network, updates_per_frame=0, frame_latency_ms=100.0)
        with pytest.raises(ModelDomainError):
            model.analyze_frame(network, updates_per_frame=3, frame_latency_ms=0.0)
