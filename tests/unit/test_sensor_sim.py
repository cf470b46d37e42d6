"""Unit tests for the event-driven AoI emulation."""

import numpy as np
import pytest

from repro.config.workload import WorkloadConfig
from repro.core.aoi import AoIModel
from repro.simulation.sensor_sim import emulate_aoi


class TestEmulation:
    def test_default_workload_has_three_sensors(self):
        emulation = emulate_aoi()
        assert len(emulation.timelines) == 3

    def test_update_counts_match_horizon(self, aoi_workload):
        emulation = emulate_aoi(aoi_workload)
        for timeline in emulation.timelines:
            period = 1e3 / timeline.generation_frequency_hz
            expected = int(np.floor(aoi_workload.horizon_ms / period))
            assert timeline.n_updates == expected

    def test_slowest_sensor_has_highest_final_aoi(self):
        emulation = emulate_aoi()
        final = {
            timeline.generation_frequency_hz: timeline.final_aoi_ms
            for timeline in emulation.timelines
        }
        assert final[66.67] > final[100.0] > final[200.0]

    def test_fast_sensor_aoi_stays_flat(self):
        emulation = emulate_aoi()
        (fast,) = [
            timeline
            for timeline in emulation.timelines
            if timeline.generation_frequency_hz == pytest.approx(200.0)
        ]
        assert np.max(fast.aoi_ms) - np.min(fast.aoi_ms) < 3.0

    def test_buffer_wait_recorded(self):
        emulation = emulate_aoi()
        assert emulation.mean_buffer_wait_ms > 0.0

    def test_emulation_close_to_analytical_model(self, aoi_workload):
        emulation = emulate_aoi(aoi_workload, seed=3)
        analytical = AoIModel(aoi_workload.buffer_service_rate_hz).timelines_for_workload(
            aoi_workload
        )
        for model_timeline, emulated in zip(analytical, emulation.timelines):
            n = min(model_timeline.n_updates, emulated.n_updates)
            gap = np.abs(model_timeline.aoi_ms[:n] - emulated.aoi_ms[:n])
            assert np.mean(gap / emulated.aoi_ms[:n]) < 0.15

    def test_single_sensor_workload(self):
        workload = WorkloadConfig(
            sensor_frequencies_hz=(100.0,), sensor_distances_m=(15.0,), horizon_ms=40.0
        )
        emulation = emulate_aoi(workload)
        assert len(emulation.timelines) == 1
        assert emulation.timelines[0].n_updates == 4
