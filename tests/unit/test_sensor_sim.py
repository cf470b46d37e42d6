"""Unit tests for the event-driven AoI emulation."""

import dataclasses

import numpy as np
import pytest

from repro import units
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

    def test_same_seed_gives_the_same_emulation(self, aoi_workload):
        first = emulate_aoi(aoi_workload, seed=5)
        second = emulate_aoi(aoi_workload, seed=5)
        other = emulate_aoi(aoi_workload, seed=6)
        assert first.mean_buffer_wait_ms == second.mean_buffer_wait_ms
        for a, b in zip(first.timelines, second.timelines):
            assert list(a.aoi_ms) == list(b.aoi_ms)
        assert other.mean_buffer_wait_ms != first.mean_buffer_wait_ms

    def test_updates_are_stamped_at_whole_generation_periods(self, aoi_workload):
        for timeline in emulate_aoi(aoi_workload).timelines:
            period = 1e3 / timeline.generation_frequency_hz
            cycles = np.arange(1, timeline.n_updates + 1)
            assert list(timeline.times_ms) == list(cycles * period)

    def test_no_packet_leaves_before_it_reaches_the_buffer(self, aoi_workload):
        emulation = emulate_aoi(aoi_workload)
        for timeline, distance in zip(emulation.timelines, aoi_workload.sensor_distances_m):
            requested = np.arange(timeline.n_updates) * emulation.required_update_period_ms
            departed = timeline.aoi_ms + requested
            arrived = timeline.times_ms + units.propagation_delay_ms(distance)
            assert np.all(departed > arrived)

    def test_roi_is_the_inverse_aoi_over_the_required_frequency(self, aoi_workload):
        for timeline in emulate_aoi(aoi_workload).timelines:
            expected = (1e3 / timeline.aoi_ms) / aoi_workload.required_update_frequency_hz
            assert list(timeline.roi) == list(expected)

    def test_slower_buffer_never_shortens_an_age(self, aoi_workload):
        # One seed draws the same standard exponentials; halving the service
        # rate doubles each service time, which can only delay departures.
        fast = emulate_aoi(aoi_workload, seed=3)
        slow = emulate_aoi(
            dataclasses.replace(
                aoi_workload, buffer_service_rate_hz=aoi_workload.buffer_service_rate_hz / 2
            ),
            seed=3,
        )
        for quick, sluggish in zip(fast.timelines, slow.timelines):
            assert np.all(sluggish.aoi_ms >= quick.aoi_ms)
        assert slow.mean_buffer_wait_ms > fast.mean_buffer_wait_ms

    def test_horizon_before_the_first_packet_leaves_empty_timelines(self):
        workload = WorkloadConfig(
            sensor_frequencies_hz=(100.0,), sensor_distances_m=(15.0,), horizon_ms=5.0
        )
        emulation = emulate_aoi(workload)
        assert emulation.timelines[0].n_updates == 0
        assert emulation.mean_buffer_wait_ms == 0.0

    def test_timelines_name_their_sensors_and_report_the_requested_period(self, aoi_workload):
        emulation = emulate_aoi(aoi_workload)
        assert [timeline.sensor_name for timeline in emulation.timelines] == [
            "sensor-200hz",
            "sensor-100hz",
            "sensor-67hz",
        ]
        assert emulation.required_update_period_ms == aoi_workload.required_update_period_ms
