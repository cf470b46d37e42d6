"""Integration tests: offloading decisions and session-length scenarios."""

import dataclasses

import pytest

from repro.config.application import ExecutionMode, InferenceConfig
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.devices.battery import Battery
from repro.devices.catalog import get_device


class TestOffloadingTradeoffs:
    def test_slow_network_pushes_inference_local(self):
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
        congested = NetworkConfig(throughput_mbps=2.0)
        fast = NetworkConfig(throughput_mbps=500.0)
        slow_decision = model.best_placement(objective="latency", network=congested)
        fast_decision = model.best_placement(objective="latency", network=fast)
        # With a 2 Mbps uplink, transmitting frames costs more than the local CNN.
        congested_remote = model.analyze_latency(
            model.app.with_mode(ExecutionMode.REMOTE), congested
        )
        congested_local = model.analyze_latency(model.app, congested)
        assert congested_local.total_ms < congested_remote.total_ms
        assert slow_decision.total_latency_ms <= fast_decision.total_latency_ms + 1e6

    def test_split_across_two_edges_beats_single_edge_for_remote_inference(self):
        model = XRPerformanceModel(device="XR3", edge="EDGE-TX2")
        app = model.app
        single = dataclasses.replace(
            app, inference=InferenceConfig(mode=ExecutionMode.REMOTE)
        )
        split = dataclasses.replace(
            app,
            inference=InferenceConfig(
                mode=ExecutionMode.REMOTE, omega_client=0.0, edge_shares=(0.5, 0.5)
            ),
        )
        single_latency = model.analyze_latency(single).segment_ms(Segment.REMOTE_INFERENCE)
        split_latency = model.analyze_latency(split).segment_ms(Segment.REMOTE_INFERENCE)
        assert split_latency < single_latency

    def test_weaker_device_benefits_more_from_offloading(self):
        strong = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
        weak = XRPerformanceModel(device="XR5", edge="EDGE-AGX")
        # Compare the local-inference segment cost across devices: the paper's
        # resource model is device-agnostic, but the memory subsystem differs.
        strong_local = strong.analyze_latency().segment_ms
        weak_local = weak.analyze_latency().segment_ms
        assert weak_local(Segment.LOCAL_INFERENCE) >= strong_local(Segment.LOCAL_INFERENCE)


class TestSessionLength:
    def test_battery_supports_fewer_frames_at_higher_clock(self):
        model = XRPerformanceModel(device="XR6", edge="EDGE-AGX")
        slow = model.analyze_energy(model.app.with_cpu_freq(2.0))
        fast = model.analyze_energy(model.app.with_cpu_freq(2.84))
        battery = Battery.from_spec(get_device("XR6"))
        frames_slow = battery.frames_remaining(slow.total_mj)
        frames_fast = battery.frames_remaining(fast.total_mj)
        assert frames_fast < frames_slow

    def test_quest2_session_outlasts_minutes(self):
        model = XRPerformanceModel(device="XR6", edge="EDGE-AGX")
        report = model.analyze(include_aoi=False)
        battery = Battery.from_spec(get_device("XR6"))
        runtime_s = battery.runtime_remaining_s(
            report.total_energy_mj, report.total_latency_ms
        )
        # A Quest 2 battery holds ~50 kJ; at a few J per ~0.5 s frame the
        # session should last between tens of minutes and several hours.
        assert 600.0 < runtime_s < 6 * 3600.0


class TestCrossDeviceConsistency:
    @pytest.mark.parametrize("device", ["XR1", "XR2", "XR3", "XR4", "XR5", "XR6"])
    def test_every_catalog_device_analyzable(self, device):
        model = XRPerformanceModel(device=device, edge="EDGE-AGX")
        report = model.analyze(include_aoi=False)
        assert report.total_latency_ms > 0.0
        assert report.total_energy_mj > 0.0

    def test_low_memory_bandwidth_device_pays_more_for_memory(self):
        fast_mem = XRPerformanceModel(device="XR1")  # LPDDR5, 44 GB/s
        slow_mem = XRPerformanceModel(device="XR3")  # LPDDR4X, 14.9 GB/s
        assert (
            slow_mem.analyze_latency().total_ms >= fast_mem.analyze_latency().total_ms
        )
