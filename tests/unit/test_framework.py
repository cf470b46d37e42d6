"""Unit tests for the :class:`XRPerformanceModel` facade."""

import pytest

from repro.config.application import ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.workload import WorkloadConfig
from repro.core.framework import XRPerformanceModel
from repro.devices.catalog import get_device
from repro.devices.device import XRDevice
from repro.devices.edge_server import EdgeServer
from repro.exceptions import ConfigurationError, UnknownDeviceError


class TestConstruction:
    def test_device_and_edge_by_name(self):
        model = XRPerformanceModel(device="XR3", edge="EDGE-TX2")
        assert model.device.name == "XR3"
        assert model.edge.name == "EDGE-TX2"

    def test_device_by_spec_and_runtime_object(self):
        spec = get_device("XR4")
        assert XRPerformanceModel(device=spec).device is spec
        runtime = XRDevice(spec=spec)
        assert XRPerformanceModel(device=runtime).device is spec

    def test_edge_by_runtime_object(self):
        server = EdgeServer.from_catalog("EDGE-AGX")
        assert XRPerformanceModel(edge=server).edge is server.spec

    def test_edge_none_is_allowed(self):
        model = XRPerformanceModel(device="XR1", edge=None)
        assert model.edge is None

    def test_unknown_device_raises(self):
        with pytest.raises(UnknownDeviceError):
            XRPerformanceModel(device="XR42")

    def test_garbage_device_raises(self):
        with pytest.raises(ConfigurationError):
            XRPerformanceModel(device=123)

    def test_default_coefficients_are_paper(self, performance_model):
        assert performance_model.coefficients.source == "paper"


class TestAnalyses:
    def test_analyze_latency_uses_default_app(self, performance_model):
        assert performance_model.analyze_latency().total_ms > 0.0

    def test_analyze_energy(self, performance_model):
        assert performance_model.analyze_energy().total_mj > 0.0

    def test_analyze_report_combines_everything(self, performance_model):
        report = performance_model.analyze()
        assert report.total_latency_ms == pytest.approx(report.latency.total_ms)
        assert report.total_energy_mj == pytest.approx(report.energy.total_mj)
        assert report.total_energy_mj > 0.0
        assert report.aoi is not None
        assert report.device_name == "XR1"
        assert report.edge_name == "EDGE-AGX"

    def test_report_without_aoi(self, performance_model):
        report = performance_model.analyze(include_aoi=False)
        assert report.aoi is None

    def test_summary_text(self, performance_model):
        text = performance_model.analyze().summary()
        assert "Latency (ms):" in text
        assert "Energy (mJ):" in text

    def test_aoi_requires_sensors(self, performance_model):
        with pytest.raises(ConfigurationError):
            performance_model.analyze_aoi(network=NetworkConfig(sensors=()))

    def test_aoi_reuses_given_latency(self, performance_model):
        direct = performance_model.analyze_aoi(frame_latency_ms=500.0)
        assert direct.required_frequency_hz == pytest.approx(3.0 / 0.5)

    def test_with_app_replaces_fields(self, performance_model):
        faster = performance_model.with_app(frame_rate_fps=60.0)
        assert faster.app.frame_rate_fps == pytest.approx(60.0)
        assert performance_model.app.frame_rate_fps == pytest.approx(30.0)

    def test_aoi_timelines_default_workload(self, performance_model):
        timelines = performance_model.aoi_timelines()
        assert len(timelines) == 3

    def test_aoi_timelines_custom_workload(self, performance_model):
        workload = WorkloadConfig(
            sensor_frequencies_hz=(50.0,), sensor_distances_m=(5.0,), horizon_ms=60.0
        )
        timelines = performance_model.aoi_timelines(workload)
        assert len(timelines) == 1


class TestSweepsAndPlacement:
    def test_sweep_covers_all_points(self, performance_model):
        results = performance_model.sweep(
            frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(2.0, 3.0)
        )
        assert set(results) == {(2.0, 300.0), (2.0, 500.0), (3.0, 300.0), (3.0, 500.0)}

    def test_sweep_respects_mode(self, performance_model):
        results = performance_model.sweep(
            frame_sides_px=(300.0,), cpu_freqs_ghz=(2.0,), mode=ExecutionMode.REMOTE
        )
        report = results[(2.0, 300.0)]
        assert report.latency.mode is ExecutionMode.REMOTE

    def test_best_placement_returns_decision(self, performance_model):
        decision = performance_model.best_placement(objective="latency")
        assert decision.total_latency_ms > 0.0

    def test_best_placement_energy_objective(self, performance_model):
        decision = performance_model.best_placement(objective="energy")
        assert decision.total_energy_mj > 0.0

    def test_best_placement_on_a_standalone_headset(self, app, network):
        model = XRPerformanceModel(device="XR6", edge="EDGE-AGX")
        decision = model.best_placement("latency", app, network)
        assert decision.total_latency_ms > 0.0

    def test_remote_report_on_a_held_out_device(self, remote_app, network):
        report = XRPerformanceModel(device="XR2", edge="EDGE-AGX").analyze(remote_app, network)
        assert report.total_latency_ms > 0.0
