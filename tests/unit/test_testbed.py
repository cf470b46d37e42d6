"""Unit tests for the simulated testbed orchestration."""

import pytest

from repro.config.application import ExecutionMode
from repro.core.coefficients import CoefficientSet
from repro.core.segments import Segment
from repro.simulation.testbed import SimulatedTestbed, truth_coefficients


class TestTruthCoefficients:
    def test_exact_coefficients_reproduce_truth_surfaces(self, truth):
        coefficients = truth_coefficients(truth, "XR2")
        for fc in (1.0, 2.0, 3.0):
            expected = truth.compute_capability(fc, 0.8, 0.8, device_name="XR2")
            assert coefficients.resource.evaluate(fc, 0.8, 0.8) == pytest.approx(expected)
            expected_power = truth.mean_power_w(fc, 0.8, 0.8, device_name="XR2")
            assert coefficients.power.evaluate(fc, 0.8, 0.8) == pytest.approx(expected_power)

    def test_exact_coefficients_source_marked(self, truth):
        assert truth_coefficients(truth, "XR1").source == "truth"

    def test_no_device_uses_nominal_surface(self, truth):
        nominal = truth_coefficients(truth, None)
        assert nominal.resource.evaluate(2.0, 0.8, 1.0) == pytest.approx(
            truth.compute_capability(2.0, 0.8, 1.0)
        )

    def test_returns_coefficient_set(self, truth):
        assert isinstance(truth_coefficients(truth, "XR3"), CoefficientSet)


class TestRuns:
    def test_run_averages_repetitions(self, quick_testbed, app, network):
        run = quick_testbed.run(app, network=network, n_frames=5, repetitions=2)
        assert len(run.trace) == 10
        assert run.mean_latency_ms > 0.0
        assert run.device_name == "XR2"

    def test_single_repetition_traces_every_frame(self, app, network):
        run = SimulatedTestbed(device="XR2", edge="EDGE-AGX").run(
            app, network=network, n_frames=20, repetitions=1
        )
        assert len(run.trace) == 20

    def test_run_rejects_zero_repetitions(self, quick_testbed, app):
        with pytest.raises(ValueError):
            quick_testbed.run(app, repetitions=0)

    def test_segment_latency_accessor(self, quick_testbed, app, network):
        run = quick_testbed.run(app, network=network, n_frames=5, repetitions=1)
        assert run.segment_latency_ms(Segment.RENDERING) > 0.0
        assert run.segment_latency_ms(Segment.ENCODING) == 0.0

    def test_sweep_covers_every_point(self, quick_testbed, quick_sweep, app, network):
        results = quick_testbed.sweep(sweep=quick_sweep, app=app, network=network)
        assert set(results) == set(quick_sweep.points())

    def test_sweep_latency_increases_with_frame_size(self, quick_testbed, quick_sweep, app, network):
        results = quick_testbed.sweep(sweep=quick_sweep, app=app, network=network)
        cpu = quick_sweep.cpu_freqs_ghz[0]
        sides = quick_sweep.frame_sides_px
        assert results[(cpu, sides[0])].mean_latency_ms < results[(cpu, sides[-1])].mean_latency_ms

    def test_remote_sweep_uses_remote_mode(self, quick_testbed, quick_sweep, app, network):
        results = quick_testbed.sweep(
            sweep=quick_sweep, app=app, network=network, mode=ExecutionMode.REMOTE
        )
        any_run = next(iter(results.values()))
        assert any_run.app.inference.mode is ExecutionMode.REMOTE

    def test_reference_run_is_remote_by_default(self, quick_testbed, app, network):
        reference = quick_testbed.reference_run(app=app, network=network, n_frames=5)
        assert reference.app.inference.mode is ExecutionMode.REMOTE

    def test_device_by_spec(self, device_spec):
        testbed = SimulatedTestbed(device=device_spec)
        assert testbed.device is device_spec

    def test_expected_breakdown_exposed(self, quick_testbed, app, network):
        breakdown = quick_testbed.expected_breakdown(app, network)
        assert breakdown.total_ms > 0.0
