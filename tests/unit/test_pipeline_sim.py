"""Unit tests for the pipeline simulator and segment sampler."""

import numpy as np
import pytest

from repro.core.segments import Segment
from repro.devices.catalog import get_device, get_edge_server
from repro.measurement.truth import TestbedTruth
from repro.simulation.noise import NoiseModel
from repro.simulation.pipeline_sim import PipelineSimulator
from repro.simulation.testbed import truth_coefficients


@pytest.fixture(scope="module")
def simulator():
    truth = TestbedTruth()
    return PipelineSimulator(
        device=get_device("XR2"),
        edge=get_edge_server("EDGE-AGX"),
        exact_coefficients=truth_coefficients(truth, "XR2"),
        truth=truth,
        noise=NoiseModel(),
    )


@pytest.fixture(scope="module")
def noiseless_simulator():
    truth = TestbedTruth()
    return PipelineSimulator(
        device=get_device("XR2"),
        edge=get_edge_server("EDGE-AGX"),
        exact_coefficients=truth_coefficients(truth, "XR2"),
        truth=truth,
        noise=NoiseModel(relative_sigma=0.0, jitter_mean_ms=0.0, power_sigma=0.0),
    )


class TestSimulate:
    def test_produces_requested_frames(self, simulator, app, network):
        trace = simulator.simulate(app, network, n_frames=7, seed=1)
        assert len(trace) == 7

    def test_local_mode_segments(self, simulator, app, network):
        trace = simulator.simulate(app, network, n_frames=3, seed=1)
        segments = set(trace.frames[0].segment_latency_ms)
        assert Segment.LOCAL_INFERENCE in segments
        assert Segment.ENCODING not in segments

    def test_remote_mode_segments(self, simulator, remote_app, network):
        trace = simulator.simulate(remote_app, network, n_frames=3, seed=1)
        segments = set(trace.frames[0].segment_latency_ms)
        assert Segment.ENCODING in segments
        assert Segment.LOCAL_INFERENCE not in segments

    def test_same_seed_reproduces_trace(self, simulator, app, network):
        first = simulator.simulate(app, network, n_frames=5, seed=9)
        second = simulator.simulate(app, network, n_frames=5, seed=9)
        assert first.latencies_ms == pytest.approx(second.latencies_ms)

    def test_different_seeds_differ(self, simulator, app, network):
        first = simulator.simulate(app, network, n_frames=5, seed=1)
        second = simulator.simulate(app, network, n_frames=5, seed=2)
        assert not np.allclose(first.latencies_ms, second.latencies_ms)

    def test_invalid_frame_count_rejected(self, simulator, app, network):
        with pytest.raises(ValueError):
            simulator.simulate(app, network, n_frames=0)

    def test_noiseless_simulation_close_to_expected_breakdown(
        self, noiseless_simulator, app, network
    ):
        trace = noiseless_simulator.simulate(app, network, n_frames=3, seed=0)
        expected = noiseless_simulator.expected_breakdown(app, network)
        # The only stochastic part left is the realised buffer delay inside
        # rendering, which has the analytic value as its mean.
        assert trace.mean_latency_ms == pytest.approx(expected.total_ms, rel=0.05)

    def test_noisy_mean_latency_close_to_expected(self, simulator, app, network):
        trace = simulator.simulate(app, network, n_frames=60, seed=4)
        expected = simulator.expected_breakdown(app, network)
        assert trace.mean_latency_ms == pytest.approx(expected.total_ms, rel=0.08)

    def test_energy_scales_with_latency(self, simulator, app, network):
        trace = simulator.simulate(app, network, n_frames=20, seed=5)
        correlation = np.corrcoef(trace.latencies_ms, trace.energies_mj)[0, 1]
        assert correlation > 0.8
