"""Unit tests for the noise model and run traces."""

import numpy as np
import pytest

from repro.core.segments import Segment
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.noise import NoiseModel
from repro.simulation.trace import FrameTrace, RunTrace


class TestNoiseModel:
    def test_zero_noise_is_deterministic(self, rng):
        noise = NoiseModel(relative_sigma=0.0, jitter_mean_ms=0.0, power_sigma=0.0)
        assert noise.latency_ms(123.0, rng) == pytest.approx(123.0)
        assert noise.power_w(2.5, rng) == pytest.approx(2.5)

    def test_zero_expected_latency_stays_zero(self, rng):
        assert NoiseModel().latency_ms(0.0, rng) == 0.0

    def test_noisy_latency_unbiased_within_tolerance(self, rng):
        noise = NoiseModel(relative_sigma=0.05, jitter_mean_ms=0.0)
        samples = [noise.latency_ms(100.0, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.02)

    def test_jitter_adds_positive_bias(self, rng):
        noise = NoiseModel(relative_sigma=0.0, jitter_mean_ms=2.0)
        samples = [noise.latency_ms(100.0, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(102.0, rel=0.03)
        assert min(samples) >= 100.0

    def test_latency_never_negative(self, rng):
        noise = NoiseModel(relative_sigma=0.5, jitter_mean_ms=0.0)
        assert all(noise.latency_ms(1.0, rng) > 0.0 for _ in range(1000))

    def test_power_never_negative(self, rng):
        noise = NoiseModel(power_sigma=1.0)
        assert all(noise.power_w(0.2, rng) >= 0.0 for _ in range(1000))

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseModel(relative_sigma=-0.1)

    def test_negative_expected_latency_rejected(self, rng):
        with pytest.raises(ValueError):
            NoiseModel().latency_ms(-1.0, rng)


class TestTraces:
    def _frame(self, index=0, latency=100.0, energy=200.0, handoff=False):
        return FrameTrace(
            frame_index=index,
            segment_latency_ms={Segment.FRAME_GENERATION: latency, Segment.RENDERING: 50.0},
            segment_energy_mj={Segment.FRAME_GENERATION: energy, Segment.RENDERING: 80.0},
            thermal_mj=10.0,
            base_mj=20.0,
            handoff_occurred=handoff,
        )

    def test_frame_totals(self):
        frame = self._frame()
        assert frame.total_latency_ms == pytest.approx(150.0)
        assert frame.total_energy_mj == pytest.approx(200.0 + 80.0 + 10.0 + 20.0)

    def test_run_trace_means(self):
        trace = RunTrace([self._frame(0, 100.0), self._frame(1, 200.0)])
        assert trace.mean_latency_ms == pytest.approx((150.0 + 250.0) / 2.0)
        assert len(trace) == 2

    def test_segment_means(self):
        trace = RunTrace([self._frame(0, 100.0), self._frame(1, 300.0)])
        means = trace.mean_segment_latency_ms()
        assert means[Segment.FRAME_GENERATION] == pytest.approx(200.0)
        assert means[Segment.RENDERING] == pytest.approx(50.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            RunTrace([])
