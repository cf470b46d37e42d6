"""Unit tests for arrival/service process generators."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.queueing.arrivals import PoissonProcess


class TestPoissonProcess:
    def test_mean_interarrival(self):
        assert PoissonProcess(0.2).mean_interarrival_ms == pytest.approx(5.0)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ConfigurationError):
            PoissonProcess(0.0)

    def test_interarrival_sample_count(self, rng):
        gaps = PoissonProcess(0.1).sample_interarrival_times(100, rng)
        assert len(gaps) == 100
        assert np.all(gaps > 0.0)

    def test_sampled_rate_close_to_nominal(self, rng):
        process = PoissonProcess(0.5)
        times = process.sample_arrival_times(20_000.0, rng)
        empirical_rate = len(times) / 20_000.0
        assert empirical_rate == pytest.approx(0.5, rel=0.05)

    def test_arrival_times_sorted_and_within_horizon(self, rng):
        times = PoissonProcess(0.3).sample_arrival_times(1000.0, rng)
        assert np.all(np.diff(times) >= 0.0)
        assert times[-1] <= 1000.0

    def test_zero_horizon_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonProcess(0.3).sample_arrival_times(0.0, rng)
