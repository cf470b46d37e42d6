"""Unit tests for the event-driven single-server queue simulator."""

import numpy as np
import pytest

from oracles import relative_gap
from repro.exceptions import SimulationError
from repro.queueing.mm1 import MM1Queue
from repro.queueing.simulation import simulate_mm1, simulate_single_server_queue


class TestDeterministicScenarios:
    def test_no_waiting_when_arrivals_are_spread_out(self):
        result = simulate_single_server_queue([0.0, 10.0, 20.0], [1.0, 1.0, 1.0])
        assert np.all(result.waiting_times_ms == 0.0)
        assert list(result.departure_times_ms) == pytest.approx([1.0, 11.0, 21.0])

    def test_back_to_back_arrivals_queue_up(self):
        result = simulate_single_server_queue([0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        assert list(result.waiting_times_ms) == pytest.approx([0.0, 2.0, 4.0])
        assert list(result.sojourn_times_ms) == pytest.approx([2.0, 4.0, 6.0])

    def test_sojourn_is_wait_plus_service(self):
        result = simulate_single_server_queue([0.0, 1.0, 1.5], [1.0, 0.5, 2.0])
        services = result.departure_times_ms - result.start_service_times_ms
        assert np.allclose(result.sojourn_times_ms, result.waiting_times_ms + services)

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(SimulationError):
            simulate_single_server_queue([5.0, 1.0], [1.0, 1.0])

    def test_service_count_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            simulate_single_server_queue([0.0, 1.0], [1.0])

    def test_negative_service_rejected(self):
        with pytest.raises(SimulationError):
            simulate_single_server_queue([0.0], [-1.0])

    def test_callable_service_times(self, rng):
        result = simulate_single_server_queue(
            [0.0, 1.0, 2.0], lambda i, generator: 0.5 * (i + 1), rng=rng
        )
        assert result.n_packets == 3
        assert result.departure_times_ms[0] == pytest.approx(0.5)

    def test_empty_arrivals(self):
        result = simulate_single_server_queue([], [])
        assert result.n_packets == 0
        assert result.mean_sojourn_time_ms == 0.0


class TestAgainstTheory:
    def test_simulated_mm1_matches_closed_form(self, rng):
        arrival, service = 0.4, 1.0
        result = simulate_mm1(arrival, service, horizon_ms=200_000.0, rng=rng)
        theory = MM1Queue(arrival, service)
        assert relative_gap(result.mean_sojourn_time_ms, theory.mean_time_in_system_ms) < 0.05
        assert relative_gap(result.utilization, theory.utilization) < 0.05
