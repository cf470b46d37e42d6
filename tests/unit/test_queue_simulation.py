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

    def test_negative_drawn_service_rejected(self, rng):
        with pytest.raises(SimulationError):
            simulate_single_server_queue([0.0, 1.0], lambda i, generator: 1.0 - i * 2.0, rng=rng)

    def test_two_dimensional_arrivals_rejected(self):
        with pytest.raises(SimulationError):
            simulate_single_server_queue([[0.0, 1.0]], [1.0, 1.0])


class TestServiceOrder:
    def test_service_starts_at_the_later_of_arrival_and_previous_departure(self):
        # Packet 1 queues behind packet 0, packet 2 finds the server idle.
        result = simulate_single_server_queue([0.0, 1.0, 10.0], [4.0, 2.0, 1.0])
        assert list(result.start_service_times_ms) == [0.0, 4.0, 10.0]
        assert list(result.departure_times_ms) == [4.0, 6.0, 11.0]
        assert list(result.waiting_times_ms) == [0.0, 3.0, 0.0]

    def test_coinciding_arrivals_are_served_in_the_order_given(self):
        # FIFO, not shortest job first: the long job listed first goes first.
        result = simulate_single_server_queue([0.0, 0.0, 0.0], [3.0, 1.0, 2.0])
        assert list(result.departure_times_ms) == [3.0, 4.0, 6.0]

    def test_callable_is_asked_once_per_packet_in_arrival_order(self, rng):
        asked = []

        def service(index, generator):
            asked.append((index, generator))
            return 1.0

        simulate_single_server_queue([0.0, 0.5, 0.5, 2.0], service, rng=rng)
        assert [index for index, _ in asked] == [0, 1, 2, 3]
        assert all(generator is rng for _, generator in asked)

    def test_drawn_services_are_the_generator_stream_in_packet_order(self):
        arrivals = [0.0, 0.1, 0.1, 0.3, 2.0]
        drawn = simulate_single_server_queue(
            arrivals,
            lambda _, generator: generator.exponential(0.5),
            rng=np.random.default_rng(11),
        )
        expected = np.random.default_rng(11).exponential(0.5, size=len(arrivals))
        services = drawn.departure_times_ms - drawn.start_service_times_ms
        assert list(services) == pytest.approx(list(expected), rel=1e-12, abs=0.0)

    def test_callable_without_generator_is_reproducible(self):
        def service(_, generator):
            return generator.exponential(1.0)

        first = simulate_single_server_queue([0.0, 1.0, 2.0], service)
        second = simulate_single_server_queue([0.0, 1.0, 2.0], service)
        assert list(first.departure_times_ms) == list(second.departure_times_ms)

    def test_utilization_is_busy_time_over_the_last_departure(self):
        result = simulate_single_server_queue([0.0, 10.0], [2.0, 3.0])
        assert result.utilization == 5.0 / 13.0


class TestAgainstTheory:
    def test_simulated_mm1_matches_closed_form(self, rng):
        arrival, service = 0.4, 1.0
        result = simulate_mm1(arrival, service, horizon_ms=200_000.0, rng=rng)
        theory = MM1Queue(arrival, service)
        assert relative_gap(result.mean_sojourn_time_ms, theory.mean_time_in_system_ms) < 0.05
        assert relative_gap(result.utilization, theory.utilization) < 0.05
