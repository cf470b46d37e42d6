"""Property-based tests of the queueing substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import littles_law_l
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import MM1Queue
from repro.queueing.simulation import simulate_single_server_queue

# Stable (arrival, service) rate pairs in packets/ms.
stable_rates = st.tuples(
    st.floats(min_value=0.01, max_value=0.95),
    st.floats(min_value=1.0, max_value=5.0),
).map(lambda pair: (pair[0] * pair[1], pair[1]))


class TestMM1Properties:
    @given(rates=stable_rates)
    def test_utilization_strictly_below_one(self, rates):
        queue = MM1Queue(*rates)
        assert 0.0 < queue.utilization < 1.0

    @given(rates=stable_rates)
    def test_sojourn_exceeds_service_time(self, rates):
        queue = MM1Queue(*rates)
        assert queue.mean_time_in_system_ms >= queue.mean_service_time_ms

    @given(rates=stable_rates)
    def test_littles_law_consistency(self, rates):
        queue = MM1Queue(*rates)
        rho = queue.utilization
        # The M/M/1 mean number in system, rho / (1 - rho), is the reference.
        assert rho / (1.0 - rho) == pytest.approx(
            littles_law_l(queue.arrival_rate_per_ms, queue.mean_time_in_system_ms)
        )

    @given(rates=stable_rates)
    def test_waiting_decomposition(self, rates):
        queue = MM1Queue(*rates)
        assert queue.mean_time_in_system_ms == pytest.approx(
            queue.mean_waiting_time_ms + queue.mean_service_time_ms
        )

    @given(rates=stable_rates)
    def test_more_load_means_longer_sojourn(self, rates):
        arrival, service = rates
        queue = MM1Queue(arrival, service)
        busier = MM1Queue(min(arrival * 1.02, service * 0.999), service)
        assert busier.mean_time_in_system_ms >= queue.mean_time_in_system_ms


class TestMG1Properties:
    @given(rates=stable_rates, scv=st.floats(min_value=0.0, max_value=4.0))
    def test_pk_waiting_time_non_negative(self, rates, scv):
        arrival, service = rates
        queue = MG1Queue(arrival, 1.0 / service, service_scv=scv)
        assert queue.mean_waiting_time_ms >= 0.0

    @given(rates=stable_rates)
    def test_mm1_equivalence(self, rates):
        arrival, service = rates
        mm1 = MG1Queue(arrival, 1.0 / service, service_scv=1.0)
        assert mm1.mean_time_in_system_ms == pytest.approx(
            MM1Queue(arrival, service).mean_time_in_system_ms
        )

    @given(rates=stable_rates, scv=st.floats(min_value=0.0, max_value=4.0))
    def test_waiting_monotone_in_variability(self, rates, scv):
        arrival, service = rates
        low = MG1Queue(arrival, 1.0 / service, service_scv=scv)
        high = MG1Queue(arrival, 1.0 / service, service_scv=scv + 0.5)
        assert high.mean_waiting_time_ms >= low.mean_waiting_time_ms


class TestSimulatorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_packets=st.integers(min_value=1, max_value=200),
    )
    def test_fifo_conservation_laws(self, seed, n_packets):
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.uniform(0.0, 100.0, n_packets))
        services = rng.exponential(1.0, n_packets)
        result = simulate_single_server_queue(arrivals, services, rng=rng)
        # Departures are ordered (FIFO), nothing departs before arriving, and
        # waiting times are non-negative.
        assert np.all(np.diff(result.departure_times_ms) >= -1e-12)
        assert np.all(result.departure_times_ms >= result.arrival_times_ms)
        assert np.all(result.waiting_times_ms >= -1e-12)
        # Work conservation: total busy time equals the sum of service times.
        busy = np.sum(result.departure_times_ms - result.start_service_times_ms)
        assert busy == pytest.approx(np.sum(services))
