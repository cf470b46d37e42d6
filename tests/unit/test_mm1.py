"""Unit tests for the closed-form M/M/1 queue (Eq. 7 / Eq. 22 substrate)."""

import pytest

from repro.exceptions import UnstableQueueError
from repro.queueing.mm1 import MM1Queue


class TestStability:
    def test_unstable_queue_rejected(self):
        with pytest.raises(UnstableQueueError):
            MM1Queue(arrival_rate_per_ms=1.0, service_rate_per_ms=1.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(UnstableQueueError):
            MM1Queue(arrival_rate_per_ms=-0.1, service_rate_per_ms=1.0)

    def test_idle_queue_is_a_valid_boundary_case(self):
        # A fleet with zero offloaders presents an empty queue, not an error.
        queue = MM1Queue(arrival_rate_per_ms=0.0, service_rate_per_ms=1.0)
        assert queue.utilization == 0.0
        assert queue.mean_waiting_time_ms == 0.0
        assert queue.mean_time_in_system_ms == pytest.approx(queue.mean_service_time_ms)

    def test_from_rates_hz(self):
        queue = MM1Queue.from_rates_hz(300.0, 600.0)
        assert queue.arrival_rate_per_ms == pytest.approx(0.3)
        assert queue.service_rate_per_ms == pytest.approx(0.6)


class TestFirstOrderQuantities:
    def test_utilization(self):
        assert MM1Queue(0.3, 0.6).utilization == pytest.approx(0.5)

    def test_paper_equation_22(self):
        # T = 1 / (mu - lambda)
        queue = MM1Queue(0.4, 0.9)
        assert queue.mean_time_in_system_ms == pytest.approx(1.0 / 0.5)

    def test_waiting_plus_service_equals_sojourn(self):
        queue = MM1Queue(0.2, 0.5)
        assert queue.mean_waiting_time_ms + queue.mean_service_time_ms == pytest.approx(
            queue.mean_time_in_system_ms
        )

    def test_sojourn_grows_with_load(self):
        light = MM1Queue(0.1, 1.0)
        heavy = MM1Queue(0.9, 1.0)
        assert heavy.mean_time_in_system_ms > light.mean_time_in_system_ms

