"""Unit tests for the Pollaczek-Khinchine M/G/1 queue."""

import pytest

from repro.exceptions import UnstableQueueError
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import MM1Queue


class TestConstruction:
    def test_unstable_rejected(self):
        with pytest.raises(UnstableQueueError):
            MG1Queue(arrival_rate_per_ms=1.0, mean_service_time_ms=1.5)

    def test_negative_scv_rejected(self):
        with pytest.raises(UnstableQueueError):
            MG1Queue(arrival_rate_per_ms=0.1, mean_service_time_ms=1.0, service_scv=-0.5)

    def test_negative_arrival_rate_rejected(self):
        with pytest.raises(UnstableQueueError):
            MG1Queue(arrival_rate_per_ms=-0.1, mean_service_time_ms=1.0)

    def test_idle_queue_is_a_valid_boundary_case(self):
        # A fleet with zero offloaders presents an empty queue, not an error.
        queue = MG1Queue(arrival_rate_per_ms=0.0, mean_service_time_ms=1.0)
        assert queue.utilization == 0.0
        assert queue.mean_waiting_time_ms == 0.0
        assert queue.mean_time_in_system_ms == pytest.approx(1.0)


class TestSpecialCases:
    def test_mm1_special_case_matches_mm1_queue(self):
        # Exponential service (mean 1/mu = 1 ms) has SCV 1: M/G/1 is M/M/1.
        mg1 = MG1Queue(0.4, 1.0, service_scv=1.0)
        mm1 = MM1Queue(0.4, 1.0)
        assert mg1.mean_time_in_system_ms == pytest.approx(mm1.mean_time_in_system_ms)

    def test_md1_waits_half_of_mm1(self):
        md1 = MG1Queue.md1(arrival_rate_per_ms=0.4, mean_service_time_ms=1.0)
        mm1 = MG1Queue(0.4, 1.0, service_scv=1.0)
        assert md1.mean_waiting_time_ms == pytest.approx(mm1.mean_waiting_time_ms / 2.0)

    def test_utilization(self):
        assert MG1Queue(0.25, 2.0).utilization == pytest.approx(0.5)

    def test_higher_variability_means_longer_waits(self):
        low = MG1Queue(0.4, 1.0, service_scv=0.2)
        high = MG1Queue(0.4, 1.0, service_scv=2.0)
        assert high.mean_waiting_time_ms > low.mean_waiting_time_ms
