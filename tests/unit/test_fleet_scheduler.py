"""Unit tests for the multi-tenant edge GPU scheduler."""

import math

import numpy as np
import pytest

from repro.exceptions import ModelDomainError
from repro.fleet.edge_scheduler import SERVICE_SCV, EdgeScheduler, edge_loads
from repro.queueing.mg1 import MG1Queue


# ``tagged_waiting_time_ms(s, rate, s)`` is the wait of the whole queue: a
# background of arrival rate ``rate`` and the tenant's own service time s.
class TestStabilityBoundary:
    def test_utilization(self):
        assert EdgeScheduler.utilization(0.05, 10.0) == pytest.approx(0.5)

    def test_saturated_queue_waits_forever(self):
        scheduler = EdgeScheduler()
        assert scheduler.tagged_waiting_time_ms(10.0, 0.2, 10.0) == math.inf
        assert scheduler.tagged_waiting_time_ms(10.0, 0.1, 10.0) == math.inf

    def test_wait_diverges_towards_saturation(self):
        scheduler = EdgeScheduler()
        waits = [
            scheduler.tagged_waiting_time_ms(10.0, rho / 10.0, 10.0)
            for rho in (0.5, 0.9, 0.99)
        ]
        assert waits[0] < waits[1] < waits[2]


class TestWaitingTime:
    def test_idle_queue_waits_zero(self):
        scheduler = EdgeScheduler()
        assert scheduler.tagged_waiting_time_ms(10.0, 0.0, 10.0) == 0.0

    def test_fifo_matches_pollaczek_khinchine(self):
        assert SERVICE_SCV == 0.5
        queue = MG1Queue(
            arrival_rate_per_ms=0.04, mean_service_time_ms=10.0, service_scv=0.5
        )
        assert EdgeScheduler().tagged_waiting_time_ms(10.0, 0.04, 10.0) == pytest.approx(
            queue.mean_waiting_time_ms
        )


class TestTaggedTenant:
    def test_sole_tenant_waits_zero(self):
        scheduler = EdgeScheduler()
        assert scheduler.tagged_waiting_time_ms(10.0, 0.0) == 0.0

    def test_background_load_adds_wait(self):
        scheduler = EdgeScheduler()
        assert scheduler.tagged_waiting_time_ms(10.0, 0.05) > 0.0

    def test_negative_background_rejected(self):
        with pytest.raises(ModelDomainError):
            EdgeScheduler().tagged_waiting_time_ms(10.0, -0.01)

    def test_non_positive_service_rejected(self):
        with pytest.raises(ModelDomainError):
            EdgeScheduler().tagged_waiting_time_ms(0.0, 0.01)


class TestTenantWait:
    def test_sole_tenant_waits_zero(self):
        assert EdgeScheduler().tenant_wait_ms(10.0, 0.03, 0.3, 0.03) == 0.0

    def test_marginal_tenant_on_idle_edge_waits_zero(self):
        assert EdgeScheduler().tenant_wait_ms(10.0, 0.0, 0.0) == 0.0

    def test_saturated_edge_waits_forever(self):
        assert EdgeScheduler().tenant_wait_ms(10.0, 0.1, 1.0, 0.05) == math.inf

    def test_other_tenants_are_the_tagged_background(self):
        # Two tenants of 0.03 frames/ms and 10 ms at scale 1.5: the tenant's
        # own busy share (0.03 * 10) * 1.5 leaves the edge's total.
        scheduler = EdgeScheduler()
        assert scheduler.tenant_wait_ms(10.0, 0.06, 0.9, 0.03, 1.5) == (
            scheduler.tagged_waiting_time_ms(
                15.0, 0.06 - 0.03, (0.9 - 0.03 * 10.0 * 1.5) / (0.06 - 0.03)
            )
        )

    def test_non_positive_service_rejected_even_on_idle_edge(self):
        with pytest.raises(ModelDomainError):
            EdgeScheduler().tenant_wait_ms(0.0, 0.0, 0.0)


class TestEdgeLoads:
    def test_sum_then_scale_and_idle_edges_carry_no_load(self):
        # The idle edge is dead (scale inf): it still carries no load.
        rate, busy = edge_loads(
            np.array([0.03, 0.02]),
            np.array([10.0, 7.0]),
            [np.array([0, 1, 0]), np.empty(0, dtype=np.intp)],
            [1.5, math.inf],
        )
        assert rate.tolist() == [0.03 + 0.02 + 0.03, 0.0]
        assert busy.tolist() == [(0.03 * 10.0 + 0.02 * 7.0 + 0.03 * 10.0) * 1.5, 0.0]
