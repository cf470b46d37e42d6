"""Property-based tests of the fleet layer (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.devices.catalog import DEVICE_CATALOG
from repro.fleet import (
    ContentionModel,
    EdgeScheduler,
    FleetAnalyzer,
    FleetPopulation,
    UserProfile,
    homogeneous,
)
from repro.fleet.admission import RoundRobinAdmission
from repro.fleet.edge_scheduler import edge_loads

station_counts = st.integers(min_value=1, max_value=512)


class TestContentionProperties:
    @given(n=station_counts, throughput=st.floats(min_value=10.0, max_value=1000.0))
    def test_per_user_rate_non_increasing_in_n(self, n, throughput):
        model = ContentionModel(network=NetworkConfig(throughput_mbps=throughput))
        assert model.per_user_throughput_mbps(n) >= model.per_user_throughput_mbps(n + 1)

    @given(n=station_counts)
    def test_per_user_rate_bounded_by_fair_share(self, n):
        model = ContentionModel(network=NetworkConfig())
        fair_share = model.network.throughput_mbps / n
        assert 0.0 < model.per_user_throughput_mbps(n) <= fair_share


class TestSchedulerProperties:
    @given(
        rho=st.floats(min_value=0.0, max_value=0.98),
        service=st.floats(min_value=0.5, max_value=50.0),
    )
    def test_waiting_time_non_negative_and_monotone_in_load(self, rho, service):
        # With the full load as background, the tagged wait is the queue's.
        scheduler = EdgeScheduler()
        wait = scheduler.tagged_waiting_time_ms(service, rho / service, service)
        heavier = scheduler.tagged_waiting_time_ms(
            service, min(rho + 0.01, 0.999) / service, service
        )
        assert wait >= 0.0
        assert heavier >= wait


def reference_tenant_wait(scheduler, service, edge_rate, edge_busy, own_rate, scale):
    """The tagged wait of the other tenants' load, with no idle-edge shortcut."""
    if edge_busy >= 1.0:
        return math.inf
    background = max(edge_rate - own_rate, 0.0)
    background_busy = max(edge_busy - own_rate * service * scale, 0.0)
    return scheduler.tagged_waiting_time_ms(
        service * scale,
        background,
        background_busy / background if background > 0.0 else None,
    )


#: Service scales: powers of two (where summing and scaling commute) and not.
service_scales = st.one_of(st.sampled_from((1.0, 2.0, 4.0)), st.floats(1.0, 8.0))


class TestEdgeLoadProperties:
    """``edge_loads`` and ``tenant_wait_ms`` against a per-tenant Python loop."""

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=0.06),  # frames/ms
                st.floats(min_value=0.5, max_value=40.0),  # ms per frame
            ),
            min_size=1,
            max_size=4,
        ),
        data=st.data(),
    )
    def test_loads_and_waits_match_per_tenant_loop(self, kinds, data):
        scheduler = EdgeScheduler()
        n_edges = data.draw(st.integers(min_value=1, max_value=5))
        # Possibly empty, so idle edges occur; long lists saturate an edge.
        tenants = data.draw(
            st.lists(
                st.lists(st.integers(0, len(kinds) - 1), max_size=8),
                min_size=n_edges,
                max_size=n_edges,
            )
        )
        scale = data.draw(st.lists(service_scales, min_size=n_edges, max_size=n_edges))
        rate = [r for r, _ in kinds]
        service = [s for _, s in kinds]
        edge_rate, edge_busy = edge_loads(
            np.asarray(rate),
            np.asarray(service),
            [np.asarray(t, dtype=np.intp) for t in tenants],
            scale,
        )
        marginal = data.draw(st.sampled_from(service))
        for edge, on_edge in enumerate(tenants):
            total_rate = total = 0.0
            for kind in on_edge:
                total_rate += rate[kind]
                total += rate[kind] * service[kind]
            busy = total * scale[edge] if on_edge else 0.0
            assert edge_rate[edge] == total_rate
            assert edge_busy[edge] == busy
            for kind in on_edge:
                assert scheduler.tenant_wait_ms(
                    service[kind], total_rate, busy, rate[kind], scale[edge]
                ) == reference_tenant_wait(
                    scheduler, service[kind], total_rate, busy, rate[kind], scale[edge]
                )
            # A marginal tenant, not yet placed, brings no load of its own.
            assert scheduler.tenant_wait_ms(
                marginal, total_rate, busy, scale=scale[edge]
            ) == reference_tenant_wait(scheduler, marginal, total_rate, busy, 0.0, scale[edge])


class TestSingleUserEquivalenceProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        device=st.sampled_from(("XR1", "XR2", "XR3", "XR6")),
        mode=st.sampled_from((ExecutionMode.LOCAL, ExecutionMode.REMOTE)),
        cpu_freq=st.sampled_from((1.0, 2.0, 3.0)),
        frame_side=st.sampled_from((300.0, 500.0, 700.0)),
    )
    def test_fleet_of_one_equals_single_user_model(
        self, device, mode, cpu_freq, frame_side
    ):
        app = ApplicationConfig(
            cpu_freq_ghz=cpu_freq, frame_side_px=frame_side
        ).with_mode(mode)
        single = XRPerformanceModel(device=device, edge="EDGE-AGX").analyze(app)
        fleet = FleetAnalyzer(homogeneous(1, device=device, app=app)).analyze()
        assert fleet.p50_latency_ms == single.total_latency_ms
        assert fleet.outcomes[0].energy_mj == single.total_energy_mj


class TestFleetMonotonicityProperty:
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8))
    def test_adding_a_user_never_improves_p95(self, n):
        app = ApplicationConfig.object_detection_default().with_mode(
            ExecutionMode.REMOTE
        )

        def p95(size):
            return FleetAnalyzer(
                homogeneous(size, device="XR1", app=app)
            ).analyze().p95_latency_ms

        assert p95(n) <= p95(n + 1) or p95(n + 1) == pytest.approx(p95(n))

    @settings(max_examples=40, deadline=None)
    @given(
        device=st.sampled_from(sorted(DEVICE_CATALOG)),
        side=st.floats(300.0, 700.0),
        cpu_freq=st.floats(0.8, 3.2),
        fps=st.sampled_from((10.0, 30.0, 60.0)),
        mode=st.sampled_from(tuple(ExecutionMode)),
        n_users=st.integers(min_value=1, max_value=60),
        n_edges=st.integers(min_value=1, max_value=5),
    )
    def test_one_more_edge_never_raises_p95_of_a_single_kind_fleet(
        self, device, side, cpu_freq, fps, mode, n_users, n_edges
    ):
        # One device and one app: every tenant brings the same load, so a
        # user's wait depends only on how many tenants share its edge, and
        # round robin over one more edge never raises those counts.
        app = ApplicationConfig(
            frame_side_px=side, cpu_freq_ghz=cpu_freq, frame_rate_fps=fps
        ).with_mode(mode)
        population = homogeneous(n_users, device=device, app=app)

        def p95(edges):
            return FleetAnalyzer(
                population, n_edges=edges, policy=RoundRobinAdmission(), include_aoi=False
            ).analyze().p95_latency_ms

        assert p95(n_edges + 1) <= p95(n_edges)


def test_one_more_edge_can_raise_p95_of_a_mixed_fleet():
    # Round robin deals users in population order and ignores their load, so
    # one more edge is not monotone for mixed fleets.  Five remote XR1 users
    # alternate 30 and 10 fps: three edges hold (30, 10), (10, 30) and (30)
    # fps, four edges (30, 30), (10), (30) and (10).  The extra edge puts
    # users 0 and 4, both at 30 fps, together on edge 0, and p95 rises.
    apps = [
        ApplicationConfig(frame_rate_fps=fps).with_mode(ExecutionMode.REMOTE)
        for fps in (30.0, 10.0)
    ]
    population = FleetPopulation(
        users=tuple(
            UserProfile(name=f"user-{index}", device="XR1", app=apps[index % 2])
            for index in range(5)
        )
    )

    def p95(edges):
        return FleetAnalyzer(
            population, n_edges=edges, policy=RoundRobinAdmission()
        ).analyze().p95_latency_ms

    assert p95(3) == pytest.approx(750.388, abs=1e-3)
    assert p95(4) == pytest.approx(758.360, abs=1e-3)
    assert p95(4) > p95(3)
