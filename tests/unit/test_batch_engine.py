"""Unit tests for the vectorized batch evaluation engine (repro.batch)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.batch import (
    OperatingPoint,
    ParameterGrid,
    evaluate_grid,
    evaluate_points,
)
from repro.config.application import ApplicationConfig, CooperationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.exceptions import ConfigurationError, ModelDomainError


@pytest.fixture()
def app():
    return ApplicationConfig.object_detection_default()


@pytest.fixture()
def network():
    return NetworkConfig()


# ---------------------------------------------------------------------------
# ParameterGrid
# ---------------------------------------------------------------------------


class TestParameterGrid:
    def test_point_counts(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 500.0),
            cpu_freqs_ghz=(1.0, 2.0, 3.0),
            devices=("XR1", "XR2"),
            modes=(ExecutionMode.LOCAL, ExecutionMode.REMOTE),
            app=app,
            network=network,
        )
        assert grid.points_per_group == 6
        assert grid.n_points == 24

    def test_unswept_axes_pin_to_base(self, app, network):
        grid = ParameterGrid(frame_sides_px=(400.0,), app=app, network=network)
        assert grid.axis_values("cpu_freq_ghz") == (app.cpu_freq_ghz,)
        assert grid.axis_values("throughput_mbps") == (network.throughput_mbps,)

    def test_point_order_matches_sweep_loop(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(1.0, 2.0),
            app=app, network=network,
        )
        numeric = grid.numeric_arrays()
        expected = [(1.0, 300.0), (1.0, 500.0), (2.0, 300.0), (2.0, 500.0)]
        observed = list(zip(numeric["cpu_freq_ghz"], numeric["frame_side_px"]))
        assert observed == expected

    def test_points_materialisation_round_trips(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 700.0), cpu_freqs_ghz=(2.0,),
            app=app, network=network,
        )
        points = grid.points()
        assert [p.app.frame_side_px for p in points] == [300.0, 700.0]
        assert all(p.app.cpu_freq_ghz == 2.0 for p in points)

    def test_empty_axis_rejected(self, app):
        with pytest.raises(ConfigurationError):
            ParameterGrid(frame_sides_px=(), app=app).axis_values("frame_side_px")

    def test_negative_axis_rejected(self, app):
        with pytest.raises(ConfigurationError):
            ParameterGrid(frame_sides_px=(-1.0,), app=app).axis_values("frame_side_px")

    def test_unknown_axis_rejected(self, app):
        with pytest.raises(ConfigurationError):
            ParameterGrid(app=app).axis_values("bogus")


# ---------------------------------------------------------------------------
# Scalar parity
# ---------------------------------------------------------------------------


def _scalar_report(device, mode, app, network, frame_side, cpu_freq):
    model = XRPerformanceModel(
        device=device, edge="EDGE-AGX", app=app.with_mode(mode), network=network
    )
    point = replace(app.with_mode(mode), frame_side_px=frame_side, cpu_freq_ghz=cpu_freq)
    return model.analyze(point, network, include_aoi=True)


class TestScalarParity:
    @pytest.mark.parametrize(
        "mode", [ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT]
    )
    def test_reports_bit_identical(self, mode, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 700.0),
            cpu_freqs_ghz=(1.0, 3.0),
            devices=("XR2",),
            modes=(mode,),
            app=app,
            network=network,
        )
        result = evaluate_grid(grid, include_aoi=True)
        index = 0
        for cpu_freq in (1.0, 3.0):
            for frame_side in (300.0, 700.0):
                scalar = _scalar_report("XR2", mode, app, network, frame_side, cpu_freq)
                batch = result.report_at(index)
                assert batch.total_latency_ms == scalar.total_latency_ms
                assert batch.total_energy_mj == scalar.total_energy_mj
                assert batch.latency.per_segment_ms == dict(scalar.latency.per_segment_ms)
                assert batch.energy.per_segment_mj == dict(scalar.energy.per_segment_mj)
                assert batch.latency.included_segments == scalar.latency.included_segments
                assert batch.latency.client_compute == scalar.latency.client_compute
                assert batch.latency.edge_compute == scalar.latency.edge_compute
                assert batch.energy.mean_power_w == scalar.energy.mean_power_w
                assert batch.aoi.average_aoi_ms == scalar.aoi.average_aoi_ms
                assert batch.aoi.roi == scalar.aoi.roi
                assert batch.device_name == scalar.device_name
                assert batch.edge_name == scalar.edge_name
                index += 1

    def test_empty_sweep_axes_return_empty_dict(self, app, network):
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        assert model.sweep(frame_sides_px=(), cpu_freqs_ghz=(2.0,)) == {}
        assert model.sweep(frame_sides_px=(300.0,), cpu_freqs_ghz=()) == {}

    def test_framework_sweep_routes_through_batch(self, app, network):
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        results = model.sweep(frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(1.0, 2.0))
        assert set(results) == {(1.0, 300.0), (1.0, 500.0), (2.0, 300.0), (2.0, 500.0)}
        direct = model.analyze(
            replace(app, cpu_freq_ghz=2.0, frame_side_px=500.0), network, include_aoi=False
        )
        assert results[(2.0, 500.0)].total_latency_ms == direct.total_latency_ms

    def test_cooperation_segment(self, network):
        app = replace(
            ApplicationConfig.object_detection_default(),
            cooperation=CooperationConfig(enabled=True, include_in_totals=True),
        )
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
        scalar = model.analyze(app, network, include_aoi=False)
        batch = evaluate_points(
            [OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX")],
            include_aoi=False,
        )
        assert Segment.COOPERATION in batch.report_at(0).latency.included_segments
        assert batch.report_at(0).total_latency_ms == scalar.total_latency_ms

    def test_path_loss_network(self, app):
        network = NetworkConfig(enable_path_loss=True)
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX",
                                   app=app.with_mode(ExecutionMode.REMOTE), network=network)
        scalar = model.analyze(include_aoi=False)
        batch = evaluate_points(
            [
                OperatingPoint(
                    app=app.with_mode(ExecutionMode.REMOTE),
                    network=network,
                    device="XR1",
                    edge="EDGE-AGX",
                )
            ],
            include_aoi=False,
        )
        assert batch.report_at(0).total_latency_ms == scalar.total_latency_ms

    def test_throughput_axis(self, app, network):
        mode_app = app.with_mode(ExecutionMode.REMOTE)
        grid = ParameterGrid(
            throughputs_mbps=(50.0, 200.0),
            devices=("XR1",),
            app=mode_app,
            network=network,
        )
        result = evaluate_grid(grid)
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=mode_app, network=network)
        for index, throughput in enumerate((50.0, 200.0)):
            scalar = model.analyze(
                mode_app, network.with_throughput(throughput), include_aoi=False
            )
            assert result.total_latency_ms[index] == scalar.total_latency_ms
        # Less throughput means slower transmission.
        assert result.total_latency_ms[0] > result.total_latency_ms[1]


# ---------------------------------------------------------------------------
# evaluate_points
# ---------------------------------------------------------------------------


class TestEvaluatePoints:
    def test_preserves_input_order_across_groups(self, app, network):
        points = [
            OperatingPoint(app=app.with_mode(ExecutionMode.REMOTE), network=network,
                           device="XR2", edge="EDGE-AGX"),
            OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX"),
            OperatingPoint(app=replace(app, frame_side_px=650.0), network=network,
                           device="XR1", edge="EDGE-AGX"),
        ]
        result = evaluate_points(points, include_aoi=False)
        assert len(result) == 3
        for index, point in enumerate(points):
            model = XRPerformanceModel(device=point.device, edge=point.edge,
                                       app=point.app, network=point.network)
            scalar = model.analyze(point.app, point.network, include_aoi=False)
            assert result.total_latency_ms[index] == scalar.total_latency_ms
        # Points 2 and 3 share a structure group; point 1 does not.
        assert len(result.groups) == 2

    def test_empty_points_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_points([])

    def test_remote_without_edge_rejected(self, app, network):
        with pytest.raises(ModelDomainError):
            evaluate_points(
                [
                    OperatingPoint(
                        app=app.with_mode(ExecutionMode.REMOTE),
                        network=network,
                        device="XR1",
                        edge=None,
                    )
                ]
            )

    def test_local_without_edge_allowed(self, app, network):
        result = evaluate_points(
            [OperatingPoint(app=app, network=network, device="XR1", edge=None)],
            include_aoi=False,
        )
        assert result.report_at(0).edge_name is None
        assert result.report_at(0).latency.edge_compute is None


# ---------------------------------------------------------------------------
# BatchResult accessors
# ---------------------------------------------------------------------------


class TestBatchResult:
    def test_metric_and_segment_accessors(self, app, network):
        grid = ParameterGrid(frame_sides_px=(300.0, 500.0), app=app, network=network)
        result = evaluate_grid(grid)
        assert np.array_equal(result.metric("latency"), result.total_latency_ms)
        assert np.array_equal(result.metric("energy"), result.total_energy_mj)
        with pytest.raises(KeyError):
            result.metric("bogus")
        # Local-mode grid has no transmission segment: accessor yields zeros.
        assert np.all(result.segment_latency_ms(Segment.TRANSMISSION) == 0.0)
        assert np.all(result.segment_latency_ms(Segment.RENDERING) > 0.0)

    def test_index_bounds(self, app, network):
        grid = ParameterGrid(frame_sides_px=(300.0,), app=app, network=network)
        result = evaluate_grid(grid)
        assert result.report_at(-1).total_latency_ms == result.report_at(0).total_latency_ms
        with pytest.raises(IndexError):
            result.report_at(1)

    def test_coords_recorded(self, app, network):
        grid = ParameterGrid(
            frame_sides_px=(300.0, 500.0), cpu_freqs_ghz=(1.0, 2.0),
            app=app, network=network,
        )
        result = evaluate_grid(grid)
        assert list(result.coords["cpu_freq_ghz"]) == [1.0, 1.0, 2.0, 2.0]
        assert list(result.coords["frame_side_px"]) == [300.0, 500.0, 300.0, 500.0]


# ---------------------------------------------------------------------------
# Consumers stay consistent
# ---------------------------------------------------------------------------


class TestConsumers:
    def test_offloading_rank_matches_per_candidate_evaluate(self, app, network):
        model = XRPerformanceModel(device="XR6", edge="EDGE-AGX", app=app, network=network)
        planner = model.offloading_planner(objective="latency")
        ranked = planner.rank(app, network, n_edge_servers=2)
        assert len(ranked) == 3
        for decision in ranked:
            placed = app.with_placement(decision.mode, max(len(decision.edge_shares), 1))
            assert placed.inference.edge_shares == decision.edge_shares
            direct = planner.evaluate(placed, network)
            assert decision.total_latency_ms == direct.total_latency_ms
            assert decision.total_energy_mj == direct.total_energy_mj
        assert ranked[0].score <= ranked[-1].score

    def test_offloading_rank_honours_custom_energy_model(self, app, network):
        from repro.core.coefficients import CoefficientSet, QuadraticBlend
        from repro.core.energy import XREnergyModel
        from repro.core.offloading import OffloadingPlanner
        from repro.core.power import PowerModel

        base = XRPerformanceModel(device="XR6", edge="EDGE-AGX", app=app, network=network)
        paper = CoefficientSet.paper().power
        # A different Eq. (21) blend: the paper's polynomials, doubled.
        doubled = PowerModel(
            coefficients=replace(
                base.coefficients,
                power=QuadraticBlend(
                    cpu=tuple(2 * value for value in paper.cpu),
                    gpu=tuple(2 * value for value in paper.gpu),
                ),
            ),
            device=base.device,
        )
        planner = OffloadingPlanner(
            base.latency_model,
            XREnergyModel(latency_model=base.latency_model, power_model=doubled),
            objective="energy",
        )
        for decision in planner.rank(app, network):
            placed = app.with_placement(decision.mode, max(len(decision.edge_shares), 1))
            assert placed.inference.edge_shares == decision.edge_shares
            direct = planner.evaluate(placed, network)
            assert decision.total_energy_mj == direct.total_energy_mj

    def test_capacity_probe_inherits_population_default_app(self):
        from repro.fleet.capacity import _HomogeneousRoundRobinProbe
        from repro.fleet.population import homogeneous

        probe = _HomogeneousRoundRobinProbe(device="XR1", edge="EDGE-AGX", app=None, network=None)
        assert probe.remote_app == homogeneous(1, device="XR1").users[0].app

    def test_fleet_analyzer_batch_priming_matches_scalar(self, network):
        from repro.fleet import FleetAnalyzer, homogeneous

        analyzer = FleetAnalyzer(homogeneous(4, device="XR1"), edge="EDGE-AGX")
        report = analyzer.analyze()
        # The single-user scalar model evaluated under the same contended
        # network must agree bit-for-bit with the primed batch reports.
        outcome = report.outcomes[0]
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
        contended = analyzer.contention.network_for(4)
        scalar = model.analyze(
            homogeneous(4, device="XR1").users[0].app, contended, include_aoi=True
        )
        assert outcome.report.total_latency_ms == scalar.total_latency_ms

    #: (app, SLO in ms, where the plan lands) with a ceiling of two users
    #: per edge: the remote app saturates an edge at three tenants, and the
    #: local app never offloads, so its p95 does not move with the fleet.
    CAPACITY_CASES = (
        ("local", 100.0, "infeasible"),
        ("local", 800.0, "ceiling"),
        ("remote", 100.0, "infeasible"),
        ("remote", 745.0, "between"),
        ("remote", 10_000.0, "ceiling"),
    )

    @pytest.mark.parametrize("n_edges", (1, 2, 3))
    @pytest.mark.parametrize("mode, slo_ms, lands", CAPACITY_CASES)
    def test_plan_capacity_fast_path_equals_exhaustive_fallback(
        self, mode, slo_ms, lands, n_edges
    ):
        # The O(n_edges) probe plans exactly what full fleet analyses do.
        from oracles import exhaustive_capacity
        from repro.fleet import plan_capacity

        app = ApplicationConfig.object_detection_default().with_mode(
            ExecutionMode.LOCAL if mode == "local" else ExecutionMode.REMOTE
        )
        max_users = 2 * n_edges
        fast = plan_capacity(
            device="XR1", edge="EDGE-AGX", slo_ms=slo_ms, app=app,
            n_edges=n_edges, max_users=max_users,
        )
        slow = exhaustive_capacity(
            "XR1", "EDGE-AGX", slo_ms, app=app, n_edges=n_edges, max_users=max_users
        )
        assert fast.max_users == slow.max_users
        assert fast.p95_at_capacity_ms == slow.p95_at_capacity_ms
        assert fast.evaluations == slow.evaluations
        assert fast.ceiling_reached == slow.ceiling_reached
        landed = (
            "infeasible"
            if fast.max_users == 0
            else "ceiling" if fast.ceiling_reached else "between"
        )
        assert landed == lands

    def test_capacity_probe_matches_full_analyzer(self):
        from repro.fleet import FleetAnalyzer, homogeneous
        from repro.fleet.admission import RoundRobinAdmission
        from repro.fleet.capacity import _HomogeneousRoundRobinProbe

        probe = _HomogeneousRoundRobinProbe(device="XR1", edge="EDGE-AGX", app=None, network=None)
        for n_users in (1, 2, 5, 9):
            analyzer = FleetAnalyzer(
                homogeneous(n_users, device="XR1"),
                edge="EDGE-AGX",
                n_edges=2,
                policy=RoundRobinAdmission(),
                include_aoi=False,
            )
            assert probe.p95_latency_ms(n_users, 2) == analyzer.analyze().p95_latency_ms


# ---------------------------------------------------------------------------
# The AoI sum over updates (Eq. 24)
# ---------------------------------------------------------------------------


def reference_mean_update_age_ms(
    updates, generation_period_ms, required_period_ms, delivery_overhead_ms
):
    """``repro.core.aoi.mean_update_age_ms`` as one NumPy pass per update."""
    accumulator = None
    for index in range(1, updates + 1):
        request_time = (index - 1) * required_period_ms
        aoi_slow = index * generation_period_ms + delivery_overhead_ms - request_time
        aoi_fast = request_time % generation_period_ms + delivery_overhead_ms
        aoi_n = np.where(generation_period_ms >= required_period_ms, aoi_slow, aoi_fast)
        accumulator = aoi_n if accumulator is None else accumulator + aoi_n
    return accumulator / updates


def _aoi_points(updates):
    base = ApplicationConfig(sensor_updates_per_frame=updates)
    return [
        OperatingPoint(
            app=replace(base, frame_side_px=side, cpu_freq_ghz=freq).with_mode(mode),
            device=device,
            edge="EDGE-AGX",
        )
        for side, freq, mode, device in (
            (300.0, 1.0, ExecutionMode.LOCAL, "XR1"),
            (500.0, 2.2, ExecutionMode.REMOTE, "XR1"),
            (700.0, 3.0, ExecutionMode.SPLIT, "XR6"),
        )
    ]


def _aoi_outputs(points):
    from repro.batch import ConditionedPoints

    result = evaluate_points(points)
    reports = [result.report_at(i) for i in range(len(points))]
    latency, energy, min_roi = ConditionedPoints(points).evaluate(
        [35.0, 120.0, 400.0], [0.0, 0.05, 0.3]
    )
    return (
        result.total_latency_ms,
        [(r.aoi.average_aoi_ms, r.aoi.roi, r.aoi.processed_frequency_hz) for r in reports],
        latency,
        energy,
        min_roi,
    )


@pytest.mark.parametrize(
    "updates, chunk_elements",
    [(1, None), (3, None), (7, None), (1000, None), (10_000, None), (7, 1), (1000, 40)],
)
def test_aoi_sum_is_the_per_update_loop(updates, chunk_elements, monkeypatch):
    from repro.core import aoi

    if chunk_elements is not None:
        # Chunks of one or a few update rows: the running sum is carried
        # into each chunk's first row.
        monkeypatch.setattr(aoi, "_AOI_CHUNK_ELEMENTS", chunk_elements)
    points = _aoi_points(updates)
    vectorized = _aoi_outputs(points)
    monkeypatch.setattr(aoi, "mean_update_age_ms", reference_mean_update_age_ms)
    reference = _aoi_outputs(points)
    np.testing.assert_array_equal(vectorized[0], reference[0])
    assert vectorized[1] == reference[1]
    for got, want in zip(vectorized[2:], reference[2:]):
        np.testing.assert_array_equal(got, want)
