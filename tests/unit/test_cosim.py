"""Unit tests for the closed-loop fleet x adaptive co-simulation."""

import copy
import json
import math

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveRuntime,
    ConditionTrace,
    ControlContext,
    ControllerBase,
    EpochConditions,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
    burst_trace,
    step_trace,
)
from repro.batch import OperatingPoint
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.cosim import CoSimulation, CosimReport, ShardedCosimReport, run_cosim
from repro.exceptions import ConfigurationError
from repro.faults import make_schedule
from repro.fleet import FleetAnalyzer, FleetPopulation, homogeneous, mixed_devices

DEADLINE_MS = 700.0


def constant_trace(n_epochs: int, throughput_mbps: float = 200.0) -> ConditionTrace:
    return ConditionTrace(
        name="constant",
        epoch_ms=100.0,
        epochs=tuple(
            EpochConditions(
                time_ms=i * 100.0,
                throughput_mbps=throughput_mbps,
                handoff_probability=0.0,
            )
            for i in range(n_epochs)
        ),
    )


class TestSingleUserDegeneracy:
    """At N == 1 the co-sim is the single-user adaptive runtime, bit for bit."""

    @pytest.mark.parametrize(
        "make_controller",
        [
            lambda: GreedyBatchSweep(),
            lambda: EwmaPredictive(seed=3),
            lambda: HysteresisThreshold(),
            lambda: StaticBaseline(0),
        ],
        ids=["greedy", "ewma", "hysteresis", "static"],
    )
    def test_class_report_equals_adaptation_report(self, make_controller):
        trace = burst_trace(30, seed=7)
        population = homogeneous(1, device="XR1")
        app = population.users[0].app
        cosim = CoSimulation(population, make_controller(), trace)
        report = cosim.run()
        runtime = AdaptiveRuntime(trace=trace, device="XR1", edge="EDGE-AGX", app=app)
        reference = runtime.run(make_controller())
        # Field-for-field equality of the frozen dataclasses, including
        # every per-epoch tuple.
        assert report.class_reports[0] == reference

    def test_toplines_match_single_user_report(self):
        trace = burst_trace(25, seed=2)
        population = homogeneous(1, device="XR1")
        report = CoSimulation(population, GreedyBatchSweep(), trace).run()
        reference = report.class_reports[0]
        assert report.deadline_miss_rate == reference.deadline_miss_rate
        assert report.fleet_p50_latency_ms == reference.p50_latency_ms
        assert report.fleet_p95_latency_ms == reference.p95_latency_ms
        assert report.fleet_p99_latency_ms == reference.p99_latency_ms
        assert report.switch_count == reference.switch_count
        assert report.total_energy_j == pytest.approx(reference.total_energy_j)
        assert report.all_converged


class TestStaticFleetDegeneracy:
    """All-static controllers reproduce FleetAnalyzer.analyze bit for bit."""

    @pytest.fixture()
    def static_setup(self):
        network = NetworkConfig()
        population = homogeneous(5, device="XR1")  # default app offloads
        app = population.users[0].app
        trace = constant_trace(3, throughput_mbps=network.throughput_mbps)
        candidates = (
            OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX"),
        )
        return network, population, trace, candidates

    @pytest.mark.parametrize("n_edges", [1, 2])
    def test_epoch_aggregates_equal_fleet_report(self, static_setup, n_edges):
        network, population, trace, candidates = static_setup
        report = CoSimulation(
            population,
            StaticBaseline(0),
            trace,
            n_edges=n_edges,
            candidates=candidates,
            network=network,
        ).run()
        fleet = FleetAnalyzer(
            population, edge="EDGE-AGX", n_edges=n_edges, network=network
        ).analyze()
        for epoch in range(trace.n_epochs):
            assert report.p50_latency_ms[epoch] == fleet.p50_latency_ms
            assert report.p95_latency_ms[epoch] == fleet.p95_latency_ms
            assert report.p99_latency_ms[epoch] == fleet.p99_latency_ms
            assert report.mean_latency_ms[epoch] == fleet.mean_latency_ms
            assert report.total_energy_mj[epoch] == fleet.total_energy_mj
            assert report.mean_energy_mj[epoch] == fleet.mean_energy_mj
            assert report.offload_fraction[epoch] == fleet.n_offloaded / fleet.n_users
        assert report.all_converged
        assert report.switch_count == 0

    @pytest.mark.parametrize("factor", [1.25, 1.5, 3.0])
    @pytest.mark.parametrize("n_edges", [1, 2, 3])
    @pytest.mark.parametrize("n_users", [2, 6, 10])
    def test_straggler_epochs_equal_fleet_report(self, n_users, n_edges, factor):
        # A straggler scale that is not a power of two makes the order of
        # summing and scaling an edge's load visible in the last bit.
        network = NetworkConfig()
        app = ApplicationConfig(frame_side_px=300.0, frame_rate_fps=5.0).with_mode(
            ExecutionMode.REMOTE
        )
        population = homogeneous(n_users, device="XR1", app=app)
        trace = constant_trace(3, throughput_mbps=network.throughput_mbps)
        schedule = make_schedule(
            "straggler", start_epoch=1, duration_epochs=1, service_factor=factor
        )
        report = CoSimulation(
            population,
            StaticBaseline(0),
            trace,
            n_edges=n_edges,
            candidates=(
                OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX"),
            ),
            network=network,
            include_aoi=False,
            faults=schedule,
        ).run()
        for epoch in range(trace.n_epochs):
            fleet = FleetAnalyzer(
                population,
                n_edges=n_edges,
                network=network,
                include_aoi=False,
                fault_state=schedule.state_at(epoch, n_edges),
            ).analyze()
            assert report.p50_latency_ms[epoch] == fleet.p50_latency_ms
            assert report.p95_latency_ms[epoch] == fleet.p95_latency_ms
            assert report.p99_latency_ms[epoch] == fleet.p99_latency_ms
            assert report.mean_latency_ms[epoch] == fleet.mean_latency_ms
            assert report.max_edge_utilization[epoch] == max(fleet.edge_utilizations)

    def test_per_user_latency_matches_outcomes(self, static_setup):
        network, population, trace, candidates = static_setup
        report = CoSimulation(
            population,
            StaticBaseline(0),
            trace,
            n_edges=2,
            candidates=candidates,
            network=network,
        ).run()
        fleet = FleetAnalyzer(
            population, edge="EDGE-AGX", n_edges=2, network=network
        ).analyze()
        for mean_latency, outcome in zip(report.user_mean_latency_ms, fleet.outcomes):
            assert mean_latency == outcome.latency_ms


class TestClosedLoopDynamics:
    def test_contention_feeds_back_into_conditions(self):
        # With many offloaders the charged throughput must be the contended
        # share, far below the exogenous 200 Mbps.
        network = NetworkConfig()
        population = homogeneous(6, device="XR1")
        app = population.users[0].app
        candidates = (
            OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX"),
        )
        report = CoSimulation(
            population,
            StaticBaseline(0),
            constant_trace(2),
            n_edges=3,
            candidates=candidates,
            network=network,
        ).run()
        single = CoSimulation(
            homogeneous(1, device="XR1"),
            StaticBaseline(0),
            constant_trace(2),
            candidates=candidates,
            network=network,
        ).run()
        assert report.mean_latency_ms[0] > single.mean_latency_ms[0]

    def test_oscillating_fleet_reports_nonconvergence(self):
        # A homogeneous greedy fleet beyond the edge/channel capacity has no
        # symmetric pure fixed point: everyone-offloads saturates the edge
        # (infeasible), everyone-local frees it (offload looks best again).
        report = CoSimulation(
            homogeneous(16, device="XR1"),
            GreedyBatchSweep(),
            constant_trace(6),
            n_edges=1,
            include_aoi=False,
            max_iterations=6,
        ).run()
        assert not report.all_converged
        assert report.n_unconverged_epochs > 0
        unconverged = report.converged.index(False)
        assert report.iterations[unconverged] == 6
        # The report stays well-formed: metrics are charged from the final
        # iterate's realised regime.
        assert len(report.miss_fraction) == 6
        assert all(0.0 <= fraction <= 1.0 for fraction in report.miss_fraction)

    def test_small_fleet_converges_and_adapts(self):
        report = CoSimulation(
            homogeneous(4, device="XR1"),
            GreedyBatchSweep(),
            step_trace(20, seed=3, jitter=0.0),
            n_edges=2,
            include_aoi=False,
        ).run()
        assert report.all_converged
        assert report.class_reports[0].deadline_miss_rate == 0.0
        # The step trace forces at least one operating-point change.
        assert report.switch_count > 0

    def test_bit_deterministic_replay(self):
        def build():
            return CoSimulation(
                mixed_devices(10, devices=("XR1", "XR2")),
                EwmaPredictive(seed=5),
                burst_trace(15, seed=9),
                n_edges=2,
                include_aoi=False,
            )

        first = build().run()
        second = build().run()
        assert first.to_dict() == second.to_dict()

    def test_rerun_of_same_simulation_is_identical(self):
        simulation = CoSimulation(
            homogeneous(6, device="XR1"),
            HysteresisThreshold(),
            burst_trace(12, seed=4),
            include_aoi=False,
        )
        assert simulation.run().to_dict() == simulation.run().to_dict()


class _DeepCopyEwma(EwmaPredictive):
    """The engine's former snapshot semantics: a deep copy of the whole object."""

    def state(self):
        return copy.deepcopy(vars(self))

    def restore(self, state):
        vars(self).clear()
        vars(self).update(copy.deepcopy(state))


class _NoState(ControllerBase):
    """A controller written before ``state``/``restore`` joined the protocol."""

    name = "no-state"

    def decide(self, epoch, conditions, context):
        return 0


class _NoRestore(_NoState):
    def state(self):
        return ()


class _OutOfRange(ControllerBase):
    """Chooses one past the last candidate."""

    name = "out-of-range"

    def decide(self, epoch, conditions, context):
        return context.n_candidates

    def state(self):
        return ()

    def restore(self, state):
        del state


class TestControllerState:
    """The engine snapshots controller state as values, once per epoch."""

    @staticmethod
    def _mixed(ewma_type, population):
        templates = (
            GreedyBatchSweep(),
            HysteresisThreshold(),
            ewma_type(seed=11),
        )
        controller = {
            user.name: templates[index % 3] for index, user in enumerate(population)
        }
        return CoSimulation(
            population, controller, burst_trace(30, seed=2), n_edges=2, include_aoi=False
        )

    def test_state_values_match_deep_copy_snapshots(self):
        population = mixed_devices(24, devices=("XR1", "XR2"))
        report = self._mixed(EwmaPredictive, population).run()
        reference = self._mixed(_DeepCopyEwma, population).run()
        # Every epoch re-decides from its snapshot at least once.
        assert min(report.iterations) >= 2
        assert report.to_dict() == reference.to_dict()

    def test_controllers_are_copied_once_per_class_per_run(self, monkeypatch):
        simulation = self._mixed(EwmaPredictive, mixed_devices(12, devices=("XR1",)))
        deepcopy = copy.deepcopy
        copied = []

        def counting(value, memo=None):
            if memo is None:
                copied.append(value)
            return deepcopy(value, memo)

        monkeypatch.setattr(copy, "deepcopy", counting)
        simulation.run()
        simulation.run()
        templates = [cls.template for cls in simulation._classes]
        assert len(templates) == 3
        assert [id(value) for value in copied] == [id(t) for t in templates] * 2

    @pytest.mark.parametrize(
        "controller_type, missing", [(_NoState, "state"), (_NoRestore, "restore")]
    )
    def test_controller_without_state_rejected_before_prewarm(
        self, monkeypatch, controller_type, missing
    ):
        def prewarm(context, trace):
            raise AssertionError("prewarm ran before the controller was checked")

        monkeypatch.setattr(ControlContext, "prewarm", prewarm)
        with pytest.raises(ConfigurationError, match=rf"'no-state'.* {missing}\(\)"):
            CoSimulation(homogeneous(2, device="XR1"), controller_type(), constant_trace(2))
        monkeypatch.undo()
        # The single-user runtime never snapshots, so it still runs them.
        runtime = AdaptiveRuntime(trace=constant_trace(3))
        assert runtime.run(controller_type()).chosen_indices == (0, 0, 0)

    def test_out_of_range_decision_rejected(self):
        simulation = CoSimulation(
            homogeneous(3, device="XR1"),
            _OutOfRange(),
            constant_trace(2),
            include_aoi=False,
        )
        with pytest.raises(ConfigurationError, match="'out-of-range' chose candidate"):
            simulation.run()


class TestEquivalenceClasses:
    def test_mixed_devices_form_one_class_per_device(self):
        report = CoSimulation(
            mixed_devices(8, devices=("XR1", "XR2")),
            GreedyBatchSweep(),
            burst_trace(5, seed=1),
            include_aoi=False,
        ).run()
        assert len(report.class_reports) == 2
        assert report.class_sizes == (4, 4)

    def test_per_user_controller_mapping_splits_classes(self):
        population = homogeneous(4, device="XR1")
        controllers = {
            user.name: GreedyBatchSweep() if index < 2 else StaticBaseline(0)
            for index, user in enumerate(population)
        }
        # Distinct controller instances -> distinct classes even though two
        # users share each controller *type*.
        report = CoSimulation(
            population, controllers, burst_trace(4, seed=1), include_aoi=False
        ).run()
        assert len(report.class_reports) == 4

    def test_missing_mapping_entry_rejected(self):
        population = homogeneous(2, device="XR1")
        with pytest.raises(ConfigurationError):
            CoSimulation(
                population,
                {population.users[0].name: GreedyBatchSweep()},
                burst_trace(3, seed=1),
            )

    def test_mismatched_traces_rejected(self):
        population = mixed_devices(2, devices=("XR1", "XR2"))
        traces = {
            population.users[0].name: burst_trace(5, seed=1),
            population.users[1].name: burst_trace(6, seed=1),
        }
        with pytest.raises(ConfigurationError):
            CoSimulation(population, GreedyBatchSweep(), traces)


class TestValidationAndReport:
    def test_invalid_parameters_rejected(self):
        population = homogeneous(2, device="XR1")
        trace = burst_trace(3, seed=0)
        with pytest.raises(ConfigurationError):
            CoSimulation(population, GreedyBatchSweep(), trace, n_edges=0)
        with pytest.raises(ConfigurationError):
            CoSimulation(population, GreedyBatchSweep(), trace, max_iterations=1)
        with pytest.raises(ConfigurationError):
            CoSimulation(population, GreedyBatchSweep(), "not-a-trace")

    def test_nan_deadline_rejected(self):
        # Every `latency > nan` is false, so a NaN deadline read as a 0.0
        # miss rate on a trace where a 1 ms deadline misses every epoch.
        trace = burst_trace(6, seed=2)
        missed = run_cosim(
            homogeneous(2, device="XR1"),
            GreedyBatchSweep(),
            trace,
            deadline_ms=1.0,
            include_aoi=False,
        )
        assert missed.deadline_miss_rate == 1.0
        with pytest.raises(ConfigurationError, match="deadline"):
            run_cosim(
                homogeneous(2, device="XR1"),
                GreedyBatchSweep(),
                trace,
                deadline_ms=math.nan,
                include_aoi=False,
            )

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one user"):
            CoSimulation(FleetPopulation(users=()), GreedyBatchSweep(), burst_trace(3, seed=0))

    def test_missing_edge_rejected_at_construction(self):
        # Without an edge the first offloading candidate would fail inside run().
        with pytest.raises(ConfigurationError, match="edge must name an edge server"):
            CoSimulation(
                homogeneous(2, device="XR1"),
                GreedyBatchSweep(),
                burst_trace(3, seed=0),
                edge=None,
            )

    def test_fractional_edge_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_edges"):
            CoSimulation(
                homogeneous(2, device="XR1"),
                GreedyBatchSweep(),
                burst_trace(3, seed=0),
                n_edges=1.5,
            )

    def test_fractional_shard_count_rejected(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            run_cosim(
                homogeneous(4, device="XR1"),
                GreedyBatchSweep(),
                burst_trace(3, seed=0),
                n_shards=2.0,
            )

    def test_fractional_iteration_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            CoSimulation(
                homogeneous(2, device="XR1"),
                GreedyBatchSweep(),
                burst_trace(3, seed=0),
                max_iterations=2.5,
            )

    def test_numpy_integer_counts_accepted(self):
        population = homogeneous(4, device="XR1")
        trace = burst_trace(3, seed=0)
        simulation = CoSimulation(
            population,
            GreedyBatchSweep(),
            trace,
            n_edges=np.int64(2),
            max_iterations=np.int32(3),
            include_aoi=False,
        )
        assert (simulation.n_edges, simulation.max_iterations) == (2, 3)
        sharded = run_cosim(
            population, GreedyBatchSweep(), trace, n_shards=np.int64(2), include_aoi=False
        )
        assert len(sharded.shards) == 2

    def test_summary_and_json_roundtrip(self):
        report = CoSimulation(
            homogeneous(3, device="XR1"),
            GreedyBatchSweep(),
            burst_trace(6, seed=2),
            include_aoi=False,
        ).run()
        assert isinstance(report, CosimReport)
        text = report.summary()
        for token in ("Co-simulation report", "fixed point", "offload fraction"):
            assert token in text
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_users"] == 3
        assert len(payload["class_reports"]) == 1

    def test_report_geometry(self):
        report = CoSimulation(
            homogeneous(3, device="XR1"),
            GreedyBatchSweep(),
            burst_trace(7, seed=2),
            include_aoi=False,
        ).run()
        assert report.n_epochs == 7
        for series in (
            report.converged,
            report.iterations,
            report.offload_fraction,
            report.p95_latency_ms,
            report.mean_quality,
            report.max_edge_utilization,
        ):
            assert len(series) == 7
        for per_user in (
            report.user_names,
            report.user_miss_rate,
            report.user_mean_latency_ms,
            report.user_energy_j,
            report.user_switch_count,
        ):
            assert len(per_user) == 3
        assert not math.isnan(report.fleet_p95_latency_ms)


class TestSharding:
    def test_sharded_run_merges_deterministically(self):
        population = homogeneous(12, device="XR1")
        trace = burst_trace(8, seed=3)
        merged = run_cosim(
            population,
            GreedyBatchSweep(),
            trace,
            n_shards=3,
            include_aoi=False,
        )
        assert isinstance(merged, ShardedCosimReport)
        assert merged.n_shards == 3
        assert merged.n_users == 12
        assert sum(shard.n_users for shard in merged.shards) == 12
        again = run_cosim(
            population, GreedyBatchSweep(), trace, n_shards=3, include_aoi=False
        )
        assert merged.to_dict() == again.to_dict()
        assert "independent cells" in merged.summary()

    def test_single_shard_is_plain_report(self):
        report = run_cosim(
            homogeneous(2, device="XR1"),
            GreedyBatchSweep(),
            burst_trace(4, seed=1),
            include_aoi=False,
        )
        assert isinstance(report, CosimReport)

    def test_too_many_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cosim(
                homogeneous(2, device="XR1"),
                GreedyBatchSweep(),
                burst_trace(3, seed=1),
                n_shards=5,
            )

    def test_sharding_reduces_contention(self):
        # Two cells of 8 users each see less channel contention than one
        # 16-user cell, so the sharded fleet cannot be slower on average.
        population = homogeneous(16, device="XR1")
        network = NetworkConfig()
        app = population.users[0].app
        candidates = (
            OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX"),
        )
        one_cell = run_cosim(
            population,
            StaticBaseline(0),
            constant_trace(2),
            candidates=candidates,
            n_edges=4,
            include_aoi=False,
        )
        two_cells = run_cosim(
            population,
            StaticBaseline(0),
            constant_trace(2),
            candidates=candidates,
            n_edges=4,
            n_shards=2,
            include_aoi=False,
        )
        # The single cell's edges saturate (4 tenants each) while each
        # two-cell shard stays stable, so the sharded p95 must not be worse.
        assert two_cells.fleet_p95_latency_ms <= one_cell.fleet_p95_latency_ms
        assert two_cells.deadline_miss_rate <= one_cell.deadline_miss_rate
