"""Wall-clock floors and pinned outputs of the stack at scale.

Four workloads run once each at their headline size: a 1,000-point batch
grid, a 10k-user greedy fleet, a 1k-epoch burst-trace adaptive run and a
10k-user x 500-epoch closed-loop co-simulation.  Each floor is a module
constant, loose enough for a loaded shared runner; the pinned outputs hold
the model's answer on each workload to ``PIN_RTOL``, the relative tolerance
of the manifest gate.  Smaller runs of the same workloads check the
properties that hold at every size (grid geometry, sweep reuse,
determinism, the single-user degeneracy).

``perfbench/`` measures these layers with fresh-process medians and exact
work counts; this module only guards against an order-of-magnitude loss
and a silent change of answer.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveRuntime,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    burst_trace,
    mobility_fading_trace,
    step_trace,
)
from repro.batch import ConditionedPoints, ParameterGrid, evaluate_grid
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.cosim import CoSimulation
from repro.fleet import FleetAnalyzer, GreedySLOAdmission, homogeneous, mixed_devices

#: The batch grid must evaluate at least this many times faster than a
#: scalar ``analyze`` loop over the same 1,000 points.
MIN_BATCH_SPEEDUP = 20.0
#: Ceiling for the 10k-user x 500-epoch closed-loop co-simulation.
MAX_COSIM_SECONDS = 10.0
#: Ceiling for the 1k-epoch full-grid adaptive run, pre-warm included.
MAX_ADAPTIVE_SECONDS = 10.0
#: The 10k-user greedy fleet must analyze in less than this.
MAX_FLEET_SECONDS = 10.0

#: Relative tolerance of the pinned model outputs.
PIN_RTOL = 1e-6

CPU_FREQS = np.linspace(1.0, 3.0, 25)
FRAME_SIDES = np.linspace(300.0, 700.0, 40)
N_GRID_POINTS = len(CPU_FREQS) * len(FRAME_SIDES)


def _timed(work):
    start = time.perf_counter()
    result = work()
    return result, time.perf_counter() - start


def _grid(app, **axes):
    """The 25 x 40 (CPU clock x frame side) grid on XR2, unless overridden."""
    axes = {"cpu_freqs_ghz": CPU_FREQS, "devices": ("XR2",), **axes}
    return ParameterGrid(
        frame_sides_px=FRAME_SIDES, edge="EDGE-AGX", app=app, network=NetworkConfig(), **axes
    )


class TestBatchGrid:
    @pytest.fixture(scope="class")
    def timed_grid(self):
        """Scalar loop and batch call over one 1,000-point grid, both timed."""
        app = ApplicationConfig.object_detection_default()
        network = NetworkConfig()
        model = XRPerformanceModel(device="XR2", edge="EDGE-AGX", app=app, network=network)
        grid = _grid(app)
        evaluate_grid(grid)  # warm-up: imports and memoized lookups

        def scalar_loop():
            reports = [
                model.analyze(
                    replace(app, cpu_freq_ghz=cpu_freq, frame_side_px=frame_side),
                    network,
                    include_aoi=False,
                )
                for cpu_freq in CPU_FREQS
                for frame_side in FRAME_SIDES
            ]
            return (
                np.array([report.total_latency_ms for report in reports]),
                np.array([report.total_energy_mj for report in reports]),
            )

        scalar, scalar_seconds = _timed(scalar_loop)
        # Best of three for the sub-millisecond batch call, so one GC pause
        # cannot decide the floor.
        runs = [_timed(lambda: evaluate_grid(grid)) for _ in range(3)]
        batch = runs[-1][0]
        batch_seconds = min(seconds for _, seconds in runs)
        return scalar, batch, scalar_seconds, batch_seconds

    def test_batch_matches_the_scalar_loop(self, timed_grid):
        (latency, energy), batch, _, _ = timed_grid
        assert len(batch) == N_GRID_POINTS
        np.testing.assert_array_equal(batch.total_latency_ms, latency)
        np.testing.assert_array_equal(batch.total_energy_mj, energy)

    def test_batch_beats_the_scalar_loop_by_the_floor(self, timed_grid):
        _, _, scalar_seconds, batch_seconds = timed_grid
        speedup = scalar_seconds / batch_seconds
        assert speedup >= MIN_BATCH_SPEEDUP, (
            f"batch grid only {speedup:.1f}x faster than the scalar loop "
            f"(scalar {scalar_seconds:.3f} s, batch {batch_seconds:.3f} s)"
        )

    def test_local_grid_latencies_are_positive(self):
        result = evaluate_grid(_grid(ApplicationConfig.object_detection_default()))
        assert len(result) == N_GRID_POINTS
        assert np.all(result.total_latency_ms > 0.0)

    def test_remote_grid_energies_are_finite(self):
        app = ApplicationConfig.object_detection_default().with_mode(ExecutionMode.REMOTE)
        result = evaluate_grid(_grid(app))
        assert len(result) == N_GRID_POINTS
        assert np.all(np.isfinite(result.total_energy_mj))

    def test_device_by_mode_grid_covers_every_point(self):
        grid = _grid(
            ApplicationConfig.object_detection_default(),
            devices=("XR1", "XR2", "XR6"),
            cpu_freqs_ghz=(1.0, 2.0, 3.0),
            modes=(ExecutionMode.LOCAL, ExecutionMode.REMOTE),
        )
        assert len(evaluate_grid(grid)) == 3 * 2 * 3 * len(FRAME_SIDES)


def _greedy_fleet(n_users):
    return FleetAnalyzer(
        homogeneous(n_users, device="XR1"),
        edge="EDGE-AGX",
        policy=GreedySLOAdmission(slo_ms=800.0),
        slo_ms=800.0,
        include_aoi=False,
    ).analyze()


class TestFleetScale:
    @pytest.fixture(scope="class")
    def fleet_10k(self):
        return _timed(lambda: _greedy_fleet(10_000))

    def test_ten_thousand_users_within_the_floor(self, fleet_10k):
        _, seconds = fleet_10k
        assert seconds < MAX_FLEET_SECONDS, f"10k-user fleet took {seconds:.1f} s"

    def test_ten_thousand_users_pinned_outputs(self, fleet_10k):
        report, _ = fleet_10k
        assert report.n_users == 10_000
        assert report.p95_latency_ms == pytest.approx(275.150177878908, rel=PIN_RTOL)

    @pytest.mark.parametrize("n_users", (100, 1000))
    def test_smaller_fleets_report_every_user(self, n_users):
        report = _greedy_fleet(n_users)
        assert report.n_users == n_users
        assert report.p95_latency_ms > 0.0

    def test_mixed_device_fleet_counts_every_device(self):
        report = FleetAnalyzer(
            mixed_devices(1000, devices=("XR1", "XR2", "XR3", "XR6")),
            policy=GreedySLOAdmission(slo_ms=800.0),
            slo_ms=800.0,
        ).analyze()
        assert report.n_users == 1000
        assert set(report.device_counts) == {"XR1", "XR2", "XR3", "XR6"}


def _count_live_sweeps(monkeypatch):
    """The number of condition keys of every candidate sweep from now on."""
    keys = []
    evaluate = ConditionedPoints.evaluate

    def counting(self, throughput, handoff):
        keys.append(len(throughput))
        return evaluate(self, throughput, handoff)

    monkeypatch.setattr(ConditionedPoints, "evaluate", counting)
    return keys


class TestAdaptiveScale:
    @pytest.fixture(scope="class")
    def burst_1k(self):
        """A 1k-epoch burst trace under the full-grid greedy controller.

        The timing includes the pre-warm batch evaluation of every
        (epoch, candidate) point, which is what keeps the full-grid
        controller within the floor.
        """

        def run():
            runtime = AdaptiveRuntime(trace=burst_trace(1000, seed=0))
            return runtime, runtime.run(GreedyBatchSweep())

        return _timed(run)

    def test_thousand_epochs_within_the_floor(self, burst_1k):
        _, seconds = burst_1k
        assert seconds <= MAX_ADAPTIVE_SECONDS, (
            f"1k-epoch full-grid adaptation took {seconds:.2f} s"
        )

    def test_thousand_epochs_pinned_outputs(self, burst_1k):
        (runtime, report), _ = burst_1k
        assert report.n_epochs == 1000
        assert len(runtime.candidates) == 27
        assert report.deadline_miss_rate == 0.0
        assert report.mean_quality == pytest.approx(0.928, rel=PIN_RTOL)

    def test_controllers_sharing_a_runtime_meet_every_deadline(self):
        runtime = AdaptiveRuntime(trace=burst_trace(300, seed=1))
        for controller in (GreedyBatchSweep(), HysteresisThreshold()):
            assert runtime.run(controller).deadline_miss_rate == 0.0

    def test_ewma_on_a_fresh_runtime_covers_every_epoch(self):
        # Its predicted conditions miss the pre-warmed sweep memo.
        runtime = AdaptiveRuntime(trace=mobility_fading_trace(100, seed=2))
        assert runtime.run(EwmaPredictive()).n_epochs == 100

    def test_controllers_sharing_a_runtime_reuse_its_sweeps(self, monkeypatch):
        runtime = AdaptiveRuntime(trace=burst_trace(300, seed=1))
        live = _count_live_sweeps(monkeypatch)
        runtime.run(GreedyBatchSweep())
        assert live == []  # the pre-warm swept every epoch of the trace
        runtime.run(HysteresisThreshold())
        # Its band-edge and hostile reference conditions, off the trace.
        assert live == [1, 1]
        runtime.run(HysteresisThreshold())
        assert live == [1, 1]

    def test_ewma_sweeps_each_prediction_live_once(self, monkeypatch):
        runtime = AdaptiveRuntime(trace=mobility_fading_trace(100, seed=2))
        live = _count_live_sweeps(monkeypatch)
        first = runtime.run(EwmaPredictive())
        # One key per live sweep, at most one per epoch.
        assert 0 < len(live) <= 100 and set(live) == {1}
        n_live = len(live)
        assert runtime.run(EwmaPredictive()) == first
        assert len(live) == n_live


def _greedy_cosim(n_users, n_epochs):
    return CoSimulation(
        homogeneous(n_users, device="XR1"),
        GreedyBatchSweep(),
        step_trace(n_epochs, seed=11),
        n_edges=8,
        include_aoi=False,
    )


class TestCosimScale:
    @pytest.fixture(scope="class")
    def cosim_10k(self):
        return _timed(lambda: _greedy_cosim(10_000, 500).run())

    def test_ten_thousand_users_by_500_epochs_within_the_floor(self, cosim_10k):
        _, seconds = cosim_10k
        assert seconds <= MAX_COSIM_SECONDS, (
            f"10k-user x 500-epoch co-sim took {seconds:.2f} s"
        )

    def test_ten_thousand_users_by_500_epochs_pinned_outputs(self, cosim_10k):
        report, _ = cosim_10k
        assert (report.n_users, report.n_epochs) == (10_000, 500)
        # These three pin the whole-class best response, which never
        # offloads and leaves the step trace's high-throughput epochs
        # unconverged.  ROADMAP item 3 (a real population equilibrium) is
        # expected to re-pin them.
        assert report.deadline_miss_rate == pytest.approx(0.0, rel=PIN_RTOL)
        assert report.mean_offload_fraction == pytest.approx(0.0, rel=PIN_RTOL)
        assert report.n_unconverged_epochs == 250

    def test_same_inputs_reproduce_bit_identically(self):
        first = _greedy_cosim(2000, 120).run()
        second = _greedy_cosim(2000, 120).run()
        assert first.to_dict() == second.to_dict()

    def test_single_user_equals_the_adaptive_runtime(self):
        trace = burst_trace(200, seed=3)
        population = homogeneous(1, device="XR1")
        report = CoSimulation(population, GreedyBatchSweep(), trace).run()
        runtime = AdaptiveRuntime(
            trace=trace, device="XR1", edge="EDGE-AGX", app=population.users[0].app
        )
        assert report.class_reports[0] == runtime.run(GreedyBatchSweep())
