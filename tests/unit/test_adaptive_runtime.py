"""Unit tests for the adaptive runtime, control context and report."""

from dataclasses import replace

import numpy as np
import pytest

from repro.adaptive.controllers import GreedyBatchSweep, StaticBaseline
from repro.adaptive.runtime import (
    AdaptiveRuntime,
    CandidateEvaluation,
    ControlContext,
    candidate_quality,
    default_candidates,
)
from repro.adaptive.traces import EpochConditions, burst_trace, drift_trace
from repro.batch import ConditionedPoints
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.exceptions import ConfigurationError, ModelDomainError


def _points(cpu_freq_ghz=2.0, frame_side_px=500.0, **kwargs):
    """The default grid's (local, remote, split) candidates at one clock and side."""
    return tuple(
        point
        for point in default_candidates(**kwargs)
        if point.app.cpu_freq_ghz == cpu_freq_ghz
        and point.app.frame_side_px == frame_side_px
    )


def _placed(mode, **kwargs):
    """The candidate of :func:`_points` that runs inference in ``mode``."""
    return next(p for p in _points(**kwargs) if p.app.inference.mode is mode)


@pytest.fixture(scope="module")
def small_candidates():
    return _points()


@pytest.fixture(scope="module")
def small_context(small_candidates):
    return ControlContext(candidates=small_candidates, deadline_ms=700.0)


class TestCandidateQuality:
    def test_remote_beats_local_at_equal_side(self, small_candidates):
        by_mode = {p.app.inference.mode: candidate_quality(p) for p in small_candidates}
        assert by_mode[ExecutionMode.REMOTE] > by_mode[ExecutionMode.SPLIT]
        assert by_mode[ExecutionMode.SPLIT] > by_mode[ExecutionMode.LOCAL]

    def test_larger_frames_score_higher(self):
        small = _placed(ExecutionMode.LOCAL, frame_side_px=300.0)
        large = _placed(ExecutionMode.LOCAL, frame_side_px=700.0)
        assert candidate_quality(small) < candidate_quality(large)

    def test_side_factor_saturates_at_cnn_input(self):
        remote = _placed(ExecutionMode.REMOTE, frame_side_px=700.0)
        at_input = replace(remote, app=replace(remote.app, frame_side_px=640.0))
        assert candidate_quality(at_input) == candidate_quality(remote)


class TestControlContext:
    def test_validation(self, small_candidates):
        with pytest.raises(ConfigurationError):
            ControlContext(candidates=(), deadline_ms=100.0)
        with pytest.raises(ConfigurationError):
            ControlContext(candidates=small_candidates, deadline_ms=0.0)
        with pytest.raises(ConfigurationError):
            ControlContext(
                candidates=small_candidates, deadline_ms=100.0, objective="karma"
            )

    def test_nan_deadline_rejected(self):
        # Every `latency > nan` is false, so a NaN deadline read as a 0.0
        # miss rate on a trace where a 1 ms deadline misses every epoch.
        trace = burst_trace(10, seed=0)
        strict = AdaptiveRuntime(trace=trace, deadline_ms=1.0)
        assert strict.run(GreedyBatchSweep()).deadline_miss_rate == 1.0
        with pytest.raises(ConfigurationError, match="deadline"):
            AdaptiveRuntime(trace=trace, deadline_ms=float("nan"))

    def test_out_of_domain_candidate_fails_at_construction(self):
        # A non-positive encoding workload raises when the candidates are
        # compiled, not at the first sweep.  An I-frame interval of 2000
        # drives the paper's encoding regression below zero.
        app = ApplicationConfig.object_detection_default()
        app = replace(app, encoder=replace(app.encoder, i_frame_interval=2000))
        candidates = _points(app=app)
        with pytest.raises(ModelDomainError, match="non-positive workload"):
            ConditionedPoints(candidates)
        with pytest.raises(ModelDomainError, match="non-positive workload"):
            ControlContext(candidates=candidates, deadline_ms=100.0)

    def test_sweep_is_memoized(self, small_context):
        conditions = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.05
        )
        assert small_context.sweep(conditions) is small_context.sweep(conditions)

    def test_prewarm_covers_every_epoch(self, small_candidates):
        context = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        trace = burst_trace(30, seed=3)
        fresh = context.prewarm(trace)
        assert 0 < fresh <= 30
        assert context.prewarm(trace) == 0  # everything cached now

    def test_prewarmed_sweep_matches_direct_evaluation(self, small_candidates):
        trace = drift_trace(20, seed=3)
        warmed = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        warmed.prewarm(trace)
        cold = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        for epoch in trace:
            np.testing.assert_array_equal(
                warmed.sweep(epoch).latency_ms, cold.sweep(epoch).latency_ms
            )
            np.testing.assert_array_equal(
                warmed.sweep(epoch).energy_mj, cold.sweep(epoch).energy_mj
            )

    def test_off_grid_handoff_falls_back_to_live_sweep(self, small_candidates):
        """Conditions off the 0.005 trace grid must be evaluated live.

        The bundled generators quantize handoff probabilities, but
        hand-built or co-sim-generated conditions need not be on that grid;
        they must neither raise nor silently reuse a neighbouring grid
        point's cached arrays.
        """
        trace = drift_trace(10, seed=3)
        context = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        context.prewarm(trace)
        off_grid = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.00314159
        )
        evaluation = context.sweep(off_grid)  # no KeyError
        fresh = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        np.testing.assert_array_equal(
            evaluation.latency_ms, fresh.sweep(off_grid).latency_ms
        )
        np.testing.assert_array_equal(
            evaluation.energy_mj, fresh.sweep(off_grid).energy_mj
        )

    def test_off_grid_neighbours_do_not_alias(self, small_candidates):
        context = ControlContext(candidates=small_candidates, deadline_ms=700.0)
        on_grid = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.005
        )
        off_grid = EpochConditions(
            time_ms=0.0, throughput_mbps=42.0, handoff_probability=0.0049
        )
        cached_on = context.sweep(on_grid)
        cached_off = context.sweep(off_grid)
        # Distinct conditions must own distinct cache entries, and a higher
        # handoff probability cannot make any candidate faster.
        assert cached_on is not cached_off
        assert context.sweep(off_grid) is cached_off
        assert (cached_on.latency_ms >= cached_off.latency_ms).all()

    def test_sweep_matches_scalar_model(self, small_context):
        """The adaptive evaluation path is the scalar model, bit-for-bit."""
        conditions = EpochConditions(
            time_ms=0.0, throughput_mbps=17.0, handoff_probability=0.2
        )
        evaluation = small_context.sweep(conditions)
        for i, point in enumerate(small_context.candidates):
            handoff = replace(
                point.network.handoff, enabled=True, handoff_probability=0.2
            )
            network = replace(
                point.network, throughput_mbps=17.0, handoff=handoff
            )
            report = XRPerformanceModel(
                device=point.device, edge=point.edge, app=point.app, network=network
            ).analyze()
            assert evaluation.latency_ms[i] == report.total_latency_ms
            assert evaluation.energy_mj[i] == report.total_energy_mj


class TestSelection:
    def _evaluation(self, latency, energy):
        return CandidateEvaluation(
            latency_ms=np.asarray(latency, dtype=float),
            energy_mj=np.asarray(energy, dtype=float),
        )

    def _select(self, candidates, evaluation, objective):
        context = ControlContext(candidates=candidates, deadline_ms=700.0, objective=objective)
        return context.select(evaluation)

    def test_quality_objective_prefers_high_quality_feasible(self, small_candidates):
        # Candidates are (local, remote, split); remote has top quality.
        evaluation = self._evaluation([100.0, 200.0, 300.0], [1.0, 2.0, 3.0])
        assert self._select(small_candidates, evaluation, "quality") == 1

    def test_latency_objective_prefers_fastest(self, small_candidates):
        evaluation = self._evaluation([100.0, 90.0, 300.0], [1.0, 2.0, 3.0])
        assert self._select(small_candidates, evaluation, "latency") == 1

    def test_energy_objective_prefers_cheapest_feasible(self, small_candidates):
        evaluation = self._evaluation([100.0, 200.0, 800.0], [5.0, 2.0, 0.1])
        assert self._select(small_candidates, evaluation, "energy") == 1

    def test_infeasible_candidates_are_excluded(self, small_candidates):
        evaluation = self._evaluation([100.0, 800.0, 800.0], [9.0, 1.0, 1.0])
        for objective in ("quality", "latency", "energy"):
            assert self._select(small_candidates, evaluation, objective) == 0

    def test_all_infeasible_falls_back_to_least_bad(self, small_context):
        evaluation = self._evaluation([900.0, 800.0, 950.0], [1.0, 2.0, 3.0])
        assert small_context.select(evaluation) == 1


class TestRuntime:
    def test_report_geometry_and_aggregates(self):
        trace = burst_trace(40, seed=1)
        runtime = AdaptiveRuntime(trace=trace)
        report = runtime.run(GreedyBatchSweep())
        assert report.n_epochs == 40
        assert len(report.chosen_indices) == 40
        assert len(report.latency_ms) == 40
        assert report.p50_latency_ms <= report.p95_latency_ms <= report.p99_latency_ms
        assert report.deadline_miss_rate == pytest.approx(
            np.mean(np.asarray(report.latency_ms) > report.deadline_ms)
        )
        assert report.switch_count == int(
            np.count_nonzero(np.diff(report.chosen_indices))
        )
        assert report.trace_name == "burst"
        assert "miss rate" in report.summary()

    def test_aoi_disabled_drops_aoi_fields(self):
        runtime = AdaptiveRuntime(trace=burst_trace(10, seed=1), include_aoi=False)
        report = runtime.run(GreedyBatchSweep())
        assert report.min_roi is None
        assert report.aoi_violation_rate is None

    def test_total_energy_integrates_frames_per_epoch(self):
        trace = burst_trace(10, seed=1)
        runtime = AdaptiveRuntime(trace=trace)
        report = runtime.run(StaticBaseline(0))
        frames_per_epoch = trace.epoch_ms / runtime.candidates[0].app.frame_period_ms
        expected = sum(report.energy_mj) * frames_per_epoch / 1e3
        assert report.total_energy_j == pytest.approx(expected)

    def test_static_report_defaults_to_best_static(self):
        runtime = AdaptiveRuntime(trace=burst_trace(30, seed=1))
        best = runtime.static_report()
        rates = runtime.static_deadline_miss_rates()
        assert best.deadline_miss_rate == pytest.approx(rates.min())

    def test_out_of_range_controller_choice_rejected(self):
        runtime = AdaptiveRuntime(trace=burst_trace(5, seed=1))
        with pytest.raises(ConfigurationError):
            runtime.run(StaticBaseline(10_000))

    def test_to_dict_is_json_compatible(self):
        import json

        runtime = AdaptiveRuntime(trace=drift_trace(10, seed=1))
        report = runtime.run(GreedyBatchSweep())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_epochs"] == 10
        assert payload["controller"] == "greedy-sweep"
