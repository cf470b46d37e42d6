"""Unit tests for the sweep comparison and figure generators (quick sweeps)."""

import pytest

from repro.config.application import ExecutionMode
from repro.evaluation.figures import (
    FigureContext,
    figure_4a,
    figure_4e,
    figure_4f,
    figure_5a,
)
from repro.evaluation.sweeps import run_sweep_comparison
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def context():
    return FigureContext(quick=True)


class TestSweepComparison:
    def test_invalid_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            run_sweep_comparison(metric="throughput", mode=ExecutionMode.LOCAL)

    def test_comparison_structure(self, context):
        comparison = context.comparison("latency", ExecutionMode.LOCAL)
        sweep = context.sweep_config
        assert len(comparison.series) == len(sweep.cpu_freqs_ghz)
        for series in comparison.series:
            assert len(series.ground_truth) == len(sweep.frame_sides_px)
            assert len(series.model) == len(sweep.frame_sides_px)

    def test_rows_flatten_all_points(self, context):
        comparison = context.comparison("latency", ExecutionMode.LOCAL)
        assert len(comparison.rows()) == context.sweep_config.n_points

    def test_ground_truth_increases_with_frame_size(self, context):
        comparison = context.comparison("latency", ExecutionMode.LOCAL)
        for series in comparison.series:
            assert series.ground_truth[0] < series.ground_truth[-1]

    def test_model_error_is_small(self, context):
        comparison = context.comparison("latency", ExecutionMode.LOCAL)
        assert comparison.mean_error_percent < 10.0

    def test_energy_comparison_reuses_ground_truth(self, context):
        energy = context.comparison("energy", ExecutionMode.LOCAL)
        assert energy.metric == "energy"
        assert energy.mean_error_percent < 12.0


class TestFigures:
    def test_figure_4a_structure(self, context):
        figure = figure_4a(context=context)
        assert figure.figure_id == "4a"
        assert figure.paper_mean_error_percent == pytest.approx(2.74)
        assert "mean error" in figure.to_text()

    def test_figure_4e_slow_sensor_ages_faster(self):
        figure = figure_4e()
        by_frequency = {t.generation_frequency_hz: t for t in figure.analytical}
        assert by_frequency[66.67].final_aoi_ms > by_frequency[200.0].final_aoi_ms
        assert figure.mean_error_percent() < 20.0

    def test_figure_4f_staircase_and_roi(self):
        figure = figure_4f()
        timeline = figure.analytical[0]
        assert list(timeline.aoi_ms[:3]) == pytest.approx([10.0, 15.0, 20.0], abs=1.5)
        assert list(timeline.roi[:3]) == pytest.approx([0.5, 0.33, 0.25], abs=0.05)

    def test_figure_5a_ranking(self, context):
        figure = figure_5a(context=context)
        assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("LEAF")
        assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("FACT")
        assert "Proposed" in figure.to_text()
