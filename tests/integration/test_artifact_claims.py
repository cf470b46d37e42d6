"""The claims of the committed ``results/`` artifacts, at the size they are built.

``repro figures check`` holds each committed text artifact to its generator
byte for byte (``test_figures_check.py``).  This module asserts what those
artifacts claim, on the same inputs the figure registry builds them from:
the paper's full sweep and the 6,000-sample calibration campaign for
Fig. 4(a)-(d), Fig. 5 and the regression fits, the paper's AoI workloads
for Fig. 4(e)-(f), and the registry's full-size parameters for the
coefficient ablation and the session and adaptation extensions.  The
reduced-sweep versions of these checks live in ``test_validation_quick.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.application import ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.evaluation.ablations import ablation_coefficient_source
from repro.evaluation.extensions import adaptation_extension, session_extension
from repro.evaluation.figures import (
    FigureContext,
    figure_4a,
    figure_4b,
    figure_4c,
    figure_4d,
    figure_4e,
    figure_4f,
    figure_5a,
    figure_5b,
)

#: Train R^2 the paper reports for Eqs. (3), (21), (10) and (12).
PAPER_R2 = {
    "compute_resource": 0.87,
    "mean_power": 0.863,
    "encoding_latency": 0.79,
    "cnn_complexity": 0.844,
}


@pytest.fixture(scope="module")
def context():
    """The full-size figure context (calibration is cached per process)."""
    return FigureContext(quick=False)


@pytest.fixture(scope="module")
def model(context):
    return XRPerformanceModel(
        device=context.testbed.device,
        edge=context.testbed.edge,
        coefficients=context.coefficients,
    )


def _grows_with_frame_size(values):
    return values[0] < values[-1]


class TestLatencyAndEnergyValidation:
    def test_fig4a_local_latency(self, context):
        figure = figure_4a(context=context)
        # The paper reports 2.74 %; the simulated testbed keeps the model
        # within single digits.
        assert figure.mean_error_percent < 8.0
        comparison = figure.comparison
        for series in comparison.series:
            assert _grows_with_frame_size(series.ground_truth)
            assert _grows_with_frame_size(series.model)
        slowest = comparison.series_for(min(context.sweep_config.cpu_freqs_ghz))
        fastest = comparison.series_for(max(context.sweep_config.cpu_freqs_ghz))
        assert fastest.ground_truth[-1] < slowest.ground_truth[-1]

    def test_fig4b_remote_latency(self, context, model):
        figure = figure_4b(context=context)
        assert figure.mean_error_percent < 8.0
        for series in figure.comparison.series:
            assert _grows_with_frame_size(series.ground_truth)
        # The paper leaves mobility out of this figure: no handoff segment.
        breakdown = model.analyze_latency(
            model.app.with_mode(ExecutionMode.REMOTE), context.network
        )
        assert breakdown.segment_ms(Segment.HANDOFF) == 0.0

    def test_fig4c_local_energy(self, context):
        figure = figure_4c(context=context)
        assert figure.mean_error_percent < 10.0
        for series in figure.comparison.series:
            assert _grows_with_frame_size(series.ground_truth)
            assert _grows_with_frame_size(series.model)

    def test_fig4d_remote_energy(self, context, model):
        figure = figure_4d(context=context)
        assert figure.mean_error_percent < 10.0
        for series in figure.comparison.series:
            assert _grows_with_frame_size(series.ground_truth)
        # Waiting on the edge draws far less power than the encoder.
        energy = model.analyze_energy(model.app.with_mode(ExecutionMode.REMOTE))
        assert energy.segment_mj(Segment.REMOTE_INFERENCE) < energy.segment_mj(
            Segment.ENCODING
        )


    @pytest.mark.parametrize(
        "generator, mode",
        [
            (figure_4a, ExecutionMode.LOCAL),
            (figure_4b, ExecutionMode.REMOTE),
            (figure_4c, ExecutionMode.LOCAL),
            (figure_4d, ExecutionMode.REMOTE),
        ],
        ids=["4a", "4b", "4c", "4d"],
    )
    def test_model_curve_is_the_scalar_model(self, context, model, generator, mode):
        # The figure evaluates the whole sweep as one batch; each point must
        # be what a scalar analyze with the calibrated coefficients reports.
        comparison = generator(context=context).comparison
        app = context.app.with_mode(mode)
        for cpu_freq, frame_side, _, value in comparison.rows():
            report = model.analyze(
                replace(app, cpu_freq_ghz=cpu_freq, frame_side_px=frame_side),
                context.network,
                include_aoi=False,
            )
            expected = (
                report.total_latency_ms
                if comparison.metric == "latency"
                else report.total_energy_mj
            )
            assert value == pytest.approx(expected, rel=1e-9)


class TestAoIValidation:
    def test_fig4e_sensor_ages_by_its_generation_gap(self):
        by_frequency = {t.generation_frequency_hz: t for t in figure_4e().analytical}
        # The 200 Hz sensor meets the 5 ms requirement: its AoI stays flat.
        flat = by_frequency[200.0]
        assert np.max(flat.aoi_ms) - np.min(flat.aoi_ms) < 1.0
        assert by_frequency[100.0].final_aoi_ms > by_frequency[200.0].final_aoi_ms
        assert by_frequency[66.67].final_aoi_ms > by_frequency[100.0].final_aoi_ms
        # Each cycle adds 1/f_t - 1/f_req.
        increments = np.diff(by_frequency[66.67].aoi_ms)
        assert np.allclose(increments, 1e3 / 66.67 - 5.0, atol=1e-3)

    def test_fig4f_staircase_and_roi(self):
        timeline = figure_4f().analytical[0]
        assert timeline.roi[:3] == pytest.approx([0.5, 0.333, 0.25], abs=0.05)
        assert np.allclose(np.diff(timeline.aoi_ms), 5.0, atol=1e-6)
        assert np.all(np.diff(timeline.roi) < 0.0)


class TestBaselineComparison:
    @pytest.mark.parametrize("generator", [figure_5a, figure_5b], ids=["5a", "5b"])
    def test_proposed_model_is_most_accurate(self, context, generator):
        figure = generator(context=context)
        assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("LEAF")
        assert figure.mean_accuracy("Proposed") > figure.mean_accuracy("FACT")
        assert figure.mean_accuracy("Proposed") > 93.0
        # The paper's gains are 17.59 / 7.49 % (latency), 15.30 / 8.71 % (energy).
        assert 2.0 < figure.gain_vs_fact < 40.0
        assert 2.0 < figure.gain_vs_leaf < 25.0

    def test_leaf_beats_fact_on_latency(self, context):
        figure = figure_5a(context=context)
        assert figure.mean_accuracy("LEAF") > figure.mean_accuracy("FACT")


class TestRegressionFits:
    def test_train_r_squared_near_the_paper(self, context):
        r2 = context.coefficients.r_squared
        assert abs(r2["compute_resource"] - PAPER_R2["compute_resource"]) < 0.15
        assert abs(r2["mean_power"] - PAPER_R2["mean_power"]) < 0.15
        assert abs(r2["encoding_latency"] - PAPER_R2["encoding_latency"]) < 0.18
        assert abs(r2["cnn_complexity"] - PAPER_R2["cnn_complexity"]) < 0.18

    def test_held_out_devices_generalise(self, context):
        r2 = context.coefficients.r_squared
        assert abs(r2["compute_resource_test"] - r2["compute_resource"]) < 0.15
        assert abs(r2["mean_power_test"] - r2["mean_power"]) < 0.15


class TestAblationAndExtensions:
    def test_calibrated_constants_beat_the_paper_constants(self):
        headline = ablation_coefficient_source(quick=False).headline
        paper_error = float(headline.split("paper constants ")[1].split("%")[0])
        calibrated_error = float(headline.split("calibrated constants ")[1].split("%")[0])
        assert calibrated_error < paper_error
        assert calibrated_error < 10.0

    def test_greedy_sweep_carries_more_quality_than_best_static(self):
        # Rows: best static, hysteresis, greedy, ewma.
        result = adaptation_extension(n_epochs=150, seed=3)
        assert len(result.rows) == 4
        qualities = [float(row[3]) for row in result.rows]
        assert qualities[2] > qualities[0]

    def test_session_extension_reports_every_metric(self):
        assert len(session_extension(n_frames=200, seed=3).rows) == 7
