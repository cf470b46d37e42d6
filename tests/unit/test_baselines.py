"""Unit tests for the FACT and LEAF baseline models."""

import pytest

from repro.baselines.fact import FACTModel
from repro.baselines.leaf import LEAFModel
from repro.exceptions import ModelDomainError


@pytest.fixture(scope="module")
def reference_run(quick_testbed):
    return quick_testbed.reference_run(n_frames=10)


@pytest.fixture
def calibrated_fact(reference_run, network):
    model = FACTModel()
    model.calibrate(reference_run, network)
    return model


@pytest.fixture
def calibrated_leaf(reference_run, network):
    model = LEAFModel()
    model.calibrate(reference_run, network)
    return model


class TestCalibrationGate:
    def test_uncalibrated_fact_raises(self, remote_app):
        with pytest.raises(ModelDomainError):
            FACTModel().latency_ms(remote_app)

    def test_uncalibrated_leaf_raises(self, remote_app):
        with pytest.raises(ModelDomainError):
            LEAFModel().energy_mj(remote_app)


class TestFACT:
    def test_reproduces_reference_point(self, calibrated_fact, reference_run, network):
        app = reference_run.app
        assert calibrated_fact.latency_ms(app, network) == pytest.approx(
            reference_run.mean_latency_ms, rel=0.02
        )
        assert calibrated_fact.energy_mj(app, network) == pytest.approx(
            reference_run.mean_energy_mj, rel=0.02
        )

    def test_latency_scales_linearly_with_frame_size(self, calibrated_fact, reference_run, network):
        app = reference_run.app
        small = calibrated_fact.latency_ms(app.with_frame_side(250.0), network)
        large = calibrated_fact.latency_ms(app.with_frame_side(1000.0), network)
        assert large > small

    def test_latency_scales_inversely_with_cpu_clock(self, calibrated_fact, reference_run, network):
        app = reference_run.app
        slow = calibrated_fact.latency_ms(app.with_cpu_freq(1.0), network)
        fast = calibrated_fact.latency_ms(app.with_cpu_freq(3.0), network)
        assert slow > fast

    def test_energy_proportional_to_latency(self, calibrated_fact, reference_run, network):
        app = reference_run.app.with_frame_side(350.0)
        ratio = calibrated_fact.energy_mj(app, network) / calibrated_fact.latency_ms(app, network)
        reference_ratio = reference_run.mean_energy_mj / reference_run.mean_latency_ms
        assert ratio == pytest.approx(reference_ratio)


class TestLEAF:
    def test_reproduces_reference_point(self, calibrated_leaf, reference_run):
        app = reference_run.app
        assert calibrated_leaf.latency_ms(app) == pytest.approx(
            reference_run.mean_latency_ms, rel=0.02
        )

    def test_constant_segments_do_not_scale(self, calibrated_leaf, reference_run):
        app = reference_run.app
        # Transmission and sensor waiting are carried as constants, so the
        # latency gap between frame sizes is smaller than a full proportional
        # rescale of the reference latency.
        small = calibrated_leaf.latency_ms(app.with_frame_side(250.0))
        full_rescale = reference_run.mean_latency_ms * 250.0 / app.frame_side_px
        assert small > full_rescale

    def test_energy_positive_and_increasing_in_frame_size(self, calibrated_leaf, reference_run):
        app = reference_run.app
        small = calibrated_leaf.energy_mj(app.with_frame_side(300.0))
        large = calibrated_leaf.energy_mj(app.with_frame_side(700.0))
        assert 0.0 < small < large

    def test_leaf_closer_to_truth_than_fact_off_calibration_point(
        self, calibrated_leaf, calibrated_fact, reference_run, network, quick_testbed
    ):
        app = reference_run.app.with_frame_side(300.0)
        truth = quick_testbed.run(app, network=network, n_frames=10, repetitions=2)
        leaf_error = abs(calibrated_leaf.latency_ms(app) - truth.mean_latency_ms)
        fact_error = abs(calibrated_fact.latency_ms(app, network) - truth.mean_latency_ms)
        assert leaf_error < fact_error
