"""Unit tests for coefficient sets (Eqs. 3, 10, 12, 21 constants)."""

import pytest

from repro.core.coefficients import (
    PAPER_ENCODING,
    PAPER_POWER_BLEND,
    PAPER_RESOURCE_BLEND,
    CoefficientSet,
    EncodingCoefficients,
    QuadraticBlend,
    calibrated_coefficients,
)
from repro.exceptions import ModelDomainError


class TestQuadraticBlend:
    def test_paper_eq3_value_at_2ghz_cpu_only(self):
        # 18.24 + 1.84*4 - 6.02*2 = 13.56
        assert PAPER_RESOURCE_BLEND.evaluate(2.0, 1.0, 1.0) == pytest.approx(13.56)

    def test_blend_interpolates_between_cpu_and_gpu(self):
        cpu = PAPER_RESOURCE_BLEND.evaluate(2.0, 1.0, 1.0)
        gpu = PAPER_RESOURCE_BLEND.evaluate(2.0, 1.0, 0.0)
        half = PAPER_RESOURCE_BLEND.evaluate(2.0, 1.0, 0.5)
        assert half == pytest.approx(0.5 * (cpu + gpu))

    def test_invalid_share_rejected(self):
        with pytest.raises(ModelDomainError):
            PAPER_RESOURCE_BLEND.evaluate(2.0, 1.0, -0.1)

    def test_from_flat_roundtrip(self):
        blend = QuadraticBlend.from_flat([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert blend.cpu == (1.0, 2.0, 3.0)
        assert blend.gpu == (4.0, 5.0, 6.0)

    def test_from_flat_wrong_length(self):
        with pytest.raises(ModelDomainError):
            QuadraticBlend.from_flat([1.0, 2.0])


class TestEncodingCoefficients:
    def test_paper_eq10_numerator_positive_at_defaults(self):
        value = PAPER_ENCODING.numerator(30, 2, 10.0, 500.0, 30.0, 28)
        assert value > 0.0

    def test_numerator_increases_with_frame_size(self):
        small = PAPER_ENCODING.numerator(30, 2, 10.0, 300.0, 30.0, 28)
        large = PAPER_ENCODING.numerator(30, 2, 10.0, 700.0, 30.0, 28)
        assert large > small

    def test_out_of_domain_configuration_rejected(self):
        # A tiny frame at a tiny frame rate drives the paper regression negative.
        with pytest.raises(ModelDomainError):
            PAPER_ENCODING.numerator(60, 0, 0.1, 10.0, 1.0, 0)

    def test_from_flat_requires_seven(self):
        with pytest.raises(ModelDomainError):
            EncodingCoefficients.from_flat([1.0] * 6)


class TestCoefficientSet:
    def test_paper_set_has_published_r_squared(self, paper_coefficients):
        assert paper_coefficients.source == "paper"
        assert paper_coefficients.r_squared["compute_resource"] == pytest.approx(0.87)
        assert paper_coefficients.r_squared["cnn_complexity"] == pytest.approx(0.844)

    def test_decode_discount_is_one_third(self, paper_coefficients):
        assert paper_coefficients.decode_discount == pytest.approx(1.0 / 3.0)

    def test_edge_scale_matches_paper(self, paper_coefficients):
        assert paper_coefficients.edge_compute_scale == pytest.approx(11.76)

    def test_power_blend_is_eq21(self):
        assert PAPER_POWER_BLEND.cpu == (-20.74, 18.85, -3.64)

    def test_invalid_decode_discount_rejected(self):
        with pytest.raises(ModelDomainError):
            CoefficientSet(decode_discount=0.0)


class TestCalibration:
    def test_calibrated_set_is_cached(self):
        first = calibrated_coefficients(n_samples=800, seed=3)
        second = calibrated_coefficients(n_samples=800, seed=3)
        assert first is second

    def test_force_refit_builds_new_object(self):
        first = calibrated_coefficients(n_samples=800, seed=3)
        second = calibrated_coefficients(n_samples=800, seed=3, force_refit=True)
        assert first is not second
        assert second.source == "calibrated"

    def test_unfitted_constants_are_the_papers(self, session_calibrated_coefficients):
        # The campaign fits neither constant; the calibrated set reads them
        # from the testbed truth, which must hold the paper's values.
        paper = CoefficientSet.paper()
        assert session_calibrated_coefficients.decode_discount == paper.decode_discount
        assert session_calibrated_coefficients.edge_compute_scale == paper.edge_compute_scale

    def test_calibrated_resource_monotone_in_cpu_clock(self, session_calibrated_coefficients):
        blend = session_calibrated_coefficients.resource
        values = [blend.evaluate(freq, 0.8, 0.8) for freq in (1.0, 2.0, 3.0)]
        assert values[0] < values[1] < values[2]

    def test_calibrated_r_squared_close_to_paper(self, session_calibrated_coefficients):
        r2 = session_calibrated_coefficients.r_squared
        assert r2["compute_resource"] == pytest.approx(0.87, abs=0.12)
        assert r2["mean_power"] == pytest.approx(0.863, abs=0.12)
        assert r2["encoding_latency"] == pytest.approx(0.79, abs=0.15)
        assert r2["cnn_complexity"] == pytest.approx(0.844, abs=0.15)
