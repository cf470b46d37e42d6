"""Property-based tests of the calibration chain (truth -> campaign -> fit)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coefficients import CoefficientSet
from repro.measurement.datasets import MeasurementDataset
from repro.measurement.regression import LinearRegression
from repro.measurement.synthetic import CampaignConfig, SyntheticCampaign
from repro.measurement.truth import TestbedTruth
from repro.simulation.testbed import truth_coefficients


class TestNoiseFreeRecovery:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_noise_free_campaign_recovers_truth_exactly_for_one_device(self, seed):
        """With zero noise and a single device, the regression forms are exact."""
        config = CampaignConfig(
            n_samples=400,
            devices=("XR2",),
            seed=seed,
            compute_noise=0.0,
            power_noise=0.0,
            encoding_noise=0.0,
            complexity_noise=0.0,
        )
        campaign = SyntheticCampaign(config)
        dataset = campaign.generate()
        truth = campaign.truth
        exact = truth_coefficients(truth, "XR2")

        fit = LinearRegression(MeasurementDataset.RESOURCE_FEATURES).fit(
            dataset.resource_design_matrix(), dataset.resource_targets()
        )
        fitted = CoefficientSet(
            resource=exact.resource, power=exact.power, encoding=exact.encoding
        )
        del fitted
        # The fitted blend evaluates identically to the truth surface everywhere
        # on the sampled domain (the affine truth lies inside the quadratic form).
        predictions = fit.coefficients
        for fc in (1.0, 2.0, 3.0):
            for fg in (0.4, 0.8, 1.2):
                for share in (0.0, 0.5, 1.0):
                    features = np.array(
                        [share, share * fc, share * fc**2, 1 - share, (1 - share) * fg, (1 - share) * fg**2]
                    )
                    assert features @ predictions == pytest.approx(
                        truth.compute_capability(fc, fg, share, device_name="XR2"), rel=1e-6
                    )

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_r_squared_close_to_one_without_noise(self, seed):
        config = CampaignConfig(
            n_samples=600,
            devices=("XR1",),
            seed=seed,
            compute_noise=0.0,
            power_noise=0.0,
            encoding_noise=0.0,
            complexity_noise=0.0,
        )
        fits = SyntheticCampaign(config).fit(
            train_devices=("XR1",), test_devices=("XR1",)
        )
        for fit in (fits.resource, fits.power, fits.encoding, fits.complexity):
            assert fit.r_squared_train == pytest.approx(1.0, abs=1e-6)


class TestNoiseDegradesFitGracefully:
    @settings(max_examples=6, deadline=None)
    @given(noise=st.floats(min_value=0.02, max_value=0.3))
    def test_more_noise_never_improves_r_squared_much(self, noise):
        quiet = SyntheticCampaign(
            CampaignConfig(n_samples=1200, seed=11, compute_noise=0.01)
        ).fit()
        loud = SyntheticCampaign(
            CampaignConfig(n_samples=1200, seed=11, compute_noise=noise)
        ).fit()
        assert (
            loud.resource.r_squared_train
            <= quiet.resource.r_squared_train + 0.02
        )


class TestExactCoefficientSets:
    @settings(max_examples=20, deadline=None)
    @given(
        fc=st.floats(min_value=0.9, max_value=3.2),
        fg=st.floats(min_value=0.3, max_value=1.3),
        share=st.floats(min_value=0.0, max_value=1.0),
        device=st.sampled_from(["XR1", "XR2", "XR3", "XR4", "XR5", "XR6", "XR7"]),
    )
    def test_truth_coefficients_match_truth_surfaces_everywhere(self, fc, fg, share, device):
        truth = TestbedTruth()
        exact = truth_coefficients(truth, device)
        assert exact.resource.evaluate(fc, fg, share) == pytest.approx(
            truth.compute_capability(fc, fg, share, device_name=device), rel=1e-9
        )
        assert exact.power.evaluate(fc, fg, share) == pytest.approx(
            truth.mean_power_w(fc, fg, share, device_name=device), rel=1e-9
        )
