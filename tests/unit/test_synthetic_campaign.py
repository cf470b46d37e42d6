"""Unit tests for the synthetic measurement campaign and dataset containers."""

import numpy as np
import pytest

from repro.devices.catalog import TEST_DEVICES, TRAIN_DEVICES
from repro.exceptions import ConfigurationError, RegressionError
from repro.measurement.datasets import MeasurementDataset, split_by_device
from repro.measurement.synthetic import CampaignConfig, SyntheticCampaign


@pytest.fixture(scope="module")
def campaign_dataset():
    campaign = SyntheticCampaign(CampaignConfig(n_samples=1500, seed=5))
    return campaign, campaign.generate()


class TestCampaignConfig:
    def test_defaults_valid(self):
        config = CampaignConfig()
        assert config.n_samples > 0
        assert set(config.devices) == {f"XR{i}" for i in range(1, 8)}

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(devices=("XR1", "PIXEL9"))

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(compute_noise=1.5)


class TestDatasetGeneration:
    def test_sample_count(self, campaign_dataset):
        _, dataset = campaign_dataset
        assert len(dataset) == 1500

    def test_all_devices_present(self, campaign_dataset):
        _, dataset = campaign_dataset
        assert set(dataset.devices) == {f"XR{i}" for i in range(1, 8)}

    def test_measurements_positive(self, campaign_dataset):
        _, dataset = campaign_dataset
        for sample in dataset:
            assert sample.measured_compute > 0.0
            assert sample.measured_power_w > 0.0
            assert sample.measured_encoding_numerator > 0.0
            assert sample.measured_cnn_complexity > 0.0

    def test_generation_is_deterministic_per_seed(self):
        first = SyntheticCampaign(CampaignConfig(n_samples=50, seed=9)).generate()
        second = SyntheticCampaign(CampaignConfig(n_samples=50, seed=9)).generate()
        assert [s.measured_compute for s in first] == [s.measured_compute for s in second]

    def test_design_matrix_shapes(self, campaign_dataset):
        _, dataset = campaign_dataset
        assert dataset.resource_design_matrix().shape == (len(dataset), 6)
        assert dataset.encoding_design_matrix().shape == (len(dataset), 7)
        assert dataset.complexity_design_matrix().shape == (len(dataset), 4)

    def test_split_by_device_partitions(self, campaign_dataset):
        _, dataset = campaign_dataset
        train, test = split_by_device(dataset)
        assert set(train.devices) == set(TRAIN_DEVICES)
        assert set(test.devices) == set(TEST_DEVICES)
        assert len(train) + len(test) == len(dataset)

    def test_filter_unknown_device_rejected(self, campaign_dataset):
        _, dataset = campaign_dataset
        with pytest.raises(RegressionError):
            dataset.filter_devices(["nonexistent"])

    def test_empty_dataset_rejected(self):
        with pytest.raises(RegressionError):
            MeasurementDataset([])


class TestCampaignFits:
    def test_fits_have_reasonable_r_squared(self, campaign_dataset):
        campaign, dataset = campaign_dataset
        fits = campaign.fit(dataset)
        # The campaign is tuned so the fits land near the paper's reported
        # R^2 values (0.87 / 0.863 / 0.79 / 0.844); allow generous margins.
        assert 0.7 < fits.resource.r_squared_train <= 1.0
        assert 0.7 < fits.power.r_squared_train <= 1.0
        assert 0.6 < fits.encoding.r_squared_train <= 1.0
        assert 0.6 < fits.complexity.r_squared_train <= 1.0

    def test_held_out_devices_score_similarly(self, campaign_dataset):
        campaign, dataset = campaign_dataset
        fits = campaign.fit(dataset)
        assert fits.resource.r_squared_test == pytest.approx(
            fits.resource.r_squared_train, abs=0.15
        )

    def test_fitted_resource_coefficients_are_finite(self, campaign_dataset):
        campaign, dataset = campaign_dataset
        fits = campaign.fit(dataset)
        assert np.all(np.isfinite(fits.resource.coefficients))
        assert len(fits.encoding.coefficients) == 7
