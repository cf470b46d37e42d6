"""Unit tests for path loss and small-scale fading models."""

import numpy as np
import pytest

from repro.exceptions import ModelDomainError
from repro.network.fading import RicianFading
from repro.network.pathloss import (
    REFERENCE_DISTANCE_M,
    LogDistancePathLoss,
    free_space_path_loss_db,
)


class TestFreeSpacePathLoss:
    def test_known_value_at_1km_2_4ghz(self):
        # FSPL(1 km, 2.4 GHz) ~ 100.1 dB
        assert free_space_path_loss_db(1000.0, 2.4) == pytest.approx(100.1, abs=0.3)

    def test_loss_increases_with_distance(self):
        assert free_space_path_loss_db(200.0, 5.0) > free_space_path_loss_db(100.0, 5.0)

    def test_loss_increases_with_frequency(self):
        assert free_space_path_loss_db(100.0, 5.0) > free_space_path_loss_db(100.0, 2.4)

    def test_doubling_distance_adds_6db(self):
        delta = free_space_path_loss_db(200.0, 5.0) - free_space_path_loss_db(100.0, 5.0)
        assert delta == pytest.approx(6.02, abs=0.05)

    def test_rejects_zero_distance(self):
        with pytest.raises(ModelDomainError):
            free_space_path_loss_db(0.0, 5.0)


class TestLogDistance:
    def test_exponent_controls_slope(self):
        gentle = LogDistancePathLoss(exponent=2.0)
        steep = LogDistancePathLoss(exponent=4.0)
        assert steep.path_loss_db(100.0) > gentle.path_loss_db(100.0)

    def test_loss_at_reference_distance_is_free_space(self):
        model = LogDistancePathLoss(exponent=3.0, carrier_frequency_ghz=5.0)
        assert model.path_loss_db(REFERENCE_DISTANCE_M) == pytest.approx(
            free_space_path_loss_db(REFERENCE_DISTANCE_M, 5.0)
        )

    def test_received_power(self):
        model = LogDistancePathLoss(exponent=3.0)
        rx = model.received_power_dbm(tx_power_dbm=20.0, distance_m=30.0)
        assert rx == pytest.approx(20.0 - model.path_loss_db(30.0))

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ModelDomainError):
            LogDistancePathLoss(exponent=0.0)


class TestFading:
    def test_rician_mean_power_gain(self, rng):
        gains = RicianFading().sample(rng, size=50_000)
        assert np.mean(gains) == pytest.approx(1.0, rel=0.05)
        assert np.all(gains >= 0.0)

    def test_rician_variance_matches_its_k_factor(self, rng):
        # A unit-mean Rician power gain has variance (1 + 2K) / (1 + K)^2,
        # below the Rayleigh (K = 0) channel's 1.
        k = RicianFading.K_FACTOR
        gains = RicianFading().sample(rng, size=50_000)
        assert np.var(gains) == pytest.approx((1.0 + 2.0 * k) / (1.0 + k) ** 2, rel=0.05)

    def test_sample_size_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            RicianFading().sample(rng, size=0)
