"""Unit tests for the Wi-Fi link model."""

import pytest

from repro.config.network import NetworkConfig
from repro.exceptions import ModelDomainError
from repro.network.wifi import MAC_EFFICIENCY, WifiLink, shannon_capacity_mbps


class TestShannonCapacity:
    def test_capacity_grows_with_snr(self):
        assert shannon_capacity_mbps(80.0, 30.0) > shannon_capacity_mbps(80.0, 10.0)

    def test_capacity_scales_with_bandwidth(self):
        assert shannon_capacity_mbps(160.0, 20.0) == pytest.approx(
            2.0 * shannon_capacity_mbps(80.0, 20.0)
        )

    def test_zero_snr_gives_one_bit_per_symbol(self):
        # log2(1 + 1) = 1 bit/s/Hz at 0 dB, of which the MAC delivers its share.
        assert shannon_capacity_mbps(10.0, 0.0) == pytest.approx(10.0 * MAC_EFFICIENCY)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ModelDomainError):
            shannon_capacity_mbps(0.0, 10.0)


class TestWifiLinkWithoutPathLoss:
    def test_throughput_is_configured_value(self, network):
        link = WifiLink(config=network)
        assert link.throughput_mbps() == pytest.approx(network.throughput_mbps)

    def test_snr_requires_path_loss(self, network):
        with pytest.raises(ModelDomainError):
            WifiLink(config=network).snr_db()


class TestWifiLinkWithPathLoss:
    def test_link_budget_throughput_decreases_with_distance(self):
        near, far = (
            WifiLink(config=NetworkConfig(enable_path_loss=True, edge_distance_m=distance))
            for distance in (10.0, 80.0)
        )
        assert near.throughput_mbps() > far.throughput_mbps()

    def test_path_loss_model_built_automatically(self):
        config = NetworkConfig(enable_path_loss=True, path_loss_exponent=3.5)
        link = WifiLink(config=config)
        assert link.path_loss is not None
        assert link.path_loss.exponent == pytest.approx(3.5)

    def test_noise_floor_reasonable(self):
        config = NetworkConfig(enable_path_loss=True, bandwidth_mhz=80.0, noise_figure_db=7.0)
        noise_dbm = WifiLink(config=config).noise_power_dbm()
        assert -100.0 < noise_dbm < -80.0

