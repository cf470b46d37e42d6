"""Unit tests for the shared-channel contention model."""

import math

import pytest

from repro.config.network import NetworkConfig
from repro.exceptions import ModelDomainError
from repro.fleet.contention import COLLISION_OVERHEAD, ContentionModel


@pytest.fixture
def contention(network: NetworkConfig) -> ContentionModel:
    return ContentionModel(network=network)


class TestSingleStation:
    def test_single_station_matches_configured_throughput(self, contention, network):
        assert contention.per_user_throughput_mbps(1) == network.throughput_mbps

    def test_single_station_network_is_unchanged(self, contention, network):
        assert contention.network_for(1) is network

    def test_channel_efficiency_is_one_at_one_station(self, contention):
        assert contention.channel_efficiency(1) == pytest.approx(1.0)


class TestDegradation:
    def test_per_user_rate_non_increasing(self, contention):
        rates = [contention.per_user_throughput_mbps(n) for n in range(1, 65)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_aggregate_rate_non_increasing(self, contention):
        totals = [contention.aggregate_throughput_mbps(n) for n in range(1, 65)]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_per_user_share_below_fair_split(self, contention, network):
        # Contention overhead makes the share strictly worse than r_w / N.
        assert contention.per_user_throughput_mbps(10) < network.throughput_mbps / 10

    def test_share_is_a_fair_split_of_the_decayed_channel(self, contention, network):
        # Eight stations share r_w / (1 + 0.08 ln 8) equally.
        assert COLLISION_OVERHEAD == 0.08
        efficiency = 1.0 / (1.0 + COLLISION_OVERHEAD * math.log(8))
        assert contention.per_user_throughput_mbps(8) == pytest.approx(
            network.throughput_mbps * efficiency / 8
        )

    def test_network_for_carries_degraded_throughput(self, contention):
        degraded = contention.network_for(16)
        assert degraded.throughput_mbps == pytest.approx(
            contention.per_user_throughput_mbps(16)
        )
        # Everything else about the topology is preserved.
        assert degraded.sensors == contention.network.sensors


class TestValidation:
    def test_zero_stations_rejected(self, contention):
        with pytest.raises(ModelDomainError):
            contention.per_user_throughput_mbps(0)


