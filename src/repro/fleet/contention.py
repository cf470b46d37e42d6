"""Shared-channel contention model for multi-user Wi-Fi cells.

The paper's transmission model (Eq. 16) takes the wireless throughput
``r_w`` as a given per-device constant; with ``N`` stations on the same
channel that constant has to shrink.  :class:`ContentionModel` wraps
:class:`repro.network.wifi.WifiLink` and splits the channel among the active
stations:

* the *aggregate* deliverable throughput decays logarithmically with the
  station count (CSMA/CA collision and backoff overhead grows with
  contenders — the classic Bianchi DCF result is well approximated by a
  ``1 / (1 + a ln N)`` efficiency curve, with ``a`` =
  :data:`COLLISION_OVERHEAD`),
* each station receives an equal (fair, long-term) share of the aggregate.

With a single station the model reduces exactly to the paper's single-user
link — ``per_user_throughput_mbps(1) == WifiLink.throughput_mbps()`` — which
is what lets the fleet analyzer reproduce the single-user model verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config.network import NetworkConfig
from repro.exceptions import ModelDomainError
from repro.network.wifi import WifiLink

#: Strength ``a`` of the aggregate-efficiency decay ``1 / (1 + a ln N)``.
COLLISION_OVERHEAD = 0.08


@dataclass(frozen=True)
class ContentionModel:
    """Throughput degradation of one Wi-Fi channel shared by ``N`` stations.

    Attributes:
        network: the single-user network configuration describing the
            channel; its link is :class:`WifiLink`, at the MAC efficiency
            :data:`repro.network.wifi.MAC_EFFICIENCY`.
    """

    network: NetworkConfig

    def _check_stations(self, n_stations: int) -> None:
        if n_stations < 1:
            raise ModelDomainError(
                f"contention needs at least one station, got {n_stations}"
            )

    def channel_efficiency(self, n_stations: int) -> float:
        """Aggregate MAC efficiency with ``n_stations`` contenders (1 at N=1)."""
        self._check_stations(n_stations)
        return 1.0 / (1.0 + COLLISION_OVERHEAD * math.log(n_stations))

    def aggregate_throughput_mbps(self, n_stations: int) -> float:
        """Total channel throughput delivered across all stations."""
        self._check_stations(n_stations)
        link = WifiLink(config=self.network)
        return link.throughput_mbps() * self.channel_efficiency(n_stations)

    def per_user_throughput_mbps(self, n_stations: int) -> float:
        """Fair per-station throughput share; non-increasing in ``n_stations``."""
        self._check_stations(n_stations)
        return self.aggregate_throughput_mbps(n_stations) / n_stations

    def network_for(self, n_stations: int) -> NetworkConfig:
        """The per-user network configuration under ``n_stations`` contenders.

        With one station this returns a configuration whose throughput equals
        the single-user value, so downstream models see no difference.
        """
        self._check_stations(n_stations)
        if n_stations == 1:
            return self.network
        return self.network.with_throughput(self.per_user_throughput_mbps(n_stations))
