"""Wi-Fi link model.

The paper's transmission model (Eq. 16) takes the available wireless
throughput ``r_w`` as an input.  :class:`WifiLink` provides two ways to get
that number:

* take it as configured (the default, matching the paper's methodology of
  measuring TCP throughput on the LinkSys router), or
* derive it from a link budget (transmit power, path loss, noise, bandwidth)
  through Shannon capacity scaled by a MAC-efficiency factor — used by the
  extension experiments with path loss and fading enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import units
from repro.config.network import NetworkConfig
from repro.exceptions import ModelDomainError
from repro.network.fading import RayleighFading
from repro.network.pathloss import LogDistancePathLoss

#: Thermal noise power spectral density at 290 K in dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ: float = -174.0


def shannon_capacity_mbps(
    bandwidth_mhz: float, snr_db: float, mac_efficiency: float = 0.65
) -> float:
    """Shannon capacity (Mbps) scaled by a MAC efficiency factor.

    Args:
        bandwidth_mhz: channel bandwidth in MHz.
        snr_db: signal-to-noise ratio in dB.
        mac_efficiency: fraction of the PHY capacity delivered to the
            transport layer (contention, preambles, ACKs).

    Raises:
        ModelDomainError: for non-positive bandwidth or out-of-range efficiency.
    """
    if bandwidth_mhz <= 0.0:
        raise ModelDomainError(f"bandwidth must be > 0 MHz, got {bandwidth_mhz}")
    if not 0.0 < mac_efficiency <= 1.0:
        raise ModelDomainError(
            f"MAC efficiency must be in (0, 1], got {mac_efficiency}"
        )
    snr_linear = units.db_to_linear(snr_db)
    return mac_efficiency * bandwidth_mhz * math.log2(1.0 + snr_linear)


@dataclass
class WifiLink:
    """One Wi-Fi link between the XR device and the edge tier.

    Attributes:
        config: the network configuration describing the link.
        path_loss: optional path-loss model; built from the config when
            path loss is enabled and no explicit model is given.
        fading: optional small-scale fading sampler applied to the SNR.
        mac_efficiency: PHY-to-transport efficiency for the link-budget path.
    """

    config: NetworkConfig
    path_loss: Optional[LogDistancePathLoss] = None
    fading: Optional[RayleighFading] = None
    mac_efficiency: float = 0.65

    def __post_init__(self) -> None:
        if self.config.enable_path_loss and self.path_loss is None:
            self.path_loss = LogDistancePathLoss(
                exponent=self.config.path_loss_exponent,
                carrier_frequency_ghz=self.config.carrier_frequency_ghz,
                shadowing_sigma_db=self.config.shadowing_sigma_db,
            )

    # -- throughput ------------------------------------------------------------

    def noise_power_dbm(self) -> float:
        """Receiver noise floor for the configured bandwidth and noise figure."""
        bandwidth_hz = self.config.bandwidth_mhz * 1e6
        return (
            THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * math.log10(bandwidth_hz)
            + self.config.noise_figure_db
        )

    def snr_db(
        self, distance_m: Optional[float] = None, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Link SNR (dB) at ``distance_m`` (defaults to the edge distance)."""
        if self.path_loss is None:
            raise ModelDomainError(
                "SNR requires path loss to be enabled on the network config"
            )
        distance = self.config.edge_distance_m if distance_m is None else distance_m
        received_dbm = self.path_loss.received_power_dbm(
            self.config.tx_power_dbm, distance, rng=rng
        )
        snr = received_dbm - self.noise_power_dbm()
        if self.fading is not None and rng is not None:
            gain = float(self.fading.sample(rng, size=1)[0])
            snr += units.linear_to_db(max(gain, 1e-9))
        return snr

    def throughput_mbps(
        self, distance_m: Optional[float] = None, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Deliverable throughput ``r_w`` (Mbps).

        Returns the configured throughput when path loss is disabled (the
        paper's default), otherwise evaluates the link budget.
        """
        if not self.config.enable_path_loss:
            return self.config.throughput_mbps
        return shannon_capacity_mbps(
            self.config.bandwidth_mhz,
            self.snr_db(distance_m=distance_m, rng=rng),
            mac_efficiency=self.mac_efficiency,
        )
