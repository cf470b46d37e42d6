"""Wi-Fi link model.

The paper's transmission model (Eq. 16) takes the available wireless
throughput ``r_w`` as an input.  :class:`WifiLink` provides two ways to get
that number:

* take it as configured (the default, matching the paper's methodology of
  measuring TCP throughput on the LinkSys router), or
* derive it, when the network configuration enables path loss, from a
  deterministic link budget at the edge distance (transmit power,
  log-distance path loss, noise, bandwidth) through Shannon capacity scaled
  by :data:`MAC_EFFICIENCY`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import units
from repro.config.network import NetworkConfig
from repro.exceptions import ModelDomainError
from repro.network.pathloss import LogDistancePathLoss

#: Thermal noise power spectral density at 290 K in dBm/Hz.
THERMAL_NOISE_DBM_PER_HZ: float = -174.0

#: Fraction of the PHY capacity delivered to the transport layer
#: (contention, preambles, ACKs).
MAC_EFFICIENCY: float = 0.65


def shannon_capacity_mbps(bandwidth_mhz: float, snr_db: float) -> float:
    """Shannon capacity (Mbps) scaled by :data:`MAC_EFFICIENCY`.

    Args:
        bandwidth_mhz: channel bandwidth in MHz.
        snr_db: signal-to-noise ratio in dB.

    Raises:
        ModelDomainError: for non-positive bandwidth.
    """
    if bandwidth_mhz <= 0.0:
        raise ModelDomainError(f"bandwidth must be > 0 MHz, got {bandwidth_mhz}")
    snr_linear = units.db_to_linear(snr_db)
    return MAC_EFFICIENCY * bandwidth_mhz * math.log2(1.0 + snr_linear)


@dataclass
class WifiLink:
    """One Wi-Fi link between the XR device and the edge tier.

    Attributes:
        config: the network configuration describing the link.
        path_loss: the log-distance model built from the config when it
            enables path loss, else None.
    """

    config: NetworkConfig

    def __post_init__(self) -> None:
        self.path_loss = (
            LogDistancePathLoss(
                exponent=self.config.path_loss_exponent,
                carrier_frequency_ghz=self.config.carrier_frequency_ghz,
            )
            if self.config.enable_path_loss
            else None
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

    def snr_db(self) -> float:
        """Link SNR (dB) at the configured edge distance."""
        if self.path_loss is None:
            raise ModelDomainError(
                "SNR requires path loss to be enabled on the network config"
            )
        received_dbm = self.path_loss.received_power_dbm(
            self.config.tx_power_dbm, self.config.edge_distance_m
        )
        return received_dbm - self.noise_power_dbm()

    def throughput_mbps(self) -> float:
        """Deliverable throughput ``r_w`` (Mbps).

        Returns the configured throughput when path loss is disabled (the
        paper's default), otherwise evaluates the link budget.
        """
        if not self.config.enable_path_loss:
            return self.config.throughput_mbps
        return shannon_capacity_mbps(self.config.bandwidth_mhz, self.snr_db())
