"""Wireless network, handoff and external-sensor topology configuration.

The paper's system model (Fig. 1/Fig. 2) connects the XR device to

* one or more edge servers over Wi-Fi (transmission latency, Eq. 16),
* M external sensors/devices that push control and environmental
  information (Eqs. 5-6 and the AoI model of Section VI),
* neighbouring coverage zones it may hand off to while moving (Eq. 17).

The configuration below captures that topology.  Path loss is disabled by
default — matching the paper's baseline assumption — but can be enabled for
the extension experiments; the link budget then stays deterministic (no
shadowing or fading).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro import units
from repro.config.validation import (
    ensure_at_least,
    ensure_finite,
    ensure_fraction,
    ensure_in_range,
    ensure_positive,
)
from repro.exceptions import ConfigurationError

#: Physical bounds on the network configurations.  Like the application
#: bounds they sit orders of magnitude outside the paper's setting (a
#: 200 Mbps link, an edge and sensors tens of metres away, sensors at tens
#: to hundreds of Hz, a 150 ms handoff, radios near 1 W) and outside every
#: value the stack derives, such as a 10k-user fleet's ~0.01 Mbps contended
#: share.  Every numeric field must also be finite.  Without the bounds a
#: 5e-324 Mbps link, propagation speed or sensor rate, or an infinite
#: distance, handoff latency or radio power, makes a latency or energy total
#: infinite; the upper bounds also keep finite values far from overflow.
MIN_THROUGHPUT_MBPS = 1e-6
MIN_PROPAGATION_SPEED_M_PER_S = 1.0
MIN_SENSOR_RATE_HZ = 1e-3
MAX_DISTANCE_M = 1e7
MAX_HANDOFF_LATENCY_MS = 1e6
MAX_POWER_W = 1e3

#: Link-budget bounds (the path-loss extension).  A dB value goes through
#: ``10 ** (x / 10)``, and a carrier or bandwidth near zero sends the
#: free-space loss or the noise floor towards -inf dB, so the SNR overflows.
#: Within them the budget may still deliver less than ``MIN_THROUGHPUT_MBPS``
#: (a long link, a steep exponent); :class:`NetworkConfig` rejects that too.
MAX_ABS_DB = 100.0
MIN_CARRIER_FREQUENCY_GHZ = 1e-3
MIN_BANDWIDTH_MHZ = 1e-3


@dataclass(frozen=True)
class SensorConfig:
    """One external sensor or device feeding the XR input buffer.

    Attributes:
        name: identifier (e.g. ``"roadside-unit-1"``).
        generation_frequency_hz: information generation frequency ``f_t^m``.
        distance_m: distance to the XR device ``d_m``.
        packet_size_kb: control-information packet size; the paper treats the
            packets as negligibly small for throughput purposes but the
            simulator still moves concrete bytes.
        arrival_rate_hz: arrival rate ``lambda_m`` of the sensor's packets at
            the input buffer.  ``None`` means "equal to the generation
            frequency" (every generated packet arrives).
    """

    name: str
    generation_frequency_hz: float
    distance_m: float = 10.0
    packet_size_kb: float = 1.0
    arrival_rate_hz: Optional[float] = None

    def __post_init__(self) -> None:
        ensure_at_least("generation_frequency_hz", self.generation_frequency_hz, MIN_SENSOR_RATE_HZ)
        ensure_in_range("distance_m", self.distance_m, 0.0, MAX_DISTANCE_M)
        ensure_positive("packet_size_kb", self.packet_size_kb)
        ensure_finite("packet_size_kb", self.packet_size_kb)
        if self.arrival_rate_hz is not None:
            ensure_at_least("arrival_rate_hz", self.arrival_rate_hz, MIN_SENSOR_RATE_HZ)

    @property
    def effective_arrival_rate_hz(self) -> float:
        """Arrival rate at the buffer, defaulting to the generation rate."""
        if self.arrival_rate_hz is not None:
            return self.arrival_rate_hz
        return self.generation_frequency_hz

    @property
    def generation_period_ms(self) -> float:
        """Information generation period ``1/f_t^m`` in ms."""
        return units.hz_to_period_ms(self.generation_frequency_hz)


@dataclass(frozen=True)
class HandoffConfig:
    """Mobility-driven handoff parameters (Eq. 17).

    The average per-frame handoff latency is ``l_HO * P(HO)``; either provide
    the probability directly (``handoff_probability``) or let the random-walk
    mobility model of :mod:`repro.network.mobility` derive it from the cell
    geometry and device speed.

    Attributes:
        enabled: whether handoffs contribute to the end-to-end metrics.
        handoff_latency_ms: latency of one (vertical) handoff ``l_HO``.
        handoff_probability: per-frame handoff probability ``P(HO)``;
            ``None`` defers to the mobility model.
        cell_radius_m: coverage-zone radius used by the random-walk model.
        device_speed_m_per_s: XR device speed used by the random-walk model.
        power_w: radio power draw during a handoff.
    """

    enabled: bool = False
    handoff_latency_ms: float = 150.0
    handoff_probability: Optional[float] = None
    cell_radius_m: float = 50.0
    device_speed_m_per_s: float = 1.4
    power_w: float = 1.2

    def __post_init__(self) -> None:
        ensure_in_range("handoff_latency_ms", self.handoff_latency_ms, 0.0, MAX_HANDOFF_LATENCY_MS)
        if self.handoff_probability is not None:
            ensure_fraction("handoff_probability", self.handoff_probability)
        ensure_positive("cell_radius_m", self.cell_radius_m)
        ensure_in_range("cell_radius_m", self.cell_radius_m, 0.0, MAX_DISTANCE_M)
        ensure_at_least("device_speed_m_per_s", self.device_speed_m_per_s, 0.0)
        ensure_in_range("power_w", self.power_w, 0.0, MAX_POWER_W)


@dataclass(frozen=True)
class NetworkConfig:
    """Edge-assisted wireless network topology around one XR device.

    Attributes:
        throughput_mbps: available wireless throughput ``r_w`` between the XR
            device and the edge tier.
        edge_distance_m: distance between the XR device and the (closest)
            edge server ``d_epsilon``.
        propagation_speed_m_per_s: signal propagation speed ``c``.
        sensors: external sensors/devices connected to the XR device.
        handoff: mobility/handoff configuration.
        enable_path_loss: derive ``r_w`` from a deterministic link budget
            at ``edge_distance_m`` (log-distance path loss, no shadowing)
            instead of taking ``throughput_mbps`` as given; off by default
            to match the paper.
        path_loss_exponent: log-distance path-loss exponent when enabled.
        carrier_frequency_ghz: Wi-Fi carrier (2.4 or 5 GHz for the paper's
            LinkSys dual-band router).
        bandwidth_mhz: channel bandwidth used when deriving throughput from
            the link budget instead of taking ``throughput_mbps`` as given.
        tx_power_dbm: transmit power for the link-budget path.
        noise_figure_db: receiver noise figure for the link-budget path.
        radio_tx_power_w: device radio power draw while transmitting,
            used by the energy model for transmission segments.
        radio_idle_power_w: device radio power draw while idle/receiving.
    """

    throughput_mbps: float = 200.0
    edge_distance_m: float = 30.0
    propagation_speed_m_per_s: float = units.SPEED_OF_LIGHT_M_PER_S
    sensors: Tuple[SensorConfig, ...] = field(
        default_factory=lambda: (
            SensorConfig(name="sensor-1", generation_frequency_hz=200.0, distance_m=10.0),
            SensorConfig(name="sensor-2", generation_frequency_hz=100.0, distance_m=15.0),
            SensorConfig(name="sensor-3", generation_frequency_hz=66.67, distance_m=20.0),
        )
    )
    handoff: HandoffConfig = field(default_factory=HandoffConfig)
    enable_path_loss: bool = False
    path_loss_exponent: float = 3.0
    carrier_frequency_ghz: float = 5.0
    bandwidth_mhz: float = 80.0
    tx_power_dbm: float = 20.0
    noise_figure_db: float = 7.0
    radio_tx_power_w: float = 1.1
    radio_idle_power_w: float = 0.25

    def __post_init__(self) -> None:
        ensure_at_least("throughput_mbps", self.throughput_mbps, MIN_THROUGHPUT_MBPS)
        ensure_in_range("edge_distance_m", self.edge_distance_m, 0.0, MAX_DISTANCE_M)
        ensure_at_least(
            "propagation_speed_m_per_s",
            self.propagation_speed_m_per_s,
            MIN_PROPAGATION_SPEED_M_PER_S,
        )
        ensure_positive("path_loss_exponent", self.path_loss_exponent)
        ensure_finite("path_loss_exponent", self.path_loss_exponent)
        ensure_at_least(
            "carrier_frequency_ghz", self.carrier_frequency_ghz, MIN_CARRIER_FREQUENCY_GHZ
        )
        ensure_at_least("bandwidth_mhz", self.bandwidth_mhz, MIN_BANDWIDTH_MHZ)
        ensure_in_range("tx_power_dbm", self.tx_power_dbm, -MAX_ABS_DB, MAX_ABS_DB)
        ensure_in_range("noise_figure_db", self.noise_figure_db, 0.0, MAX_ABS_DB)
        ensure_in_range("radio_tx_power_w", self.radio_tx_power_w, 0.0, MAX_POWER_W)
        ensure_in_range("radio_idle_power_w", self.radio_idle_power_w, 0.0, MAX_POWER_W)
        names = [sensor.name for sensor in self.sensors]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"sensor names must be unique, got {names!r}")
        if self.enable_path_loss:
            # Imported here: repro.network.wifi imports this module.
            from repro.network.wifi import WifiLink

            # The log-distance model is undefined at zero distance.
            ensure_positive("edge_distance_m", self.edge_distance_m)
            budget_mbps = WifiLink(config=self).throughput_mbps()
            if not budget_mbps >= MIN_THROUGHPUT_MBPS:
                raise ConfigurationError(
                    "the link budget (tx_power_dbm, path_loss_exponent, "
                    "carrier_frequency_ghz, bandwidth_mhz, noise_figure_db, "
                    f"edge_distance_m) delivers {budget_mbps!r} Mbps, below "
                    f"{MIN_THROUGHPUT_MBPS} Mbps"
                )

    # -- derived quantities -------------------------------------------------

    @property
    def total_sensor_arrival_rate_hz(self) -> float:
        """Aggregate packet arrival rate into the input buffer from sensors."""
        return sum(sensor.effective_arrival_rate_hz for sensor in self.sensors)

    def propagation_delay_ms(self, distance_m: float) -> float:
        """Propagation delay for an arbitrary distance with this config's speed."""
        return units.propagation_delay_ms(distance_m, self.propagation_speed_m_per_s)

    def with_throughput(self, throughput_mbps: float) -> "NetworkConfig":
        """Return a copy with a different wireless throughput."""
        return replace(self, throughput_mbps=throughput_mbps)
