"""Age-of-Information (AoI) and Relevance-of-Information (RoI) models (Section VI).

The XR device requests fresh external information once every
``required_update_period_ms`` (``1 / f_req``).  A sensor generating at
frequency ``f_t`` produces the information that serves the ``n``-th request
at ``T^mn = n / f_t``; the information additionally experiences the wireless
propagation delay ``d_m / c`` and the average buffering time
``T̄ = 1 / (mu - lambda)`` of the M/M/1 input buffer (Eq. 22).  The AoI of
the ``n``-th update is therefore (Eq. 23)::

    t_mn = T^mn + (d_m / c + T̄) - T_Req^n

with ``T_Req^n = (n - 1) / f_req`` (the first request is issued at t = 0).
A sensor slower than the application's requirement accumulates AoI linearly
with the update index — the staircase of Fig. 4(f) — while a sensor at least
as fast as the requirement keeps a constant AoI (Fig. 4(e)).

The average AoI over the ``N`` updates of frame ``q`` is Eq. (24); its
reciprocal is the effectively processed information frequency (Eq. 25) and
the ratio of that frequency to the required frequency is the RoI (Eq. 26).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.config.network import NetworkConfig, SensorConfig
from repro.config.workload import WorkloadConfig
from repro.core.numeric import ArrayLike, any_true, where
from repro.exceptions import ModelDomainError
from repro.queueing.mm1 import MM1Queue

#: Values per chunk of the Eq. (24) sum over updates (8 MB of float64), so a
#: sweep over many conditions at the largest update count stays bounded.
_AOI_CHUNK_ELEMENTS = 2**20


def update_age_ms(
    update_index: ArrayLike,
    generation_period_ms: float,
    required_period_ms: ArrayLike,
    delivery_overhead_ms: float,
) -> ArrayLike:
    """AoI of the ``n``-th update cycle (Eq. 23), on floats or aligned arrays.

    Sensors generating at most as fast as the application requires
    (``1/f_t >= 1/f_req``) follow Eq. (23) verbatim: the ``n``-th request is
    served by the ``n``-th generated sample, so AoI accumulates by
    ``1/f_t - 1/f_req`` per cycle.  A sensor generating *faster* than
    required always has a sample at most one generation period old, so its
    AoI is the age of the freshest sample at the request instant plus the
    delivery overhead (bounded and never negative) — Eq. (23) applied
    literally would keep decreasing without bound in that regime.
    """
    request_time = (update_index - 1) * required_period_ms
    return where(
        generation_period_ms >= required_period_ms,
        update_index * generation_period_ms + delivery_overhead_ms - request_time,
        request_time % generation_period_ms + delivery_overhead_ms,
    )


def mean_update_age_ms(
    updates: int,
    generation_period_ms: float,
    required_period_ms: ArrayLike,
    delivery_overhead_ms: float,
) -> ArrayLike:
    """Average AoI ``A^mq`` over updates ``1..N`` (Eq. 24), summed in update order.

    The update index runs down a leading axis, a chunk of rows at a time so
    a chunk holds at most ``_AOI_CHUNK_ELEMENTS`` values; the running sum is
    carried into each chunk's first row.  ``cumsum`` adds in update order, as
    Eq. (24)'s sum runs, so a float and an array give the same bits (a
    pairwise ``np.sum`` or ``np.mean`` would change the last bit).
    """
    # getattr with a default costs less than np.size/np.ndim and covers a float.
    rows = max(1, _AOI_CHUNK_ELEMENTS // max(getattr(required_period_ms, "size", 1), 1))
    index_shape = (-1,) + (1,) * getattr(required_period_ms, "ndim", 0)
    total = None
    for start in range(1, updates + 1, rows):
        index = np.arange(start, min(start + rows, updates + 1), dtype=float)
        ages = update_age_ms(
            index.reshape(index_shape),
            generation_period_ms,
            required_period_ms,
            delivery_overhead_ms,
        )
        if total is not None:
            ages[0] += total
        total = ages.cumsum(axis=0)[-1]
    return total / updates


def processed_frequency_hz(aoi_ms: ArrayLike) -> ArrayLike:
    """Effectively processed information frequency ``1 / A`` in Hz (Eq. 25).

    A zero AoI reads as an infinite frequency; a float never divides by it.
    """
    if isinstance(aoi_ms, np.ndarray):
        return np.where(aoi_ms > 0.0, 1e3 / aoi_ms, np.inf)
    return 1e3 / aoi_ms if aoi_ms > 0.0 else np.inf


def frame_aoi(
    sensors: Sequence[SensorConfig],
    propagation_speed_m_per_s: float,
    buffer_time_ms: float,
    updates: int,
    frame_latency_ms: ArrayLike,
) -> Tuple[ArrayLike, List[Tuple[str, ArrayLike, ArrayLike, ArrayLike]]]:
    """Eqs. (24)-(26) for every sensor of one frame, at float or array latencies.

    The required update period is ``L_tot / N``, so ``f_req = N / L_tot``.

    Returns:
        ``(required_frequency_hz, rows)``, where ``rows`` holds one
        ``(name, average AoI, processed frequency, RoI)`` tuple per sensor,
        in sensor order.
    """
    required_period = frame_latency_ms / updates
    required_frequency = 1e3 / required_period
    rows = []
    for sensor in sensors:
        overhead = (
            units.propagation_delay_ms(sensor.distance_m, propagation_speed_m_per_s)
            + buffer_time_ms
        )
        mean_aoi = mean_update_age_ms(
            updates, sensor.generation_period_ms, required_period, overhead
        )
        processed = processed_frequency_hz(mean_aoi)
        rows.append((sensor.name, mean_aoi, processed, processed / required_frequency))
    return required_frequency, rows


@dataclass(frozen=True)
class AoITimeline:
    """AoI evolution of one sensor over an emulation horizon (Fig. 4(e)/(f)).

    Attributes:
        sensor_name: the sensor the timeline belongs to.
        generation_frequency_hz: the sensor's information generation frequency.
        times_ms: generation instants ``T^mn`` of the samples serving each
            update cycle (the x-axis of Fig. 4(e)).
        aoi_ms: AoI of each update cycle (Eq. 23).
        roi: RoI of each update cycle (Eq. 26 evaluated per cycle).
    """

    sensor_name: str
    generation_frequency_hz: float
    times_ms: np.ndarray
    aoi_ms: np.ndarray
    roi: np.ndarray

    @property
    def n_updates(self) -> int:
        """Number of update cycles in the timeline."""
        return int(len(self.times_ms))

    @property
    def final_aoi_ms(self) -> float:
        """AoI at the end of the horizon (0.0 for an empty timeline)."""
        return float(self.aoi_ms[-1]) if self.n_updates else 0.0

    @property
    def is_fresh(self) -> bool:
        """True when every update satisfies RoI >= 1 (information stays fresh)."""
        return bool(np.all(self.roi >= 1.0)) if self.n_updates else True


@dataclass(frozen=True)
class AoIResult:
    """Per-sensor AoI/RoI analysis for one frame (Eqs. 24-26).

    Attributes:
        average_aoi_ms: average AoI ``A^mq`` per sensor.
        roi: RoI per sensor.
        processed_frequency_hz: effective processed information frequency per
            sensor (Eq. 25).
        required_frequency_hz: the application's required frequency ``f_req``.
        buffer_time_ms: the M/M/1 average buffering time ``T̄`` used.
    """

    average_aoi_ms: Dict[str, float]
    roi: Dict[str, float]
    processed_frequency_hz: Dict[str, float]
    required_frequency_hz: float
    buffer_time_ms: float

    def fresh_sensors(self) -> List[str]:
        """Sensors whose information can be considered fresh (RoI >= 1)."""
        return sorted(name for name, value in self.roi.items() if value >= 1.0)

    def __str__(self) -> str:
        lines = [
            f"required frequency: {self.required_frequency_hz:.1f} Hz, "
            f"buffer time: {self.buffer_time_ms:.3f} ms"
        ]
        for name in sorted(self.average_aoi_ms):
            lines.append(
                f"  {name}: AoI={self.average_aoi_ms[name]:.2f} ms, "
                f"RoI={self.roi[name]:.3f}, "
                f"processed={self.processed_frequency_hz[name]:.1f} Hz"
            )
        return "\n".join(lines)


class AoIModel:
    """Analytical AoI/RoI model for the external sensors of an XR application."""

    def __init__(self, buffer_service_rate_hz: float) -> None:
        if buffer_service_rate_hz <= 0.0:
            raise ModelDomainError(
                f"buffer service rate must be > 0 Hz, got {buffer_service_rate_hz}"
            )
        self.buffer_service_rate_hz = buffer_service_rate_hz

    # -- Eq. (22) -------------------------------------------------------------------

    def average_buffer_time_ms(self, total_arrival_rate_hz: float) -> float:
        """Average time an information packet spends in the buffer, ``T̄``."""
        if total_arrival_rate_hz <= 0.0:
            return 0.0
        queue = MM1Queue.from_rates_hz(total_arrival_rate_hz, self.buffer_service_rate_hz)
        return queue.mean_time_in_system_ms

    # -- Eq. (23) -------------------------------------------------------------------

    def update_aoi_ms(
        self,
        sensor: SensorConfig,
        update_index: ArrayLike,
        required_update_period_ms: float,
        buffer_time_ms: float,
        propagation_speed_m_per_s: float = units.SPEED_OF_LIGHT_M_PER_S,
    ) -> ArrayLike:
        """AoI of the ``n``-th update cycle for one sensor (Eq. 23).

        ``update_index`` may be an array of indices; see :func:`update_age_ms`.
        """
        if any_true(update_index <= 0):
            raise ModelDomainError(f"update index must be >= 1, got {update_index}")
        if required_update_period_ms <= 0.0:
            raise ModelDomainError(
                f"required update period must be > 0 ms, got {required_update_period_ms}"
            )
        propagation = units.propagation_delay_ms(
            sensor.distance_m, propagation_speed_m_per_s
        )
        return update_age_ms(
            update_index,
            sensor.generation_period_ms,
            required_update_period_ms,
            propagation + buffer_time_ms,
        )

    # -- timelines (Fig. 4(e)/(f)) -----------------------------------------------------

    def timeline(
        self,
        sensor: SensorConfig,
        required_update_period_ms: float,
        horizon_ms: float,
        total_arrival_rate_hz: Optional[float] = None,
        propagation_speed_m_per_s: float = units.SPEED_OF_LIGHT_M_PER_S,
    ) -> AoITimeline:
        """AoI/RoI evolution of one sensor over an emulation horizon."""
        if horizon_ms <= 0.0:
            raise ModelDomainError(f"horizon must be > 0 ms, got {horizon_ms}")
        arrival_rate = (
            total_arrival_rate_hz
            if total_arrival_rate_hz is not None
            else sensor.effective_arrival_rate_hz
        )
        buffer_time = self.average_buffer_time_ms(arrival_rate)
        required_frequency_hz = 1e3 / required_update_period_ms

        n_updates = int(np.floor(horizon_ms / sensor.generation_period_ms))
        index = np.arange(1, n_updates + 1)
        aois = self.update_aoi_ms(
            sensor, index, required_update_period_ms, buffer_time, propagation_speed_m_per_s
        )
        return AoITimeline(
            sensor_name=sensor.name,
            generation_frequency_hz=sensor.generation_frequency_hz,
            times_ms=index * sensor.generation_period_ms,
            aoi_ms=aois,
            roi=processed_frequency_hz(aois) / required_frequency_hz,
        )

    def timelines_for_workload(self, workload: WorkloadConfig) -> List[AoITimeline]:
        """Timelines for every sensor of an AoI emulation workload (Fig. 4(e))."""
        model = AoIModel(workload.buffer_service_rate_hz)
        sensors = [
            SensorConfig(
                name=f"sensor-{frequency:.0f}hz",
                generation_frequency_hz=frequency,
                distance_m=distance,
            )
            for frequency, distance in zip(
                workload.sensor_frequencies_hz, workload.sensor_distances_m
            )
        ]
        total_rate = sum(sensor.effective_arrival_rate_hz for sensor in sensors)
        return [
            model.timeline(
                sensor,
                workload.required_update_period_ms,
                workload.horizon_ms,
                total_arrival_rate_hz=total_rate,
            )
            for sensor in sensors
        ]

    # -- Eqs. (24)-(26) -----------------------------------------------------------------

    def analyze_frame(
        self,
        network: NetworkConfig,
        updates_per_frame: int,
        frame_latency_ms: float,
    ) -> AoIResult:
        """Per-sensor average AoI and RoI for one frame.

        Args:
            network: network configuration holding the sensor population.
            updates_per_frame: number of information updates ``N`` the
                application requires during the frame.
            frame_latency_ms: total processing latency of the frame
                (``L_tot``), which sets the required update period
                ``L_tot / N`` and hence ``f_req = N / L_tot``.
        """
        if updates_per_frame <= 0:
            raise ModelDomainError(
                f"updates per frame must be >= 1, got {updates_per_frame}"
            )
        if frame_latency_ms <= 0.0:
            raise ModelDomainError(
                f"frame latency must be > 0 ms, got {frame_latency_ms}"
            )
        buffer_time = self.average_buffer_time_ms(network.total_sensor_arrival_rate_hz)
        required_frequency_hz, rows = frame_aoi(
            network.sensors,
            network.propagation_speed_m_per_s,
            buffer_time,
            updates_per_frame,
            frame_latency_ms,
        )
        return AoIResult(
            average_aoi_ms={name: float(aoi) for name, aoi, _, _ in rows},
            roi={name: float(roi) for name, _, _, roi in rows},
            processed_frequency_hz={name: float(hz) for name, _, hz, _ in rows},
            required_frequency_hz=required_frequency_hz,
            buffer_time_ms=buffer_time,
        )
