"""XR input buffer model (Eq. 7).

Three data streams are queued in the input buffer: the captured frame, the
volumetric data and the external sensor information.  The paper models the
buffer as a stable M/M/1 system, so each stream's buffering time is the M/M/1
mean sojourn time ``1 / (mu - lambda)`` evaluated with that stream's arrival
rate; the per-frame buffering delay is the sum of the three (Eq. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.exceptions import UnstableQueueError
from repro.queueing.mm1 import MM1Queue


@dataclass(frozen=True)
class BufferDelays:
    """Per-stream buffering delays of one frame (terms of Eq. 7).

    Attributes:
        frame_ms: buffering delay of the captured frame (``t_buff_f``).
        volumetric_ms: buffering delay of the volumetric data (``t_buff_vol``).
        external_ms: buffering delay of the external information (``t_buff_ext``).
    """

    frame_ms: float
    volumetric_ms: float
    external_ms: float

    @property
    def total_ms(self) -> float:
        """Total per-frame buffering delay ``t_buff`` (Eq. 7)."""
        return self.frame_ms + self.volumetric_ms + self.external_ms


class InputBuffer:
    """The XR device's input buffer.

    Args:
        service_rate_hz: buffer service rate ``mu`` in items per second.
    """

    def __init__(self, service_rate_hz: float) -> None:
        if service_rate_hz <= 0.0:
            raise UnstableQueueError(
                f"buffer service rate must be > 0 Hz, got {service_rate_hz}"
            )
        self.service_rate_hz = service_rate_hz

    @property
    def service_rate_per_ms(self) -> float:
        """Service rate in items per millisecond."""
        return self.service_rate_hz / 1e3

    def stream_delay_ms(self, arrival_rate_hz: float) -> float:
        """M/M/1 mean sojourn time for a stream with the given arrival rate."""
        queue = MM1Queue.from_rates_hz(arrival_rate_hz, self.service_rate_hz)
        return queue.mean_time_in_system_ms

    def analytical_delays(
        self, app: ApplicationConfig, network: NetworkConfig
    ) -> BufferDelays:
        """Closed-form per-stream buffering delays (Eq. 7).

        The frame and volumetric streams arrive once per captured frame; the
        external stream arrives at the aggregate sensor rate.
        """
        frame_rate_hz = app.frame_rate_fps
        sensor_rate_hz = network.total_sensor_arrival_rate_hz
        frame_delay = self.stream_delay_ms(frame_rate_hz)
        volumetric_delay = self.stream_delay_ms(frame_rate_hz)
        if sensor_rate_hz > 0.0:
            external_delay = self.stream_delay_ms(sensor_rate_hz)
        else:
            external_delay = 0.0
        return BufferDelays(
            frame_ms=frame_delay,
            volumetric_ms=volumetric_delay,
            external_ms=external_delay,
        )
