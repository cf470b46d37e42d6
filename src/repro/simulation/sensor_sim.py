"""Event-driven AoI emulation (ground truth for Fig. 4(e)/(f)).

The emulation reproduces the scenario of Fig. 2: external sensors generate
information packets at their own deterministic frequencies, each packet
travels over the wireless medium (propagation delay) and queues in the XR
input buffer, which serves packets FIFO with exponential service times.  The
XR application meanwhile requests fresh information once every required
update period.  The emulated AoI of a sensor's ``n``-th update cycle is the
difference between the instant its ``n``-th packet leaves the buffer and the
instant the ``n``-th update was requested — the quantity the analytical model
of Section VI predicts with Eq. (23).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import units
from repro.config.workload import WorkloadConfig
from repro.core.aoi import AoITimeline
from repro.simulation.des import EventScheduler


@dataclass
class _PacketRecord:
    sensor_index: int
    cycle_index: int
    generated_ms: float
    arrived_ms: float = 0.0
    departed_ms: float = 0.0


@dataclass(frozen=True)
class AoIEmulation:
    """Outcome of one AoI emulation run.

    Attributes:
        timelines: one emulated AoI timeline per sensor (same structure as the
            analytical :class:`repro.core.aoi.AoITimeline`).
        required_update_period_ms: the XR application's requested period.
        mean_buffer_wait_ms: average measured time packets spent in the buffer.
    """

    timelines: List[AoITimeline]
    required_update_period_ms: float
    mean_buffer_wait_ms: float


def emulate_aoi(
    workload: Optional[WorkloadConfig] = None, seed: int = 7
) -> AoIEmulation:
    """Run the event-driven AoI emulation for a workload (Fig. 4(e)/(f) GT).

    Args:
        workload: the AoI emulation workload; defaults to the paper's scenario
            (sensors at 200/100/66.67 Hz, one required update every 5 ms,
            90 ms horizon).
        seed: RNG seed for the buffer's exponential service times.
    """
    if workload is None:
        workload = WorkloadConfig.paper_default()
    rng = np.random.default_rng(seed)
    scheduler = EventScheduler()

    service_rate_per_ms = workload.buffer_service_rate_hz / 1e3
    horizon = workload.horizon_ms
    packets: List[_PacketRecord] = []
    server_free_at = [0.0]
    buffer_waits: List[float] = []

    def make_arrival(packet: _PacketRecord):
        def on_arrival(sched: EventScheduler) -> None:
            packet.arrived_ms = sched.now_ms
            start = max(sched.now_ms, server_free_at[0])
            service = float(rng.exponential(1.0 / service_rate_per_ms))
            departure = start + service
            server_free_at[0] = departure
            buffer_waits.append(departure - packet.arrived_ms)

            def on_departure(_: EventScheduler, record=packet, when=departure) -> None:
                record.departed_ms = when

            sched.schedule_at(departure, on_departure)

        return on_arrival

    # Schedule every sensor's generations over the horizon (plus propagation).
    for sensor_index, (frequency, distance) in enumerate(
        zip(workload.sensor_frequencies_hz, workload.sensor_distances_m)
    ):
        period_ms = 1e3 / frequency
        propagation = units.propagation_delay_ms(distance)
        cycle = 1
        generated = period_ms
        while generated <= horizon + 1e-9:
            packet = _PacketRecord(
                sensor_index=sensor_index, cycle_index=cycle, generated_ms=generated
            )
            packets.append(packet)
            scheduler.schedule_at(generated + propagation, make_arrival(packet))
            cycle += 1
            generated = cycle * period_ms

    scheduler.run()

    # Build per-sensor timelines: AoI of cycle n is the departure time of the
    # n-th packet minus the instant the n-th update was requested.
    required_period = workload.required_update_period_ms
    required_frequency_hz = workload.required_update_frequency_hz
    timelines: List[AoITimeline] = []
    for sensor_index, frequency in enumerate(workload.sensor_frequencies_hz):
        own_packets = sorted(
            (p for p in packets if p.sensor_index == sensor_index),
            key=lambda p: p.cycle_index,
        )
        times: List[float] = []
        aois: List[float] = []
        rois: List[float] = []
        for packet in own_packets:
            if packet.departed_ms <= 0.0:
                continue
            request_time = (packet.cycle_index - 1) * required_period
            aoi = packet.departed_ms - request_time
            times.append(packet.generated_ms)
            aois.append(aoi)
            processed_hz = 1e3 / aoi if aoi > 0.0 else float("inf")
            rois.append(processed_hz / required_frequency_hz)
        timelines.append(
            AoITimeline(
                sensor_name=f"sensor-{frequency:.0f}hz",
                generation_frequency_hz=frequency,
                times_ms=np.array(times, dtype=float),
                aoi_ms=np.array(aois, dtype=float),
                roi=np.array(rois, dtype=float),
            )
        )

    mean_wait = float(np.mean(buffer_waits)) if buffer_waits else 0.0
    return AoIEmulation(
        timelines=timelines,
        required_update_period_ms=required_period,
        mean_buffer_wait_ms=mean_wait,
    )
