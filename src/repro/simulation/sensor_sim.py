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
from repro.queueing.simulation import simulate_single_server_queue


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
    service_rate_per_ms = workload.buffer_service_rate_hz / 1e3
    mean_service_ms = 1.0 / service_rate_per_ms

    # Every sensor's generations over the horizon, sensor by sensor and cycle
    # by cycle, and the instant each packet reaches the buffer.
    generated_ms: List[List[float]] = []
    arrivals_ms: List[float] = []
    for frequency, distance in zip(
        workload.sensor_frequencies_hz, workload.sensor_distances_m
    ):
        period_ms = 1e3 / frequency
        propagation = units.propagation_delay_ms(distance)
        generated: List[float] = []
        cycle = 1
        while cycle * period_ms <= workload.horizon_ms + 1e-9:
            generated.append(cycle * period_ms)
            arrivals_ms.append(cycle * period_ms + propagation)
            cycle += 1
        generated_ms.append(generated)

    # The buffer serves packets in arrival order, and packets that arrive
    # together in the order they were generated above (the sort is stable).
    # Each packet draws its service time when it arrives.
    order = sorted(range(len(arrivals_ms)), key=arrivals_ms.__getitem__)
    queue = simulate_single_server_queue(
        [arrivals_ms[index] for index in order],
        lambda _, generator: generator.exponential(mean_service_ms),
        rng=rng,
    )
    departed_ms = np.empty(len(order))
    departed_ms[order] = queue.departure_times_ms

    # AoI of cycle n is the departure time of the n-th packet minus the
    # instant the n-th update was requested.
    required_period = workload.required_update_period_ms
    required_frequency_hz = workload.required_update_frequency_hz
    timelines: List[AoITimeline] = []
    first = 0
    for frequency, generated in zip(workload.sensor_frequencies_hz, generated_ms):
        departures = departed_ms[first : first + len(generated)].tolist()
        first += len(generated)
        aois = [
            departure - cycle * required_period
            for cycle, departure in enumerate(departures)
        ]
        rois = [
            (1e3 / aoi if aoi > 0.0 else float("inf")) / required_frequency_hz
            for aoi in aois
        ]
        timelines.append(
            AoITimeline(
                sensor_name=f"sensor-{frequency:.0f}hz",
                generation_frequency_hz=frequency,
                times_ms=np.array(generated, dtype=float),
                aoi_ms=np.array(aois, dtype=float),
                roi=np.array(rois, dtype=float),
            )
        )

    mean_wait = float(np.mean(queue.sojourn_times_ms)) if len(order) else 0.0
    return AoIEmulation(
        timelines=timelines,
        required_update_period_ms=required_period,
        mean_buffer_wait_ms=mean_wait,
    )
