"""The AoI emulation against a test-local copy of its former event loop.

``emulate_aoi`` runs the input buffer through the single-server queue
simulator.  It used to schedule every packet's arrival on a heap of
``(time, sequence)`` events, drawing each packet's service time when its
arrival ran and recording its departure from a second event.  The copy below
keeps that loop with ``heapq``.  Drawn workloads cover mixed rates, equal
rates and distances (packets that reach the buffer at the same instant, so
the tie order matters) and seeds, and every AoI, RoI and the mean wait must
be equal to the bit.
"""

import heapq
import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.config.workload import WorkloadConfig
from repro.simulation.sensor_sim import emulate_aoi


def heap_emulation(workload: WorkloadConfig, seed: int):
    """(AoI per sensor, RoI per sensor, mean buffer wait) from the event loop."""
    rng = np.random.default_rng(seed)
    service_rate_per_ms = workload.buffer_service_rate_hz / 1e3
    sequence = itertools.count()
    events = []
    packets = []
    server_free_at = 0.0
    buffer_waits = []
    for sensor_index, (frequency, distance) in enumerate(
        zip(workload.sensor_frequencies_hz, workload.sensor_distances_m)
    ):
        period_ms = 1e3 / frequency
        propagation = units.propagation_delay_ms(distance)
        cycle = 1
        generated = period_ms
        while generated <= workload.horizon_ms + 1e-9:
            packet = {"sensor": sensor_index, "cycle": cycle, "generated": generated}
            packets.append(packet)
            heapq.heappush(
                events, (float(generated + propagation), next(sequence), "arrival", packet)
            )
            cycle += 1
            generated = cycle * period_ms
    while events:
        now, _, kind, packet = heapq.heappop(events)
        if kind == "departure":
            packet["departed"] = now
            continue
        start = max(now, server_free_at)
        departure = start + float(rng.exponential(1.0 / service_rate_per_ms))
        server_free_at = departure
        buffer_waits.append(departure - now)
        heapq.heappush(events, (departure, next(sequence), "departure", packet))

    aois, rois = [], []
    for sensor_index in range(len(workload.sensor_frequencies_hz)):
        own = sorted(
            (p for p in packets if p["sensor"] == sensor_index), key=lambda p: p["cycle"]
        )
        sensor_aois, sensor_rois = [], []
        for packet in own:
            if packet["departed"] <= 0.0:
                continue
            aoi = packet["departed"] - (packet["cycle"] - 1) * workload.required_update_period_ms
            sensor_aois.append(aoi)
            processed_hz = 1e3 / aoi if aoi > 0.0 else float("inf")
            sensor_rois.append(processed_hz / workload.required_update_frequency_hz)
        aois.append(sensor_aois)
        rois.append(sensor_rois)
    mean_wait = float(np.mean(buffer_waits)) if buffer_waits else 0.0
    return aois, rois, mean_wait


@st.composite
def workloads(draw):
    n_sensors = draw(st.integers(min_value=1, max_value=4))
    # Rates from a short list repeat and divide one another, so packets of
    # different sensors often reach the buffer together; free floats do not.
    rate = st.one_of(
        st.sampled_from((50.0, 66.67, 100.0, 200.0, 250.0)),
        st.floats(min_value=20.0, max_value=400.0),
    )
    distance = st.one_of(
        st.sampled_from((0.0, 10.0, 15.0)), st.floats(min_value=0.0, max_value=3e5)
    )
    return WorkloadConfig(
        sensor_frequencies_hz=tuple(sorted(draw(rate) for _ in range(n_sensors))),
        sensor_distances_m=tuple(draw(distance) for _ in range(n_sensors)),
        required_update_period_ms=draw(st.floats(min_value=1.0, max_value=20.0)),
        horizon_ms=draw(st.floats(min_value=1.0, max_value=120.0)),
        buffer_service_rate_hz=draw(st.floats(min_value=100.0, max_value=5000.0)),
    )


#: The workloads of Fig. 4(e) and Fig. 4(f), at the figures' seed.
FIGURE_4E = WorkloadConfig.paper_default()
FIGURE_4F = WorkloadConfig(
    sensor_frequencies_hz=(100.0,), sensor_distances_m=(15.0,), horizon_ms=40.0
)


class TestEmulationMatchesEventLoop:
    @settings(max_examples=200, deadline=None)
    @given(workload=workloads(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(workload=FIGURE_4E, seed=7)
    @example(workload=FIGURE_4F, seed=7)
    def test_every_value_is_equal(self, workload, seed):
        emulation = emulate_aoi(workload, seed=seed)
        aois, rois, mean_wait = heap_emulation(workload, seed)
        assert [timeline.aoi_ms.tolist() for timeline in emulation.timelines] == aois
        assert [timeline.roi.tolist() for timeline in emulation.timelines] == rois
        assert emulation.mean_buffer_wait_ms == mean_wait

    def test_coinciding_arrivals_are_served_in_generation_order(self):
        # Two sensors at one rate and distance reach the buffer together in
        # every cycle; the first sensor's packet is served first.
        workload = WorkloadConfig(
            sensor_frequencies_hz=(100.0, 100.0),
            sensor_distances_m=(10.0, 10.0),
            horizon_ms=50.0,
            buffer_service_rate_hz=500.0,
        )
        emulation = emulate_aoi(workload, seed=11)
        first, second = emulation.timelines
        assert np.all(first.aoi_ms < second.aoi_ms)
        aois, _, mean_wait = heap_emulation(workload, 11)
        assert [first.aoi_ms.tolist(), second.aoi_ms.tolist()] == aois
        assert emulation.mean_buffer_wait_ms == mean_wait
