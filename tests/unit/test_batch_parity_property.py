"""Property-based parity tests: scalar ``analyze()`` vs batch ``evaluate_*``.

Hypothesis draws random devices, execution modes, frame sizes, clock
frequencies and encoder bitrates inside the regression domain and asserts
the batch engine agrees with the scalar path to 1e-9 relative error — on
the end-to-end totals, every segment, and the AoI quantities.  Compiled
candidate sets (:class:`ConditionedPoints`) must equal ``evaluate_points``
on explicitly conditioned points bit for bit.  The queueing ports are
additionally exercised at the rho -> 0 and rho -> 1 stability boundaries.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive.runtime import default_candidates
from repro.batch import ConditionedPoints, OperatingPoint, evaluate_points
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.exceptions import ConfigurationError
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import MM1Queue
from repro.queueing.vectorized import (
    mg1_waiting_ms,
    mm1_sojourn_ms,
    mm1_waiting_ms,
    ps_waiting_ms,
)

RELATIVE_TOLERANCE = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RELATIVE_TOLERANCE, abs_tol=1e-12)


devices = st.sampled_from(["XR1", "XR2", "XR3", "XR4", "XR6"])
modes = st.sampled_from([ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT])
frame_sides = st.floats(min_value=300.0, max_value=700.0, allow_nan=False)
cpu_freqs = st.floats(min_value=0.6, max_value=3.2, allow_nan=False)
gpu_freqs = st.floats(min_value=0.3, max_value=1.3, allow_nan=False)
bitrates = st.floats(min_value=2.0, max_value=40.0, allow_nan=False)
throughputs = st.floats(min_value=20.0, max_value=500.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    device=devices,
    mode=modes,
    frame_side=frame_sides,
    cpu_freq=cpu_freqs,
    gpu_freq=gpu_freqs,
    bitrate=bitrates,
    throughput=throughputs,
)
def test_scalar_and_batch_agree(
    device, mode, frame_side, cpu_freq, gpu_freq, bitrate, throughput
):
    base = ApplicationConfig.object_detection_default().with_mode(mode)
    app = replace(
        base,
        frame_side_px=frame_side,
        cpu_freq_ghz=cpu_freq,
        gpu_freq_ghz=gpu_freq,
        encoder=replace(base.encoder, bitrate_mbps=bitrate),
    )
    network = NetworkConfig(throughput_mbps=throughput)
    model = XRPerformanceModel(device=device, edge="EDGE-AGX", app=app, network=network)
    scalar = model.analyze(app, network, include_aoi=True)
    batch = evaluate_points(
        [OperatingPoint(app=app, network=network, device=device, edge="EDGE-AGX")],
        include_aoi=True,
    ).report_at(0)

    assert _close(batch.total_latency_ms, scalar.total_latency_ms)
    assert _close(batch.total_energy_mj, scalar.total_energy_mj)
    assert batch.latency.per_segment_ms.keys() == dict(scalar.latency.per_segment_ms).keys()
    for segment, value in scalar.latency.per_segment_ms.items():
        assert _close(batch.latency.per_segment_ms[segment], value)
    for segment, value in scalar.energy.per_segment_mj.items():
        assert _close(batch.energy.per_segment_mj[segment], value)
    assert _close(batch.energy.thermal_mj, scalar.energy.thermal_mj)
    assert _close(batch.energy.base_mj, scalar.energy.base_mj)
    for name, value in scalar.aoi.average_aoi_ms.items():
        assert _close(batch.aoi.average_aoi_ms[name], value)
    for name, value in scalar.aoi.roi.items():
        assert _close(batch.aoi.roi[name], value)
    assert _close(batch.aoi.required_frequency_hz, scalar.aoi.required_frequency_hz)


# ---------------------------------------------------------------------------
# Compiled candidate sets under condition arrays
# ---------------------------------------------------------------------------


def _conditioned(point: OperatingPoint, throughput: float, handoff: float) -> OperatingPoint:
    """The point with the epoch's throughput and its handoff enabled at ``handoff``."""
    network = point.network
    return replace(
        point,
        network=replace(
            network,
            throughput_mbps=throughput,
            handoff=replace(network.handoff, enabled=True, handoff_probability=handoff),
        ),
    )


def _reference_min_roi(result):
    """Per-point minimum RoI across sensors, None when a group has no AoI."""
    out = np.empty(result.n_points)
    for group in result.groups:
        if group.aoi is None:
            return None
        out[group.positions] = np.minimum.reduce(
            [group.aoi.roi[name] for name in group.aoi.sensor_names]
        )
    return out


def _candidates(device, path_loss, cooperation, sensors, edge_distance_m=None):
    """Default candidates; ``cooperation`` is "off", "present" or "billed"."""
    base = ApplicationConfig.object_detection_default()
    app = replace(
        base,
        cooperation=replace(
            base.cooperation,
            enabled=cooperation != "off",
            include_in_totals=cooperation == "billed",
        ),
    )
    network = NetworkConfig(enable_path_loss=path_loss)
    if edge_distance_m is not None:
        network = replace(network, edge_distance_m=edge_distance_m)
    if not sensors:
        network = replace(network, sensors=())
    return default_candidates(
        device=device,
        app=app,
        network=network,
        cpu_freqs_ghz=(1.0, 2.5),
        frame_sides_px=(300.0, 640.0),
    )


conditions_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=400.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=4,
)
candidate_devices = st.sampled_from(["XR1", "XR2", "XR6"])
cooperation_states = st.sampled_from(["off", "present", "billed"])


@settings(max_examples=40, deadline=None)
@given(
    devices=st.tuples(candidate_devices, candidate_devices),
    path_loss=st.booleans(),
    edge_distance_m=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    cooperation=st.tuples(cooperation_states, cooperation_states),
    include_aoi=st.booleans(),
    sensors=st.tuples(st.booleans(), st.booleans()),
    conditions=conditions_lists,
)
@example(
    devices=("XR1", "XR6"),
    path_loss=True,
    edge_distance_m=150.0,
    cooperation=("billed", "present"),
    include_aoi=True,
    sensors=(True, True),
    conditions=[(0.5, 0.0), (37.5, 1.0), (400.0, 0.3)],
)
@example(
    devices=("XR2", "XR2"),
    path_loss=False,
    edge_distance_m=3.0,
    cooperation=("present", "off"),
    include_aoi=True,
    sensors=(True, False),
    conditions=[(12.0, 0.05)],
)
def test_conditioned_points_equal_evaluate_points(
    devices, path_loss, edge_distance_m, cooperation, include_aoi, sensors, conditions
):
    """Row ``e`` of a compiled sweep is evaluate_points on conditioned points.

    One compiled set interleaves the candidates of two devices on two
    networks (one possibly with path loss, one at another edge distance),
    each with cooperation off, present but not billed, or billed, and with
    or without sensors, so per-candidate constants and zero-filled segments
    are both exercised.
    """
    first = _candidates(devices[0], path_loss, cooperation[0], sensors[0])
    second = _candidates(
        devices[1], False, cooperation[1], sensors[1], edge_distance_m=edge_distance_m
    )
    candidates = [point for pair in zip(first, second) for point in pair]
    modes = {point.app.inference.mode for point in candidates}
    assert modes == {ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT}
    compiled = ConditionedPoints(candidates, include_aoi=include_aoi)
    latency, energy, min_roi = compiled.evaluate(
        [throughput for throughput, _ in conditions],
        [handoff for _, handoff in conditions],
    )
    assert latency.shape == energy.shape == (len(conditions), len(candidates))
    for row, (throughput, handoff) in enumerate(conditions):
        expected = evaluate_points(
            [_conditioned(point, throughput, handoff) for point in candidates],
            include_aoi=include_aoi,
        )
        assert np.array_equal(latency[row], expected.total_latency_ms)
        assert np.array_equal(energy[row], expected.total_energy_mj)
        expected_roi = _reference_min_roi(expected)
        if expected_roi is None:
            assert min_roi is None
        else:
            assert np.array_equal(min_roi[row], expected_roi)


def test_conditioned_points_single_condition_and_validation():
    candidates = _candidates("XR1", path_loss=False, cooperation="off", sensors=True)
    compiled = ConditionedPoints(candidates)
    assert compiled.n_points == len(candidates)
    latency, energy, min_roi = compiled.evaluate([0.5], [1.0])
    expected = evaluate_points([_conditioned(p, 0.5, 1.0) for p in candidates])
    assert np.array_equal(latency[0], expected.total_latency_ms)
    assert np.array_equal(energy[0], expected.total_energy_mj)
    assert np.array_equal(min_roi[0], _reference_min_roi(expected))
    invalid = (
        ([0.0], [0.1]),
        ([10.0], [1.5]),
        ([float("nan")], [0.1]),
        ([10.0], [float("nan")]),
        ([10.0, 20.0], [0.1]),
        ([], []),
    )
    for throughput, handoff in invalid:
        with pytest.raises(ConfigurationError):
            compiled.evaluate(throughput, handoff)
    with pytest.raises(ConfigurationError):
        ConditionedPoints([])


# ---------------------------------------------------------------------------
# Queueing boundaries (rho -> 0 and rho -> 1)
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    rho=st.one_of(
        st.floats(min_value=1e-12, max_value=1.0 - 1e-9, exclude_max=False),
        st.just(0.0),
        st.just(1.0 - 1e-12),
    ),
    service_rate=st.floats(min_value=1e-3, max_value=1e3),
)
def test_mm1_vectorized_matches_scalar(rho, service_rate):
    arrival = rho * service_rate
    scalar = MM1Queue(arrival_rate_per_ms=arrival, service_rate_per_ms=service_rate)
    assert _close(float(mm1_sojourn_ms(arrival, service_rate)), scalar.mean_time_in_system_ms)
    assert _close(float(mm1_waiting_ms(arrival, service_rate)), scalar.mean_waiting_time_ms)


@settings(max_examples=100, deadline=None)
@given(
    rho=st.one_of(
        st.floats(min_value=1e-12, max_value=1.0 - 1e-9, exclude_max=False),
        st.just(0.0),
        st.just(1.0 - 1e-12),
    ),
    service_time=st.floats(min_value=1e-3, max_value=1e3),
    scv=st.floats(min_value=0.0, max_value=4.0),
)
def test_mg1_vectorized_matches_scalar(rho, service_time, scv):
    arrival = rho / service_time
    scalar = MG1Queue(
        arrival_rate_per_ms=arrival, mean_service_time_ms=service_time, service_scv=scv
    )
    assert _close(
        float(mg1_waiting_ms(arrival, service_time, scv)), scalar.mean_waiting_time_ms
    )


def test_vectorized_queueing_over_arrays():
    service = 1.0
    arrivals = np.linspace(0.0, 0.999999, 1000)
    sojourn = mm1_sojourn_ms(arrivals, service)
    expected = np.array(
        [MM1Queue(a, service).mean_time_in_system_ms for a in arrivals]
    )
    np.testing.assert_allclose(sojourn, expected, rtol=RELATIVE_TOLERANCE)
    waits = mg1_waiting_ms(arrivals, service, 0.5)
    expected = np.array(
        [MG1Queue(a, service, 0.5).mean_waiting_time_ms for a in arrivals]
    )
    np.testing.assert_allclose(waits, expected, rtol=RELATIVE_TOLERANCE)


def test_ps_waiting_matches_edge_scheduler():
    from repro.fleet.edge_scheduler import EdgeScheduler

    scheduler = EdgeScheduler(discipline="ps")
    service = 12.0
    for rho in (0.0, 0.25, 0.75, 0.999):
        arrival = rho / service
        assert _close(
            float(ps_waiting_ms(service, rho)),
            scheduler.waiting_time_ms(arrival, service),
        )


def test_tagged_waiting_times_vectorized_matches_scalar():
    from repro.fleet.edge_scheduler import EdgeScheduler

    service = 11.0
    rates = [0.0, 0.01, 0.05, 0.2]  # the last load saturates (rho > 1)
    services = [11.0, 11.0, 9.0, 11.0]
    for discipline in ("fifo", "ps"):
        scheduler = EdgeScheduler(discipline=discipline)
        vectorized = scheduler.tagged_waiting_times_ms(service, rates, services)
        for rate, background_service, wait in zip(rates, services, vectorized):
            assert wait == scheduler.tagged_waiting_time_ms(
                service, rate, background_service
            )
    assert math.isinf(vectorized[-1])


def test_unstable_inputs_rejected():
    from repro.exceptions import UnstableQueueError

    with pytest.raises(UnstableQueueError):
        mm1_sojourn_ms(np.array([0.5, 1.0]), 1.0)
    with pytest.raises(UnstableQueueError):
        mg1_waiting_ms(np.array([0.5, 2.0]), 1.0)
    with pytest.raises(UnstableQueueError):
        ps_waiting_ms(1.0, np.array([0.5, 1.0]))
