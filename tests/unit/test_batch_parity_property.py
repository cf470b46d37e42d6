"""Property-based parity tests: scalar ``analyze()`` vs batch ``evaluate_*``.

Hypothesis draws random devices, execution modes, frame sizes, clock
frequencies, encoder bitrates and sensor update counts inside the regression
domain and asserts the batch engine equals the scalar path bit for bit — on
the end-to-end totals, every segment, the thermal and base terms, and the
AoI quantities.  Both paths call the same equations in :mod:`repro.core`, so
this checks the grouping; the Fig. 4 validation against the simulated
testbed stays the independent check of the equations.  Compiled candidate
sets (:class:`ConditionedPoints`) must equal ``evaluate_points`` on
explicitly conditioned points bit for bit.
"""

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
from repro.exceptions import ConfigurationError, UnstableQueueError

devices = st.sampled_from(["XR1", "XR2", "XR3", "XR4", "XR6"])
modes = st.sampled_from([ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT])
frame_sides = st.floats(min_value=300.0, max_value=700.0, allow_nan=False)
cpu_freqs = st.floats(min_value=0.6, max_value=3.2, allow_nan=False)
gpu_freqs = st.floats(min_value=0.3, max_value=1.3, allow_nan=False)
bitrates = st.floats(min_value=2.0, max_value=40.0, allow_nan=False)
throughputs = st.floats(min_value=20.0, max_value=500.0, allow_nan=False)
sensor_updates = st.integers(min_value=0, max_value=40)


@settings(max_examples=60, deadline=None)
@given(
    device=devices,
    mode=modes,
    frame_side=frame_sides,
    cpu_freq=cpu_freqs,
    gpu_freq=gpu_freqs,
    bitrate=bitrates,
    throughput=throughputs,
    updates=sensor_updates,
)
# libm's pow gives 2.759 ** 2 a last bit NumPy's exact square does not.
@example(
    device="XR1",
    mode=ExecutionMode.LOCAL,
    frame_side=640.0,
    cpu_freq=2.759,
    gpu_freq=0.9,
    bitrate=10.0,
    throughput=200.0,
    updates=1,
)
# From 8 updates np.mean sums pairwise, where Eq. (24) sums in update order.
@example(
    device="XR1",
    mode=ExecutionMode.REMOTE,
    frame_side=640.0,
    cpu_freq=2.0,
    gpu_freq=0.9,
    bitrate=10.0,
    throughput=200.0,
    updates=16,
)
def test_scalar_and_batch_agree(
    device, mode, frame_side, cpu_freq, gpu_freq, bitrate, throughput, updates
):
    base = ApplicationConfig.object_detection_default().with_mode(mode)
    app = replace(
        base,
        frame_side_px=frame_side,
        cpu_freq_ghz=cpu_freq,
        gpu_freq_ghz=gpu_freq,
        encoder=replace(base.encoder, bitrate_mbps=bitrate),
        sensor_updates_per_frame=updates,
    )
    _assert_scalar_equals_batch(device, app, NetworkConfig(throughput_mbps=throughput))


def _assert_scalar_equals_batch(device, app, network):
    """``analyze`` and a one-point ``evaluate_points`` agree with ``==`` on every field."""
    model = XRPerformanceModel(device=device, edge="EDGE-AGX", app=app, network=network)
    scalar = model.analyze(app, network, include_aoi=True)
    batch = evaluate_points(
        [OperatingPoint(app=app, network=network, device=device, edge="EDGE-AGX")],
        include_aoi=True,
    ).report_at(0)

    assert batch.total_latency_ms == scalar.total_latency_ms
    assert batch.total_energy_mj == scalar.total_energy_mj
    assert list(batch.latency.per_segment_ms) == list(scalar.latency.per_segment_ms)
    assert batch.latency.per_segment_ms == scalar.latency.per_segment_ms
    assert batch.energy.per_segment_mj == scalar.energy.per_segment_mj
    assert batch.energy.thermal_mj == scalar.energy.thermal_mj
    assert batch.energy.base_mj == scalar.energy.base_mj
    assert batch.energy.mean_power_w == scalar.energy.mean_power_w
    assert batch.latency.client_compute == scalar.latency.client_compute
    assert batch.latency.edge_compute == scalar.latency.edge_compute
    assert batch.aoi.average_aoi_ms == scalar.aoi.average_aoi_ms
    assert batch.aoi.roi == scalar.aoi.roi
    assert batch.aoi.processed_frequency_hz == scalar.aoi.processed_frequency_hz
    assert batch.aoi.required_frequency_hz == scalar.aoi.required_frequency_hz
    assert batch.aoi.buffer_time_ms == scalar.aoi.buffer_time_ms


@pytest.mark.parametrize("mode", [ExecutionMode.LOCAL, ExecutionMode.REMOTE])
@pytest.mark.parametrize(
    "cpu_freq, updates",
    [(2.759, 3), (2.0, 8), (2.0, 16), (2.0, 1000)],
    ids=["2.759GHz", "8-updates", "16-updates", "1000-updates"],
)
def test_scalar_and_batch_agree_where_two_copies_of_the_equations_differed(
    mode, cpu_freq, updates
):
    # libm's pow squared 2.759 a last bit off NumPy's exact square, and from
    # 8 updates np.mean summed Eq. (24) pairwise instead of in update order.
    app = replace(
        ApplicationConfig.object_detection_default().with_mode(mode),
        cpu_freq_ghz=cpu_freq,
        sensor_updates_per_frame=updates,
    )
    _assert_scalar_equals_batch("XR1", app, NetworkConfig())


@pytest.mark.parametrize(
    "headroom", [1e9, 2.0, 1.0 + 1e-9], ids=["rho-near-0", "rho-half", "rho-near-1"]
)
def test_scalar_and_batch_agree_across_the_buffer_stability_range(headroom):
    # Eq. (7)'s M/M/1 input buffer: the sensors' aggregate rate sets rho.
    network = NetworkConfig()
    app = replace(
        ApplicationConfig.object_detection_default(),
        buffer_service_rate_hz=network.total_sensor_arrival_rate_hz * headroom,
    )
    _assert_scalar_equals_batch("XR1", app, network)


def test_unstable_inputs_rejected():
    network = NetworkConfig()
    app = replace(
        ApplicationConfig.object_detection_default(),
        buffer_service_rate_hz=0.8 * network.total_sensor_arrival_rate_hz,
    )
    model = XRPerformanceModel(device="XR1", edge="EDGE-AGX", app=app, network=network)
    with pytest.raises(UnstableQueueError):
        model.analyze(app, network)
    with pytest.raises(UnstableQueueError):
        evaluate_points([OperatingPoint(app=app, network=network, device="XR1", edge="EDGE-AGX")])


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
    return default_candidates(device=device, app=app, network=network)


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
