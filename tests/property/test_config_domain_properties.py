"""Property: every accepted configuration analyzes to finite totals.

Each validated numeric field of :class:`ApplicationConfig`,
:class:`NetworkConfig`, :class:`HandoffConfig` and :class:`SensorConfig` is
drawn over its whole type (NaN, infinities, subnormals and 1e308 included)
with the other fields at their defaults.  Either construction raises a
``ConfigurationError`` that names the field, or the scalar ``analyze`` and
the batch ``evaluate_points`` both return the same finite latency and
energy (and, for the sensor fields, the same finite per-sensor AoI).  The
network cases also draw whether path loss and handoffs are on.  The one
typed failure left is an input buffer (Eq. 7) that the sensors' aggregate
arrival rate makes unstable: the buffer's service rate belongs to the
application and the sensors to the network, so neither config can rule it
out alone, and both paths must then raise ``UnstableQueueError``.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.batch import OperatingPoint, evaluate_points
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import HandoffConfig, NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.devices.catalog import DEVICE_CATALOG
from repro.exceptions import ConfigurationError, UnstableQueueError

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)

#: Every numeric field ``ApplicationConfig.__post_init__`` validates.
FIELDS = {
    "frame_rate_fps": _ANY_FLOAT,
    "frame_side_px": _ANY_FLOAT,
    "converted_frame_side_px": _ANY_FLOAT,
    "virtual_scene_side_px": _ANY_FLOAT,
    "point_cloud_mb": _ANY_FLOAT,
    "sensor_updates_per_frame": st.integers(),
    "buffer_service_rate_hz": _ANY_FLOAT,
    "cpu_share": _ANY_FLOAT,
    "cpu_freq_ghz": _ANY_FLOAT,
    "gpu_freq_ghz": _ANY_FLOAT,
}

#: Every numeric field the three network configs validate, by config.
NETWORK_FIELDS = {
    "network": (
        "throughput_mbps",
        "edge_distance_m",
        "propagation_speed_m_per_s",
        "path_loss_exponent",
        "carrier_frequency_ghz",
        "bandwidth_mhz",
        "tx_power_dbm",
        "noise_figure_db",
        "radio_tx_power_w",
        "radio_idle_power_w",
    ),
    "handoff": (
        "handoff_latency_ms",
        "handoff_probability",
        "cell_radius_m",
        "device_speed_m_per_s",
        "power_w",
    ),
    "sensor": (
        "generation_frequency_hz",
        "distance_m",
        "packet_size_kb",
        "arrival_rate_hz",
    ),
}

_NETWORK = NetworkConfig()


def _analyze_both(app, network, device, with_aoi=False):
    """(scalar outcome, batch outcome): totals, or the exception type raised.

    With ``with_aoi`` each outcome also carries the per-sensor mean AoI.
    """
    outcomes = []
    try:
        report = XRPerformanceModel(device=device, edge="EDGE-AGX").analyze(app, network)
        aoi = report.aoi
        outcomes.append((report.total_latency_ms, report.total_energy_mj))
    except UnstableQueueError:
        outcomes.append(UnstableQueueError)
    try:
        batch = evaluate_points([OperatingPoint(app=app, network=network, device=device)])
        batch_aoi = batch.aoi_at(0)
        outcomes.append((float(batch.total_latency_ms[0]), float(batch.total_energy_mj[0])))
    except UnstableQueueError:
        outcomes.append(UnstableQueueError)
    if with_aoi and UnstableQueueError not in outcomes:
        outcomes[0] += tuple(aoi.average_aoi_ms.values())
        outcomes[1] += tuple(batch_aoi.average_aoi_ms.values())
    return outcomes


@pytest.mark.parametrize("field", sorted(FIELDS))
@settings(max_examples=15, deadline=None)
@given(
    data=st.data(),
    device=st.sampled_from(sorted(DEVICE_CATALOG)),
    mode=st.sampled_from([ExecutionMode.LOCAL, ExecutionMode.REMOTE]),
)
def test_config_is_rejected_or_analyzes_to_finite_totals(field, data, device, mode):
    value = data.draw(FIELDS[field], label=field)
    try:
        app = ApplicationConfig(**{field: value}).with_mode(mode)
    except ConfigurationError as error:
        assert field in str(error)
        return
    scalar, batch = _analyze_both(app, _NETWORK, device)
    if app.buffer_service_rate_hz <= _NETWORK.total_sensor_arrival_rate_hz:
        assert scalar is batch is UnstableQueueError
        return
    assert all(math.isfinite(total) for total in scalar), scalar
    assert batch == pytest.approx(scalar, rel=1e-9)


def _network_with(config, field, value, path_loss, handoff):
    """The default network with one field of ``config`` set to ``value``."""
    if config == "network":
        return NetworkConfig(
            enable_path_loss=path_loss,
            handoff=HandoffConfig(enabled=handoff),
            **{field: value},
        )
    if config == "handoff":
        return NetworkConfig(
            enable_path_loss=path_loss,
            handoff=HandoffConfig(enabled=handoff, **{field: value}),
        )
    first, *others = _NETWORK.sensors
    return NetworkConfig(
        enable_path_loss=path_loss,
        handoff=HandoffConfig(enabled=handoff),
        sensors=(replace(first, **{field: value}), *others),
    )


@pytest.mark.parametrize(
    "config, field",
    [(config, field) for config, fields in NETWORK_FIELDS.items() for field in fields],
    ids=lambda part: part,
)
@settings(max_examples=15, deadline=None)
@given(
    value=_ANY_FLOAT,
    device=st.sampled_from(sorted(DEVICE_CATALOG)),
    mode=st.sampled_from([ExecutionMode.LOCAL, ExecutionMode.REMOTE]),
    path_loss=st.booleans(),
    handoff=st.booleans(),
)
# Each field also meets the extremes that broke the model before the
# configs were bounded: inf, 5e-324 and 1e300 gave a ZeroDivisionError, an
# OverflowError, inf totals or a scalar/batch disagreement, and NaN gave
# NaN totals.
@example(value=math.inf, device="XR1", mode=ExecutionMode.REMOTE, path_loss=False, handoff=True)
@example(value=5e-324, device="XR1", mode=ExecutionMode.REMOTE, path_loss=False, handoff=True)
@example(value=5e-324, device="XR1", mode=ExecutionMode.LOCAL, path_loss=False, handoff=True)
@example(value=1e300, device="XR1", mode=ExecutionMode.LOCAL, path_loss=True, handoff=True)
@example(value=1e300, device="XR1", mode=ExecutionMode.REMOTE, path_loss=True, handoff=True)
@example(value=math.nan, device="XR1", mode=ExecutionMode.REMOTE, path_loss=True, handoff=True)
def test_network_config_is_rejected_or_analyzes_to_finite_totals(
    config, field, value, device, mode, path_loss, handoff
):
    try:
        network = _network_with(config, field, value, path_loss, handoff)
    except ConfigurationError as error:
        assert field in str(error)
        return
    app = ApplicationConfig().with_mode(mode)
    scalar, batch = _analyze_both(app, network, device, with_aoi=config == "sensor")
    if app.buffer_service_rate_hz <= network.total_sensor_arrival_rate_hz:
        assert scalar is batch is UnstableQueueError
        return
    assert all(math.isfinite(total) for total in scalar), scalar
    assert batch == pytest.approx(scalar, rel=1e-9)
