"""Property: every accepted application configuration analyzes to finite totals.

Each numeric :class:`ApplicationConfig` field is drawn over its whole type
(NaN, infinities, subnormals and 1e308 included) with the other fields at
their defaults.  Either construction raises a ``ConfigurationError`` that
names the field, or the scalar ``analyze`` and the batch
``evaluate_points`` both return the same finite latency and energy.  The
one typed failure left is an unstable input buffer (Eq. 7): its stability
also depends on the network's sensor rates, so the configuration alone
cannot rule it out, and both paths must then raise ``UnstableQueueError``
exactly when a stream's arrival rate reaches the service rate.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import OperatingPoint, evaluate_points
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
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

_NETWORK = NetworkConfig()


def _analyze_both(app, device):
    """(scalar totals, batch totals), or the exception type each raised."""
    outcomes = []
    try:
        report = XRPerformanceModel(device=device, edge="EDGE-AGX").analyze(app, _NETWORK)
        outcomes.append((report.total_latency_ms, report.total_energy_mj))
    except UnstableQueueError:
        outcomes.append(UnstableQueueError)
    try:
        batch = evaluate_points([OperatingPoint(app=app, network=_NETWORK, device=device)])
        outcomes.append((float(batch.total_latency_ms[0]), float(batch.total_energy_mj[0])))
    except UnstableQueueError:
        outcomes.append(UnstableQueueError)
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
    scalar, batch = _analyze_both(app, device)
    unstable = app.buffer_service_rate_hz <= max(
        app.frame_rate_fps, _NETWORK.total_sensor_arrival_rate_hz
    )
    if unstable:
        assert scalar is batch is UnstableQueueError
        return
    assert all(math.isfinite(total) for total in scalar), scalar
    assert batch == pytest.approx(scalar, rel=1e-9)
