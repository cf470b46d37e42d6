"""Each model equation gives the same bits on a float as on an array.

The equations of Sections IV-VI are written once, in :mod:`repro.core` (Eq.
17 in :mod:`repro.network.handoff`), as functions of numeric values: the scalar models call them with floats and the
batch engine with aligned NumPy arrays.  Each case below evaluates one
equation on arrays of operating points and again on every point's floats, and
compares the two with ``==``.  The sampled points fall on both sides of each
clamp and branch, and the domain checks reject one bad point in an array as
they reject a bad float.
"""

import numpy as np
import pytest

from repro import units
from repro.config.network import NetworkConfig
from repro.core import aoi, latency
from repro.core.coefficients import (
    PAPER_ENCODING,
    PAPER_POWER_BLEND,
    PAPER_RESOURCE_BLEND,
    CoefficientSet,
)
from repro.core.power import PowerModel
from repro.core.resources import COMPUTE_FLOOR, ComputeResourceModel
from repro.core.segments import Segment
from repro.devices.catalog import get_device, get_edge_server
from repro.exceptions import ModelDomainError
from repro.network import handoff

N_POINTS = 64
RESOURCES = ComputeResourceModel(CoefficientSet.paper())
POWER = PowerModel(CoefficientSet.paper(), get_device("XR1"))
EDGE = get_edge_server("EDGE-AGX")
#: A 100 Hz sensor: the required periods below fall on both sides of it.
SENSOR_PERIOD_MS = 10.0
DELIVERY_OVERHEAD_MS = 0.4


def _points():
    rng = np.random.default_rng(29)
    return {
        "fc": rng.uniform(0.6, 3.2, N_POINTS),
        "fg": rng.uniform(0.3, 1.3, N_POINTS),
        "side": rng.uniform(200.0, 1500.0, N_POINTS),
        "bitrate": rng.uniform(2.0, 40.0, N_POINTS),
        "throughput": rng.uniform(20.0, 500.0, N_POINTS),
        "required_period": rng.uniform(2.0, 20.0, N_POINTS),
        "handoff_probability": rng.uniform(0.0, 1.0, N_POINTS),
    }


def _each_point(arrays):
    for i in range(N_POINTS):
        yield {name: float(values[i]) for name, values in arrays.items()}


def _compute(v):
    # At CPU share 0 the GPU polynomial alone dips under the floor near 0.7 GHz.
    return RESOURCES.client_compute(v["fc"], v["fg"], 0.0)


def _edge(v):
    return RESOURCES.edge_compute(_compute(v), EDGE)


def _mean_power(v):
    return POWER.mean_power_w(v["fc"], v["fg"], 0.6)


def _numerator(v):
    return PAPER_ENCODING.numerator(30.0, 2.0, v["bitrate"], v["side"], 30.0, 25.0)


def _memory(v):
    return latency.memory_ms(units.yuv_frame_size_mb(v["side"]), 25.0)


def _decode(v):
    return latency.decode_ms(_numerator(v), _compute(v), _edge(v), 0.3)


def _mean_age(v):
    return aoi.mean_update_age_ms(
        13, SENSOR_PERIOD_MS, v["required_period"], DELIVERY_OVERHEAD_MS
    )


EQUATIONS = {
    "eq3-blend": lambda v: PAPER_RESOURCE_BLEND.evaluate(v["fc"], v["fg"], 0.6),
    "eq21-blend": lambda v: PAPER_POWER_BLEND.evaluate(v["fc"], v["fg"], 0.6),
    "eq3-client-compute": _compute,
    "edge-compute": _edge,
    "eq21-mean-power": _mean_power,
    "segment-power": lambda v: POWER.segment_power_w(Segment.RENDERING, _mean_power(v)),
    "eq10-numerator": _numerator,
    "eq2-generation": lambda v: latency.generation_ms(33.3, v["side"], _compute(v), _memory(v)),
    "eq10-processing": lambda v: latency.processing_ms(_numerator(v), _compute(v), _memory(v)),
    "eq11-paper-complexity": lambda v: latency.inference_compute_ms(
        v["side"], _compute(v), 3.5, "paper"
    ),
    "eq11-proportional-complexity": lambda v: latency.inference_compute_ms(
        v["side"], _compute(v), 3.5, "proportional"
    ),
    "eq11-local-share": lambda v: latency.local_share_ms(
        0.4, 320.0, _compute(v), 3.5, 0.1, "paper"
    ),
    "eq14-decode": _decode,
    "eq15-slowest-share": lambda v: latency.slowest_share_ms(
        (0.3, 0.0, 0.7), v["side"], _edge(v), 3.5, _memory(v), _decode(v), "paper"
    ),
    "eq8-render": lambda v: latency.render_ms(
        v["side"], _compute(v), _memory(v), 1.2, latency.link_ms(0.8, v["throughput"], 0.01)
    ),
    "eq16-link": lambda v: latency.link_ms(
        units.yuv_frame_size_mb(v["side"]) * 8.0, v["throughput"], 0.01
    ),
    "eq17-handoff": lambda v: handoff.handoff_ms(50.0, v["handoff_probability"]),
    "eq23-update-age": lambda v: aoi.update_age_ms(
        5, SENSOR_PERIOD_MS, v["required_period"], DELIVERY_OVERHEAD_MS
    ),
    "eq24-mean-update-age": _mean_age,
    "eq25-processed-frequency": lambda v: aoi.processed_frequency_hz(_mean_age(v)),
}


@pytest.mark.parametrize("name", list(EQUATIONS))
def test_float_and_array_give_the_same_bits(name):
    equation = EQUATIONS[name]
    arrays = _points()
    on_arrays = equation(arrays)
    on_floats = [equation(point) for point in _each_point(arrays)]
    assert isinstance(on_arrays, np.ndarray)
    assert on_arrays.shape == (N_POINTS,)
    assert not any(isinstance(value, np.ndarray) for value in on_floats)
    assert on_arrays.tolist() == [float(value) for value in on_floats]


def test_the_sampled_points_bind_each_clamp_and_branch_both_ways():
    arrays = _points()
    compute = _compute(arrays)
    assert 0 < np.count_nonzero(compute == COMPUTE_FLOOR) < N_POINTS
    mean_power = _mean_power(arrays)
    base_power = get_device("XR1").base_power_w
    assert 0 < np.count_nonzero(mean_power == base_power) < N_POINTS
    slow_sensor = SENSOR_PERIOD_MS >= arrays["required_period"]
    assert 0 < np.count_nonzero(slow_sensor) < N_POINTS


def test_frame_aoi_on_arrays_equals_each_frame_on_floats():
    sensors = NetworkConfig().sensors
    latencies = np.random.default_rng(7).uniform(20.0, 400.0, N_POINTS)
    required, rows = aoi.frame_aoi(sensors, 3e8, 2.5, 16, latencies)
    for i, frame_latency in enumerate(latencies.tolist()):
        required_i, rows_i = aoi.frame_aoi(sensors, 3e8, 2.5, 16, frame_latency)
        assert required[i] == required_i
        for (name, *values), (name_i, *values_i) in zip(rows, rows_i):
            assert name == name_i
            assert [float(value[i]) for value in values] == [float(v) for v in values_i]


def test_zero_age_reads_as_an_infinite_frequency():
    assert aoi.processed_frequency_hz(0.0) == np.inf
    assert aoi.processed_frequency_hz(np.float64(0.0)) == np.inf
    assert aoi.processed_frequency_hz(4.0) == 250.0
    with np.errstate(divide="ignore"):
        on_array = aoi.processed_frequency_hz(np.array([0.0, 4.0]))
    assert on_array.tolist() == [np.inf, 250.0]


# ---------------------------------------------------------------------------
# The domain checks
# ---------------------------------------------------------------------------


DOMAIN_CHECKS = {
    "non-positive-clock": lambda fc: PAPER_RESOURCE_BLEND.evaluate(fc, 1.0, 0.5),
    "non-positive-compute": lambda fc: latency.inference_compute_ms(
        500.0, fc, 3.5, "paper"
    ),
    "non-positive-client-compute": lambda fc: RESOURCES.edge_compute(fc, EDGE),
    # Without frames or quantization the workload is 1067.6 x - 805.66.
    "non-positive-encoding-workload": lambda x: PAPER_ENCODING.numerator(
        30.0, 0.0, 20.0 * x, 0.0, 0.0, 0.0
    ),
}


@pytest.mark.parametrize("name", list(DOMAIN_CHECKS))
def test_one_bad_point_rejects_the_whole_array(name):
    check = DOMAIN_CHECKS[name]
    check(np.array([1.0, 2.0, 3.0]))
    check(np.zeros(0))
    check(2.0)
    with pytest.raises(ModelDomainError):
        check(np.array([1.0, 0.0, 3.0]))
    with pytest.raises(ModelDomainError):
        check(0.0)
