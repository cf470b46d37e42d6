"""Properties: the co-simulation's two degeneracies, over drawn fleets.

The engine docstring (:mod:`repro.cosim.engine`) promises that

* with one user the co-simulation is :meth:`AdaptiveRuntime.run`, field for
  field, and
* with every controller pinned to its user's own operating point it is
  :meth:`FleetAnalyzer.analyze` under each epoch's conditions, in every
  epoch.

Both are drawn over every bundled condition trace with drawn seeds, catalog
devices, edited applications in local and remote mode, and 1-5 edges.
Neither holds everywhere today, so both are strict xfails pinned to a
counterexample; when the engine is fixed they pass and the marks go.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    AdaptiveRuntime,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
)
from repro.adaptive.runtime import default_candidates
from repro.adaptive.traces import TRACE_GENERATORS
from repro.batch import OperatingPoint
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import HandoffConfig, NetworkConfig
from repro.cosim import CoSimulation
from repro.devices.catalog import DEVICE_CATALOG
from repro.fleet import FleetAnalyzer, FleetPopulation, UserProfile

N_EPOCHS = 8


def _app(side, cpu_freq, fps, mode):
    return ApplicationConfig(
        frame_side_px=side, cpu_freq_ghz=cpu_freq, frame_rate_fps=fps
    ).with_mode(mode)


APPS = st.builds(
    _app,
    st.floats(300.0, 700.0),
    st.floats(0.8, 3.2),
    st.sampled_from([10.0, 30.0, 60.0]),
    st.sampled_from([ExecutionMode.LOCAL, ExecutionMode.REMOTE]),
)
DEVICES = st.sampled_from(sorted(DEVICE_CATALOG))
SEEDS = st.integers(0, 2**16)


def _controller(kind, number, n_candidates):
    if kind == "greedy":
        return GreedyBatchSweep()
    if kind == "ewma":
        return EwmaPredictive(seed=number)
    if kind == "hysteresis":
        return HysteresisThreshold()
    return StaticBaseline(number % n_candidates)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "EdgeScheduler.tenant_wait_ms charges inf to a sole tenant that saturates "
        "its edge, so the co-simulation reports inf where AdaptiveRuntime, which "
        "has no edge queue, reports ~1.1 s (XR1 at 300 px, 1 GHz and 60 fps, "
        "pinned to the remote candidate)"
    ),
)
@pytest.mark.parametrize("trace_name", sorted(TRACE_GENERATORS))
@settings(max_examples=10, deadline=None)
@given(
    seed=SEEDS,
    device=DEVICES,
    app=APPS,
    n_edges=st.integers(1, 5),
    kind=st.sampled_from(["greedy", "ewma", "hysteresis", "static"]),
    number=SEEDS,
)
@example(
    seed=0,
    device="XR1",
    app=_app(300.0, 1.0, 60.0, ExecutionMode.LOCAL),
    n_edges=1,
    kind="static",
    number=1,
)
def test_single_user_cosim_is_the_adaptive_runtime(
    trace_name, seed, device, app, n_edges, kind, number
):
    trace = TRACE_GENERATORS[trace_name](N_EPOCHS, seed=seed)
    n_candidates = len(default_candidates(device=device, app=app))
    population = FleetPopulation(users=(UserProfile(name="solo", device=device, app=app),))
    report = CoSimulation(
        population, _controller(kind, number, n_candidates), trace, n_edges=n_edges
    ).run()
    runtime = AdaptiveRuntime(trace=trace, device=device, edge="EDGE-AGX", app=app)
    assert report.class_reports[0] == runtime.run(_controller(kind, number, n_candidates))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "with two or more offloaders the co-simulation charges "
        "min(exogenous, the base link's contended share) while FleetAnalyzer "
        "shares the epoch's own throughput; two remote XR1 users on a burst trace "
        "already differ in the first epoch"
    ),
)
@pytest.mark.parametrize("trace_name", sorted(TRACE_GENERATORS))
@settings(max_examples=10, deadline=None)
@given(
    seed=SEEDS,
    kinds=st.lists(st.tuples(DEVICES, APPS), min_size=1, max_size=3, unique=True),
    n_users=st.integers(1, 8),
    n_edges=st.integers(1, 5),
)
@example(
    seed=0,
    kinds=[("XR1", _app(300.0, 1.0, 10.0, ExecutionMode.REMOTE))],
    n_users=2,
    n_edges=1,
)
def test_all_static_cosim_is_the_fleet_analysis_in_every_epoch(
    trace_name, seed, kinds, n_users, n_edges
):
    trace = TRACE_GENERATORS[trace_name](N_EPOCHS, seed=seed)
    network = NetworkConfig()
    population = FleetPopulation(
        users=tuple(
            UserProfile(name=f"user-{index}", device=device, app=app)
            for index, (device, app) in zip(range(n_users), itertools.cycle(kinds))
        )
    )
    # One candidate per (device, app) kind; each user is pinned to its own.
    candidates = tuple(
        OperatingPoint(app=app, network=network, device=device, edge="EDGE-AGX")
        for device, app in kinds
    )
    report = CoSimulation(
        population,
        lambda user: StaticBaseline(kinds.index((user.device, user.app))),
        trace,
        n_edges=n_edges,
        candidates=candidates,
        network=network,
    ).run()
    for epoch, conditions in enumerate(trace.epochs):
        epoch_network = NetworkConfig(
            throughput_mbps=conditions.throughput_mbps,
            handoff=HandoffConfig(
                enabled=True, handoff_probability=conditions.handoff_probability
            ),
        )
        fleet = FleetAnalyzer(population, n_edges=n_edges, network=epoch_network).analyze()
        assert (
            report.p50_latency_ms[epoch],
            report.p95_latency_ms[epoch],
            report.p99_latency_ms[epoch],
            report.mean_latency_ms[epoch],
            report.total_energy_mj[epoch],
            report.mean_energy_mj[epoch],
            report.offload_fraction[epoch],
        ) == (
            fleet.p50_latency_ms,
            fleet.p95_latency_ms,
            fleet.p99_latency_ms,
            fleet.mean_latency_ms,
            fleet.total_energy_mj,
            fleet.mean_energy_mj,
            fleet.n_offloaded / fleet.n_users,
        ), (epoch, conditions)
