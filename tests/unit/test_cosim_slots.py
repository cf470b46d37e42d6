"""Slot-level co-sim load math against plain per-user references.

The co-simulation computes edge loads and waits per (class, edge) slot of a
cached round-robin deal, and its latency percentiles from (value, count)
pairs.  These tests pin both to the straightforward per-user definitions:

* ``_loads`` equals a per-user loop — round robin over the alive edges in
  population order, sequential load accumulation, one tagged wait per
  offloading user — on edge rates, busy fractions, class waits and per-user
  waits, exactly;
* ``percentiles_from_counts`` equals ``np.percentile`` over the expanded
  samples, exactly.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive import ConditionTrace, EpochConditions, GreedyBatchSweep
from repro.cosim import CoSimulation
from repro.cosim.engine import DEAL_CACHE_SIZE, percentiles_from_counts
from repro.faults.schedule import EpochFaultState
from repro.fleet import FleetPopulation, UserProfile, homogeneous

#: Frame rates of the test apps: distinct per-class arrival rates make the
#: per-edge accumulation order observable in the last bit.
FRAME_RATES_FPS = (30.0, 37.3, 59.94)


def _trace() -> ConditionTrace:
    return ConditionTrace(
        name="constant",
        epoch_ms=100.0,
        epochs=(EpochConditions(time_ms=0.0, throughput_mbps=200.0, handoff_probability=0.0),),
    )


def _simulation(rng: np.random.Generator, n_edges: int) -> CoSimulation:
    """Random interleaved classes: device, frame rate and controller drawn per user."""
    base = homogeneous(1).users[0].app
    apps = [replace(base, frame_rate_fps=fps) for fps in FRAME_RATES_FPS]
    population = FleetPopulation(
        users=tuple(
            UserProfile(
                name=f"user-{index}",
                device=str(rng.choice(["XR1", "XR2", "XR6"])),
                app=apps[int(rng.integers(0, len(apps)))],
            )
            for index in range(int(rng.integers(1, 24)))
        )
    )
    templates = [GreedyBatchSweep() for _ in range(int(rng.integers(1, 3)))]
    controllers = {
        user.name: templates[int(rng.integers(0, len(templates)))] for user in population
    }
    return CoSimulation(
        population,
        controllers,
        _trace(),
        n_edges=n_edges,
        include_aoi=False,
        prewarm=False,
    )


def _decisions(rng: np.random.Generator, simulation: CoSimulation) -> list:
    decisions = []
    for cls in simulation._classes:
        if rng.random() < 0.15:
            decisions.append(None)
        else:
            decisions.append(int(rng.integers(0, cls.context.n_candidates)))
    return decisions


def _fault_states(rng: np.random.Generator, n_edges: int) -> list:
    states = [None]
    for _ in range(3):
        capacity = tuple(float(rng.choice([0.0, 0.4, 0.75, 1.0])) for _ in range(n_edges))
        service = tuple(float(rng.choice([1.0, 1.5, 3.0])) for _ in range(n_edges))
        states.append(EpochFaultState(0, n_edges, capacity, service))
    states.append(EpochFaultState(0, n_edges, (0.0,) * n_edges, (1.0,) * n_edges))
    return states


def reference_loads(simulation, decisions, fault_state):
    """Per-user loop over the population: the definition ``_loads`` implements."""
    classes = simulation._classes
    class_of_user = simulation._class_of_user
    n_edges = simulation.n_edges
    alive = fault_state.alive_edges if fault_state is not None else tuple(range(n_edges))

    def scale(edge):
        return fault_state.service_scale(edge) if fault_state is not None else 1.0

    def offloads(cls_index):
        decision = decisions[cls_index]
        return decision is not None and bool(classes[cls_index].context.offload_mask[decision])

    rate = [
        float(cls.arrival_per_ms[d]) if offloads(c) else 0.0
        for c, (cls, d) in enumerate(zip(classes, decisions))
    ]
    service = [
        float(cls.service_ms[d]) if offloads(c) else 0.0
        for c, (cls, d) in enumerate(zip(classes, decisions))
    ]
    edge_of_user = {}
    dealt = 0
    for user in range(len(class_of_user)):
        if offloads(int(class_of_user[user])):
            edge_of_user[user] = alive[dealt % len(alive)] if alive else None
            dealt += 1

    edge_rate = np.zeros(n_edges)
    edge_busy = np.zeros(n_edges)
    raw_rate = {}
    raw_busy = {}
    for user, edge in edge_of_user.items():
        if edge is None:
            continue
        c = int(class_of_user[user])
        if edge in raw_rate:
            raw_rate[edge] += rate[c]
            raw_busy[edge] += rate[c] * service[c]
        else:
            raw_rate[edge] = rate[c]
            raw_busy[edge] = rate[c] * service[c]
    for edge in raw_rate:
        edge_rate[edge] = raw_rate[edge]
        edge_busy[edge] = raw_busy[edge] * scale(edge)

    wait_user = np.zeros(len(class_of_user))
    class_wait = {}
    for user, edge in edge_of_user.items():
        c = int(class_of_user[user])
        if edge is None:
            wait = math.inf
        elif edge_busy[edge] >= 1.0:
            wait = math.inf
        else:
            s = scale(edge)
            background = max(edge_rate[edge] - rate[c], 0.0)
            background_busy = max(edge_busy[edge] - rate[c] * service[c] * s, 0.0)
            wait = simulation.scheduler.tagged_waiting_time_ms(
                service[c] * s,
                background,
                background_busy / background if background > 0.0 else None,
            )
        wait_user[user] = wait
        class_wait[(c, edge if edge is not None else 0)] = wait
    return dealt, edge_rate, edge_busy, class_wait, wait_user


def _pair_waits(loads):
    """``{(class, edge): wait}`` of the offloading slots; local slots wait 0."""
    n_pairs = len(loads.deal.pairs)
    assert not loads.slot_wait_ms[n_pairs:].any()
    return dict(zip(loads.deal.pairs, loads.slot_wait_ms[:n_pairs].tolist()))


@pytest.mark.parametrize("seed", range(24))
def test_loads_match_per_user_reference(seed):
    rng = np.random.default_rng(seed)
    n_edges = int(rng.integers(1, 5))
    simulation = _simulation(rng, n_edges)
    for fault_state in _fault_states(rng, n_edges):
        for _ in range(4):
            decisions = _decisions(rng, simulation)
            loads = simulation._loads(decisions, fault_state)
            dealt, edge_rate, edge_busy, class_wait, wait_user = reference_loads(
                simulation, decisions, fault_state
            )
            assert loads.n_offloaded == dealt
            assert np.array_equal(loads.edge_rate, edge_rate)
            assert np.array_equal(loads.edge_busy, edge_busy)
            deal = loads.deal
            assert _pair_waits(loads) == class_wait
            assert np.array_equal(loads.slot_wait_ms[deal.slot_of_user], wait_user)
            assert deal.slot_count.sum() == simulation._n_users
            assert (deal.slot_count > 0).all()
    assert len(simulation._deals) <= DEAL_CACHE_SIZE


def test_deal_cache_is_bounded_and_stays_exact():
    rng = np.random.default_rng(99)
    population = homogeneous(12, device="XR1")
    controllers = {user.name: GreedyBatchSweep() for user in population}
    simulation = CoSimulation(
        population, controllers, _trace(), n_edges=3, include_aoi=False, prewarm=False
    )
    assert len(simulation._classes) == 12
    for _ in range(3 * DEAL_CACHE_SIZE):
        decisions = _decisions(rng, simulation)
        loads = simulation._loads(decisions)
        _, edge_rate, edge_busy, class_wait, wait_user = reference_loads(
            simulation, decisions, None
        )
        assert np.array_equal(loads.edge_busy, edge_busy)
        assert _pair_waits(loads) == class_wait
        assert np.array_equal(loads.slot_wait_ms[loads.deal.slot_of_user], wait_user)
        assert len(simulation._deals) <= DEAL_CACHE_SIZE


# ---------------------------------------------------------------------------
# Percentiles from (value, count) pairs
# ---------------------------------------------------------------------------

QS = (50, 95, 99)

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
samples = st.lists(
    st.tuples(finite_values, st.integers(min_value=1, max_value=40)), min_size=1, max_size=12
)


def _expanded(pairs, q, method):
    values = np.asarray([value for value, _ in pairs])
    counts = np.asarray([count for _, count in pairs])
    expected = float(np.percentile(np.repeat(values, counts), q, method=method))
    got = percentiles_from_counts(values, counts, (q,), method)[0]
    return got, expected


@settings(max_examples=150, deadline=None)
@given(pairs=samples, q=st.sampled_from(QS))
@example(pairs=[(5.0, 2), (1.0, 7), (3.0, 1), (1.0, 3)], q=95)
def test_linear_percentile_matches_numpy(pairs, q):
    got, expected = _expanded(pairs, q, "linear")
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.one_of(finite_values, st.just(math.inf)), st.integers(min_value=1, max_value=40)
        ),
        min_size=1,
        max_size=12,
    ),
    q=st.sampled_from(QS),
)
def test_lower_percentile_matches_numpy_with_infinities(pairs, q):
    got, expected = _expanded(pairs, q, "lower")
    assert got == expected


def test_random_samples_match_numpy_exactly():
    """Many awkward float draws: both lerp branches must round like NumPy's."""
    rng = np.random.default_rng(7)
    for _ in range(3000):
        size = int(rng.integers(1, 10))
        values = rng.uniform(0.0, 1000.0, size)
        if rng.random() < 0.2:
            values[rng.integers(0, size)] = math.inf
        counts = rng.integers(1, 30, size)
        expanded = np.repeat(values, counts)
        method = "linear" if np.isfinite(values).all() else "lower"
        got = percentiles_from_counts(values, counts, QS, method)
        assert got == tuple(float(np.percentile(expanded, q, method=method)) for q in QS)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_linear_with_infinities_matches_numpy():
    values = np.asarray([4.0, math.inf, 2.5])
    counts = np.asarray([3, 2, 1])
    expanded = np.repeat(values, counts)
    got = percentiles_from_counts(values, counts, QS, "linear")
    want = [float(np.percentile(expanded, q)) for q in QS]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("method", ["linear", "lower"])
def test_single_sample_percentiles(method):
    got = percentiles_from_counts(np.asarray([3.25]), np.asarray([1]), QS, method)
    assert got == (3.25, 3.25, 3.25)
