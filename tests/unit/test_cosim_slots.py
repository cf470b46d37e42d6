"""Slot-level co-sim load math against plain per-user references.

The co-simulation computes edge loads and waits per (class, edge) slot of a
cached round-robin deal, and its latency percentiles from (value, count)
pairs.  These tests pin both to the straightforward per-user definitions:

* ``_loads`` equals a per-user loop — round robin over the alive edges in
  population order, sequential load accumulation, one tagged wait per
  offloading user — on edge rates, busy fractions, class waits and per-user
  waits, exactly, whether the loads are computed or read from a deal's
  loads table;
* ``percentiles_from_counts`` equals ``np.percentile`` over the expanded
  samples, exactly;
* the deal cache's and the loads tables' telemetry count one hit or miss
  per load computation;
* charging per group of users equals charging every user each epoch: a
  test-local copy of the per-user charging gives the same report, field for
  field.
"""

import copy
import math
from dataclasses import fields, replace
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.adaptive import (
    ConditionTrace,
    EpochConditions,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    step_trace,
)
from repro.adaptive.runtime import EpochOutcome, build_adaptation_report
from repro.adaptive.traces import TRACE_GENERATORS
from repro.cosim import CoSimulation, CosimReport
from repro.cosim.engine import DEAL_CACHE_SIZE, LOADS_TABLE_SIZE, percentiles_from_counts
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.report import fault_outcome
from repro.faults.schedule import EpochFaultState
from repro.fleet import FleetPopulation, UserProfile, homogeneous
from repro.fleet.results import percentile_method

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
    fault_states = _fault_states(rng, n_edges)
    vectors = [_decisions(rng, simulation) for _ in range(4 * len(fault_states))]
    # Every vector under every fault state, twice over.  A vector thus meets
    # fault states that leave the same edges alive at different service
    # scales, and each (vector, fault state) is looked up a second time
    # while its deal is still cached, so table hits are held to the
    # reference too.
    lookups = [(decisions, state) for decisions in vectors for state in fault_states * 2]
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        for decisions, fault_state in lookups:
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
            assert loads.decision_wait_ms == [
                simulation._decision_wait(cls_index, loads, fault_state)
                for cls_index in range(len(simulation._classes))
            ]
    assert registry.snapshot()["counters"]["cosim.loads_cache.hits"] >= len(lookups) // 2
    assert len(simulation._deals) <= DEAL_CACHE_SIZE
    assert all(len(table) <= LOADS_TABLE_SIZE for _, table in simulation._deals.values())


def test_deal_cache_is_bounded_and_stays_exact():
    rng = np.random.default_rng(99)
    population = homogeneous(12, device="XR1")
    controllers = {user.name: GreedyBatchSweep() for user in population}
    simulation = CoSimulation(population, controllers, _trace(), n_edges=3, include_aoi=False)
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


def test_deal_cache_counters_cover_every_load(monkeypatch):
    # A greedy fleet past cell capacity alternates between its two offloading
    # patterns (all local, all offloading) within an epoch.
    simulation = CoSimulation(
        homogeneous(16, device="XR1"),
        GreedyBatchSweep(),
        step_trace(12, seed=3),
        n_edges=1,
        include_aoi=False,
    )
    loads = simulation._loads
    calls = []

    def counting(*args):
        calls.append(args)
        return loads(*args)

    monkeypatch.setattr(simulation, "_loads", counting)
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        simulation.run()
    counters = registry.snapshot()["counters"]
    hits = counters.get("cosim.deal_cache.hits", 0)
    misses = counters.get("cosim.deal_cache.misses", 0)
    assert hits + misses == len(calls)
    # One class, no faults: at most one deal per offloading pattern.
    assert 1 <= misses <= 2
    assert hits > 0
    # The loads tables miss once per distinct (rate, service) vector, and
    # no deal or table is evicted at this size.
    keys = set()
    for decisions, *_ in calls:
        key = []
        for cls, decision in zip(simulation._classes, decisions):
            if decision is not None and cls.context.offload_mask[decision]:
                key.append((cls.arrival_per_ms[decision], cls.service_ms[decision]))
            else:
                key.append(None)
        keys.add(tuple(key))
    table_hits = counters.get("cosim.loads_cache.hits", 0)
    table_misses = counters.get("cosim.loads_cache.misses", 0)
    assert table_hits + table_misses == len(calls)
    assert table_misses == len(keys)


def test_cached_loads_are_read_only():
    simulation = CoSimulation(
        homogeneous(6, device="XR1"),
        GreedyBatchSweep(),
        _trace(),
        n_edges=2,
        include_aoi=False,
    )
    offload = int(np.flatnonzero(simulation._classes[0].context.offload_mask)[0])
    loads = simulation._loads([offload])
    assert simulation._loads([offload]) is loads
    deal = loads.deal
    shared = (loads.edge_rate, loads.edge_busy, loads.slot_wait_ms, deal.slot_class)
    shared += (deal.slot_of_user, deal.slot_count, deal.edge_classes[0][1])
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


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


# ---------------------------------------------------------------------------
# Charging per group of users against charging every user
# ---------------------------------------------------------------------------


#: The per-epoch series a co-simulation report carries.
SERIES = (
    "converged",
    "iterations",
    "offload_fraction",
    "miss_fraction",
    "p50",
    "p95",
    "p99",
    "mean_latency",
    "total_energy",
    "mean_energy",
    "mean_quality",
    "max_rho",
    "availability",
)


class PerUserCoSimulation(CoSimulation):
    """The co-simulation with per-user charging: every epoch gathers each
    user's latency, energy and miss from the slot values and adds them to
    per-user running totals, and every mean runs over per-user arrays.  The
    best-response solve is the engine's own."""

    def _run(self) -> CosimReport:
        classes = self._classes
        n_users = self._n_users
        n_epochs = classes[0].trace.n_epochs
        epoch_ms = classes[0].trace.epoch_ms
        for cls in classes:
            cls.controller = copy.deepcopy(cls.template)
            cls.context.decision_wait_ms = 0.0
            cls.controller.reset(cls.context)
            cls.outcomes = []
        self._prev_decisions = [None] * len(classes)
        user_miss = np.zeros(n_users)
        user_latency_sum = np.zeros(n_users)
        user_energy_j = np.zeros(n_users)
        series: Dict[str, list] = {name: [] for name in SERIES}
        sample_values: List[np.ndarray] = []
        sample_counts: List[np.ndarray] = []
        for epoch in range(n_epochs):
            self._charge_per_user(
                epoch,
                user_miss,
                user_latency_sum,
                user_energy_j,
                series,
                sample_values,
                sample_counts,
            )

        class_reports = []
        user_switches = np.zeros(n_users, dtype=int)
        for cls, user_array in zip(classes, self._user_arrays):
            report = build_adaptation_report(
                cls.controller.name, cls.trace, cls.context, cls.frames_per_epoch, cls.outcomes
            )
            class_reports.append(report)
            user_switches[user_array] = report.switch_count
        sample_latency = np.concatenate(sample_values)
        fleet_p50, fleet_p95, fleet_p99 = percentiles_from_counts(
            sample_latency,
            np.concatenate(sample_counts),
            (50, 95, 99),
            percentile_method(sample_latency),
        )
        return CosimReport(
            n_users=n_users,
            n_epochs=n_epochs,
            epoch_ms=epoch_ms,
            deadline_ms=self.deadline_ms,
            n_edges=self.n_edges,
            max_iterations=self.max_iterations,
            class_names=tuple(cls.name for cls in classes),
            class_sizes=tuple(cls.n_users for cls in classes),
            class_reports=tuple(class_reports),
            converged=tuple(series["converged"]),
            iterations=tuple(series["iterations"]),
            offload_fraction=tuple(series["offload_fraction"]),
            miss_fraction=tuple(series["miss_fraction"]),
            p50_latency_ms=tuple(series["p50"]),
            p95_latency_ms=tuple(series["p95"]),
            p99_latency_ms=tuple(series["p99"]),
            mean_latency_ms=tuple(series["mean_latency"]),
            total_energy_mj=tuple(series["total_energy"]),
            mean_energy_mj=tuple(series["mean_energy"]),
            mean_quality=tuple(series["mean_quality"]),
            max_edge_utilization=tuple(series["max_rho"]),
            user_names=tuple(user.name for user in self.population),
            user_miss_rate=tuple(float(v) for v in user_miss / n_epochs),
            user_mean_latency_ms=tuple(float(v) for v in user_latency_sum / n_epochs),
            user_energy_j=tuple(float(v) for v in user_energy_j),
            user_switch_count=tuple(int(v) for v in user_switches),
            deadline_miss_rate=float(np.sum(user_miss) / (n_users * n_epochs)),
            fleet_p50_latency_ms=fleet_p50,
            fleet_p95_latency_ms=fleet_p95,
            fleet_p99_latency_ms=fleet_p99,
            total_energy_j=float(np.sum(user_energy_j)),
            mean_quality_overall=float(np.mean(series["mean_quality"])),
            switch_count=int(np.sum(user_switches)),
            epoch_availability=tuple(series["availability"]),
            faults=fault_outcome(self.faults, self.n_edges, series["miss_fraction"]),
        )

    def _charge_per_user(
        self,
        epoch,
        user_miss,
        user_latency_sum,
        user_energy_j,
        series,
        sample_values,
        sample_counts,
    ):
        classes = self._classes
        fault_state = self._injector.state(epoch) if self._injector is not None else None
        decisions, loads, final_conditions, converged, iterations = self._solve(
            epoch, fault_state
        )
        n_classes = len(classes)
        latency_c = np.empty(n_classes)
        energy_c = np.empty(n_classes)
        quality_c = np.empty(n_classes)
        frames_c = np.empty(n_classes)
        roi_c = [None] * n_classes
        for cls_index, cls in enumerate(classes):
            cls.context.decision_wait_ms = 0.0
            evaluation = cls.context.sweep(final_conditions[cls_index])
            index = decisions[cls_index]
            latency_c[cls_index] = evaluation.latency_ms[index]
            energy_c[cls_index] = evaluation.energy_mj[index]
            quality_c[cls_index] = cls.context.quality[index]
            frames_c[cls_index] = cls.frames_per_epoch[index]
            if evaluation.min_roi is not None:
                roi_c[cls_index] = float(evaluation.min_roi[index])

        deal = loads.deal
        slot_class = deal.slot_class
        slot_wait = loads.slot_wait_ms
        slot_latency = latency_c[slot_class] + slot_wait
        wait_energy = np.where(
            np.isinf(slot_wait), 0.0, self.network.radio_idle_power_w * slot_wait
        )
        slot_energy = energy_c[slot_class] + wait_energy
        slot_of_user = deal.slot_of_user
        latency_user = slot_latency[slot_of_user]
        energy_user = slot_energy[slot_of_user]
        missed_user = latency_user > self.deadline_ms

        user_miss += missed_user
        user_latency_sum += latency_user
        user_energy_j += (slot_energy * frames_c[slot_class] / 1e3)[slot_of_user]

        percentiles = percentiles_from_counts(
            slot_latency, deal.slot_count, (50, 95, 99), percentile_method(slot_latency)
        )
        series["converged"].append(converged)
        series["iterations"].append(iterations)
        series["offload_fraction"].append(loads.n_offloaded / self._n_users)
        series["miss_fraction"].append(float(np.mean(missed_user)))
        for name, value in zip(("p50", "p95", "p99"), percentiles):
            series[name].append(value)
        series["mean_latency"].append(float(np.mean(latency_user)))
        series["total_energy"].append(float(np.sum(energy_user)))
        series["mean_energy"].append(float(np.mean(energy_user)))
        series["mean_quality"].append(float(np.mean(quality_c[self._class_of_user])))
        series["max_rho"].append(float(loads.edge_busy.max()))
        series["availability"].append(
            fault_state.availability if fault_state is not None else 1.0
        )
        sample_values.append(slot_latency)
        sample_counts.append(deal.slot_count)

        for cls_index, (cls, user_array) in enumerate(zip(classes, self._user_arrays)):
            mean_latency = float(np.mean(latency_user[user_array]))
            outcome = EpochOutcome(
                epoch=epoch,
                index=decisions[cls_index],
                latency_ms=mean_latency,
                energy_mj=float(np.mean(energy_user[user_array])),
                quality=float(quality_c[cls_index]),
                deadline_missed=mean_latency > self.deadline_ms,
                min_roi=roi_c[cls_index],
            )
            cls.controller.observe(epoch, final_conditions[cls_index], outcome)
            cls.outcomes.append(outcome)


def _grouped_and_per_user(population, controller, trace, **kwargs):
    """Both reports of one fleet, and the grouped run's ``cosim.user_groups``."""
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        grouped = CoSimulation(population, controller, trace, **kwargs).run()
    per_user = PerUserCoSimulation(population, controller, trace, **kwargs).run()
    for item in fields(CosimReport):
        assert getattr(grouped, item.name) == getattr(per_user, item.name), item.name
    return registry.snapshot()["counters"]["cosim.user_groups"]


def _drawn_fleet(rng: np.random.Generator):
    """A mixed-device fleet of drawn frame rates and 1-3 controller templates."""
    base = homogeneous(1).users[0].app
    apps = [replace(base, frame_rate_fps=fps) for fps in (10.0,) + FRAME_RATES_FPS]
    population = FleetPopulation(
        users=tuple(
            UserProfile(
                name=f"user-{index}",
                device=str(rng.choice(["XR1", "XR2", "XR6"])),
                app=apps[int(rng.integers(0, len(apps)))],
            )
            for index in range(int(rng.integers(2, 30)))
        )
    )
    makers = (GreedyBatchSweep, HysteresisThreshold, lambda: EwmaPredictive(seed=3))
    templates = [makers[int(rng.integers(0, 3))]() for _ in range(int(rng.integers(1, 4)))]
    controllers = {
        user.name: templates[int(rng.integers(0, len(templates)))] for user in population
    }
    return population, controllers


@pytest.mark.parametrize("seed", range(12))
def test_grouped_charging_equals_per_user_charging(seed):
    rng = np.random.default_rng(1000 + seed)
    population, controllers = _drawn_fleet(rng)
    trace_name = sorted(TRACE_GENERATORS)[seed % len(TRACE_GENERATORS)]
    trace = TRACE_GENERATORS[trace_name](16, seed=seed)
    _grouped_and_per_user(
        population, controllers, trace, n_edges=int(rng.integers(1, 6)), include_aoi=False
    )


def test_grouped_charging_follows_edges_that_die_and_revive():
    # Edges 0 and 2 die and come back at different epochs, so the charged
    # deal changes mid-run and a class's users move between edges.
    rng = np.random.default_rng(5)
    population, controllers = _drawn_fleet(rng)
    schedule = FaultSchedule(
        name="flapping",
        events=(
            FaultEvent(kind="edge_outage", start_epoch=3, duration_epochs=4, edge_index=0),
            FaultEvent(kind="edge_outage", start_epoch=5, duration_epochs=6, edge_index=2),
            FaultEvent(kind="edge_outage", start_epoch=12, duration_epochs=2),
        ),
    )
    n_groups = _grouped_and_per_user(
        homogeneous(5, device="XR1"),
        GreedyBatchSweep(),
        TRACE_GENERATORS["burst"](20, seed=1),
        n_edges=3,
        include_aoi=False,
        faults=schedule,
    )
    # Three edges deal the five offloaders into three groups; the outages
    # re-deal them and split every group down to one user.
    assert n_groups == 5
    _grouped_and_per_user(
        population,
        controllers,
        TRACE_GENERATORS["step"](20, seed=2),
        n_edges=3,
        include_aoi=False,
        faults=schedule,
    )


def test_grouped_charging_of_one_user():
    population = homogeneous(1, device="XR2")
    assert _grouped_and_per_user(
        population, HysteresisThreshold(), TRACE_GENERATORS["mobility"](20, seed=4)
    ) == 1


def test_grouped_charging_of_one_class():
    # One class on several edges: round robin splits it into one group per
    # edge once it offloads, and its epoch means are the fleet's.
    n_groups = _grouped_and_per_user(
        homogeneous(5, device="XR1"),
        GreedyBatchSweep(),
        TRACE_GENERATORS["step"](24, seed=0),
        n_edges=4,
        include_aoi=False,
    )
    assert n_groups == 4
