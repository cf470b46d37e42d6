"""Property: evaluating an epoch's predicted keys ahead changes no answer.

At the start of every epoch the co-simulation replays the previous epoch's
decision rounds on the new conditions and evaluates, in one batch, the keys
the swept rounds predict (``CoSimulation._prefetch``).  The rounds then
sweep as before, so a report must not depend on whether the batch ran: a
memo row holds the same bits whatever batch filled it.  The property runs
each drawn fleet twice, once with the prefetch replaced by a no-op, and
compares the reports and the memo rows both runs hold.

A fleet whose controllers never sweep the conditions they are handed (the
bundled ``cosim_burst_hysteresis`` scenario) predicts no key, so it
evaluates exactly what it evaluated before the prefetch existed.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExperimentRunner, bundled_suite, telemetry
from repro.adaptive import (
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
)
from repro.adaptive.traces import TRACE_GENERATORS
from repro.cosim import CoSimulation
from repro.faults import FaultEvent, FaultSchedule
from repro.fleet import FleetPopulation, UserProfile

N_EPOCHS = 12
KINDS = ("greedy", "hysteresis", "ewma", "static")


def _controller(kind, seed):
    if kind == "greedy":
        return GreedyBatchSweep()
    if kind == "hysteresis":
        return HysteresisThreshold()
    if kind == "ewma":
        return EwmaPredictive(seed=seed)
    return StaticBaseline(seed % 27)


def _faults(n_edges):
    """An outage, a brownout and a link degradation, in separate windows."""
    return FaultSchedule(
        name="outage-brownout-link",
        events=(
            FaultEvent(kind="edge_outage", start_epoch=2, duration_epochs=3, edge_index=0),
            FaultEvent(
                kind="edge_brownout",
                start_epoch=5,
                duration_epochs=3,
                edge_index=n_edges - 1,
                capacity_factor=0.4,
            ),
            FaultEvent(
                kind="link_degradation",
                start_epoch=8,
                duration_epochs=3,
                throughput_factor=0.5,
                handoff_boost=0.05,
            ),
        ),
    )


def _memo(simulation):
    return simulation._classes[0].context._memo


@settings(max_examples=40, deadline=None)
@given(
    n_users=st.integers(1, 16),
    devices=st.lists(st.sampled_from(["XR1", "XR2"]), min_size=1, max_size=2),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
    traces=st.lists(
        st.tuples(st.sampled_from(sorted(TRACE_GENERATORS)), st.integers(0, 2**16)),
        min_size=1,
        max_size=3,
    ),
    n_edges=st.integers(1, 3),
    faults=st.booleans(),
    max_iterations=st.sampled_from([2, 8]),
    seed=st.integers(0, 2**16),
)
def test_the_prefetch_changes_no_report(
    n_users, devices, kinds, traces, n_edges, faults, max_iterations, seed
):
    population = FleetPopulation(
        users=tuple(
            UserProfile(name=f"u{i}", device=devices[i % len(devices)])
            for i in range(n_users)
        )
    )
    templates = [_controller(kind, seed) for kind in kinds]
    condition_traces = [
        TRACE_GENERATORS[name](N_EPOCHS, seed=trace_seed) for name, trace_seed in traces
    ]
    names = [user.name for user in population]
    controllers = {name: templates[i % len(templates)] for i, name in enumerate(names)}
    user_traces = {
        name: condition_traces[i % len(condition_traces)] for i, name in enumerate(names)
    }

    def simulation():
        return CoSimulation(
            population,
            controllers,
            user_traces,
            n_edges=n_edges,
            include_aoi=False,
            max_iterations=max_iterations,
            faults=_faults(n_edges) if faults else None,
        )

    ahead = simulation()
    report = ahead.run()
    live = simulation()
    with mock.patch.object(CoSimulation, "_prefetch", lambda self, conditions_under: None):
        reference = live.run()

    assert report.to_dict() == reference.to_dict()
    memo, reference_memo = _memo(ahead), _memo(live)
    assert set(reference_memo) <= set(memo)
    for key, evaluation in reference_memo.items():
        assert np.array_equal(memo[key].latency_ms, evaluation.latency_ms)
        assert np.array_equal(memo[key].energy_mj, evaluation.energy_mj)


def _evaluations(scenario):
    """``batch.evaluate_conditions`` totals and counters of one bundled scenario."""
    runner = ExperimentRunner(bundled_suite().select([scenario]), manifest_dir=None)
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        runner.run(write=False)
    totals = {"count": 0, "conditions": 0}
    pending = [registry.snapshot()["spans"]]
    while pending:
        for name, node in pending.pop().items():
            if name == "batch.evaluate_conditions":
                totals["count"] += node["count"]
                totals["conditions"] += node["counters"]["conditions"]
            pending.append(node.get("children") or {})
    return totals, registry.counters


def test_a_fleet_that_never_sweeps_its_conditions_evaluates_nothing_ahead():
    # Hysteresis decides on thresholds and sweeps only at reset: one pre-warm
    # batch of the trace's 60 keys and the two rung-derivation keys.
    totals, counters = _evaluations("cosim_burst_hysteresis")
    assert totals == {"count": 3, "conditions": 62}
    assert "cosim.prefetch.keys" not in counters
    assert counters["cosim.best_response_iterations"] == 410
