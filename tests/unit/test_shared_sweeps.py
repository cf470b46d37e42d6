"""One compiled candidate set per co-simulation, shared by every class.

The adaptive runtime's ``_CandidateBlocks`` compiles several candidate
blocks into one :class:`~repro.batch.ConditionedPoints` and keeps one sweep
memo per block; the co-simulation hands one such set to all of its classes.
These tests pin that a block's slice of the fused evaluation equals a set
compiled from the block alone, that the block memos stay in step, that a
co-simulation reports exactly what it reported with a private set per
class, and that it evaluates every condition key once, most of them ahead
in one batch per epoch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_batch_parity_property import (
    _candidates,
    candidate_devices,
    conditions_lists,
    cooperation_states,
)

from repro import telemetry
from repro.adaptive import (
    ConditionTrace,
    ControlContext,
    EpochConditions,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    burst_trace,
    default_candidates,
)
from repro.adaptive.runtime import _CandidateBlocks
from repro.batch import ConditionedPoints
from repro.cosim import CoSimulation
from repro.cosim import engine as cosim_engine
from repro.exceptions import ConfigurationError
from repro.faults import FaultEvent, FaultSchedule
from repro.fleet import mixed_devices

DEVICES = ("XR1", "XR2", "XR6")
_key = ControlContext._key


# ---------------------------------------------------------------------------
# The fused set against one set per block
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    devices=st.lists(candidate_devices, min_size=1, max_size=3),
    cooperation=st.lists(cooperation_states, min_size=3, max_size=3),
    path_loss=st.booleans(),
    sensors=st.booleans(),
    include_aoi=st.booleans(),
    pool=conditions_lists,
    steps=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.booleans()),
        min_size=1,
        max_size=8,
    ),
)
def test_block_slices_equal_private_sets(
    devices, cooperation, path_loss, sensors, include_aoi, pool, steps
):
    """Each block's memo rows equal its own compiled set's, bit for bit.

    Blocks of default candidates (cooperation off, present or billed; path
    loss on or off; with or without sensors) share one network, as the
    co-simulation's blocks do.  Steps sweep one condition or pre-warm a
    trace of the pool through a random block's context; after every step all
    block memos hold the same keys.
    """
    blocks = [
        _candidates(device, path_loss, coop, sensors)
        for device, coop in zip(devices, cooperation)
    ]
    shared = _CandidateBlocks(blocks, include_aoi=include_aoi)
    contexts = [
        ControlContext(block, deadline_ms=700.0, include_aoi=include_aoi, block=(shared, i))
        for i, block in enumerate(blocks)
    ]
    epochs = [
        EpochConditions(time_ms=100.0 * i, throughput_mbps=t, handoff_probability=h)
        for i, (t, h) in enumerate(pool)
    ]
    for block_pick, condition_pick, is_prewarm in steps:
        context = contexts[block_pick % len(contexts)]
        if is_prewarm:
            head = epochs[: condition_pick % len(epochs) + 1]
            trace = ConditionTrace(name="pool", epoch_ms=100.0, epochs=tuple(head))
            fresh = {_key(epoch) for epoch in head} - set(context._memo)
            assert context.prewarm(trace) == len(fresh)
        else:
            context.sweep(epochs[condition_pick % len(epochs)])
        keys = [set(memo) for memo in shared.memos]
        assert all(memo_keys == keys[0] for memo_keys in keys)

    keys = list(shared.memos[0])
    for block, memo in zip(blocks, shared.memos):
        latency, energy, min_roi = ConditionedPoints(block, include_aoi=include_aoi).evaluate(
            [t for t, _ in keys], [h for _, h in keys]
        )
        for row, key in enumerate(keys):
            assert np.array_equal(memo[key].latency_ms, latency[row])
            assert np.array_equal(memo[key].energy_mj, energy[row])
            if min_roi is None:
                assert memo[key].min_roi is None
            else:
                assert np.array_equal(memo[key].min_roi, min_roi[row])


def test_context_rejects_a_block_of_other_candidates():
    xr1, xr2 = default_candidates(device="XR1"), default_candidates(device="XR2")
    shared = _CandidateBlocks([xr1, xr2])
    ControlContext(xr2, deadline_ms=700.0, block=(shared, 1))
    with pytest.raises(ConfigurationError, match="exactly its candidates"):
        ControlContext(xr1, deadline_ms=700.0, block=(shared, 1))


# ---------------------------------------------------------------------------
# The engine against a private set per class
# ---------------------------------------------------------------------------


class _PrivateSet(cosim_engine.CosimControlContext):
    """A class context that compiles its own set, as every class did before."""

    def __init__(self, *args, block=None, **kwargs):
        del block
        super().__init__(*args, **kwargs)


def _faults():
    return FaultSchedule(
        name="dead-edge-and-brownout",
        events=(
            FaultEvent(kind="edge_outage", start_epoch=4, duration_epochs=5, edge_index=0),
            FaultEvent(
                kind="edge_brownout",
                start_epoch=12,
                duration_epochs=6,
                edge_index=1,
                capacity_factor=0.4,
            ),
        ),
    )


def _simulation(include_aoi=False, candidates=None, faults=None):
    """Three devices x {greedy, hysteresis, EWMA}: nine classes, one trace."""
    population = mixed_devices(18, devices=DEVICES)
    templates = (
        GreedyBatchSweep(),
        HysteresisThreshold(),
        EwmaPredictive(seed=11),
    )
    controller = {
        user.name: templates[(index // 3) % 3] for index, user in enumerate(population)
    }
    return CoSimulation(
        population,
        controller,
        burst_trace(30, seed=2),
        n_edges=2,
        include_aoi=include_aoi,
        candidates=candidates,
        faults=faults,
    )


class TestSharedSetInTheEngine:
    @pytest.mark.parametrize("include_aoi", [False, True], ids=["aoi-off", "aoi-on"])
    @pytest.mark.parametrize("explicit", [False, True], ids=["defaulted", "explicit"])
    def test_report_equals_private_sets_per_class(self, monkeypatch, include_aoi, explicit):
        candidates = default_candidates(device="XR2") if explicit else None
        shared = _simulation(include_aoi, candidates, _faults())
        report = shared.run()
        contexts = [cls.context for cls in shared._classes]
        assert len(contexts) == 9
        assert len({id(context._blocks) for context in contexts}) == 1
        assert len(contexts[0]._blocks.blocks) == (1 if explicit else 3)

        monkeypatch.setattr(cosim_engine, "CosimControlContext", _PrivateSet)
        private = _simulation(include_aoi, candidates, _faults())
        assert len({id(cls.context._blocks) for cls in private._classes}) == 9
        reference = private.run()

        assert report.to_dict() == reference.to_dict()
        # The fleet offloads, meets the faults, and carries AoI when asked.
        assert max(report.offload_fraction) > 0.0
        assert min(report.epoch_availability) < 1.0
        assert (report.class_reports[0].min_roi is not None) == include_aoi

    def test_each_condition_key_is_evaluated_once(self, monkeypatch):
        swept = set()
        sweep = cosim_engine.ControlContext.sweep

        def recording(context, conditions):
            swept.add(_key(conditions))
            return sweep(context, conditions)

        monkeypatch.setattr(cosim_engine.ControlContext, "sweep", recording)
        with telemetry.scoped(telemetry.Telemetry()) as registry:
            simulation = _simulation(faults=_faults())
            simulation.run()
        spans = registry.snapshot()["spans"]

        trace_keys = {_key(epoch) for epoch in simulation._classes[0].trace}
        live_keys = swept - trace_keys
        assert live_keys, "the fleet should sweep conditions off its trace"
        # Nine classes pre-warm one trace; the first pays for all of them.
        prewarm = _span_totals(spans, "adaptive.prewarm")
        assert prewarm["count"] == 9
        assert prewarm["distinct_keys"] == len(trace_keys)
        # No key is evaluated twice, and every key a class swept was evaluated.
        memo = simulation._classes[0].context._memo
        evaluations = _span_totals(spans, "batch.evaluate_conditions")
        assert evaluations["conditions"] == len(memo)
        assert trace_keys | swept <= set(memo)
        # One pre-warm batch, then per epoch one batch of the keys the previous
        # epoch's rounds predict, and one evaluation per key they missed: 44
        # calls where evaluating each live key on its own took 97.  Of the 90
        # keys evaluated ahead, 8 were never swept.
        assert len(live_keys) == 96
        assert evaluations["count"] == 44
        assert registry.counters["cosim.prefetch.keys"] == 90
        assert len(memo) - len(trace_keys | swept) == 8


def _span_totals(spans: dict, name: str) -> dict:
    """Sum the count and counters of every ``name`` span in a span tree."""
    totals = {"count": 0}
    for span_name, node in spans.items():
        if span_name == name:
            totals["count"] += node.get("count", 0)
            for counter, value in (node.get("counters") or {}).items():
                totals[counter] = totals.get(counter, 0) + value
        for counter, value in _span_totals(node.get("children") or {}, name).items():
            totals[counter] = totals.get(counter, 0) + value
    return totals
