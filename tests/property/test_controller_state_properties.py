"""Property tests for the controllers' ``state()`` / ``restore()`` contract.

The co-simulation re-runs ``decide`` from an epoch-start state value instead
of a deep copy of the controller.  For every controller, after ``reset`` and
a random prefix of ``decide`` / ``observe`` calls on random conditions:

* ``restore(state())`` is a no-op;
* after ``restore(s)``, ``decide`` repeats the same index and leaves an equal
  ``state()``;
* ``state()`` equals the ``state()`` of a ``copy.deepcopy`` of the
  controller — the object snapshot the engine used to take, kept here as the
  reference.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    ControlContext,
    EpochConditions,
    EpochOutcome,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
    default_candidates,
)

CONTROLLERS = {
    "static": lambda seed: StaticBaseline(2),
    "hysteresis": lambda seed: HysteresisThreshold(),
    "greedy": lambda seed: GreedyBatchSweep(),
    "ewma": lambda seed: EwmaPredictive(seed=seed),
}

conditions = st.builds(
    lambda throughput, handoff: EpochConditions(
        time_ms=0.0, throughput_mbps=throughput, handoff_probability=handoff
    ),
    st.floats(min_value=1.0, max_value=400.0),
    st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.5)),
)

#: One step of the prefix: decide under the conditions, then observe or not.
steps = st.lists(st.tuples(conditions, st.booleans()), max_size=12)


@pytest.fixture(scope="module")
def context() -> ControlContext:
    return ControlContext(
        candidates=default_candidates(), deadline_ms=700.0, include_aoi=False
    )


def _advance(controller, context, prefix) -> None:
    for epoch, (current, observe) in enumerate(prefix):
        index = controller.decide(epoch, current, context)
        if observe:
            evaluation = context.sweep(current)
            latency = float(evaluation.latency_ms[index])
            outcome = EpochOutcome(
                epoch=epoch,
                index=index,
                latency_ms=latency,
                energy_mj=float(evaluation.energy_mj[index]),
                quality=float(context.quality[index]),
                deadline_missed=latency > context.deadline_ms,
            )
            controller.observe(epoch, current, outcome)


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    prefix=steps,
    probe=conditions,
)
def test_state_round_trip(context, name, seed, prefix, probe):
    controller = CONTROLLERS[name](seed)
    controller.reset(context)
    _advance(controller, context, prefix)
    epoch = len(prefix)

    state = controller.state()
    reference = copy.deepcopy(controller)
    assert reference.state() == state

    controller.restore(state)
    assert controller.state() == state
    index = controller.decide(epoch, probe, context)
    after = controller.state()
    assert reference.decide(epoch, probe, context) == index
    assert reference.state() == after

    controller.restore(state)
    assert controller.state() == state
    assert controller.decide(epoch, probe, context) == index
    assert controller.state() == after

