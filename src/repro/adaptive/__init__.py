"""repro.adaptive — trace-driven runtime adaptation of XR operating points.

The analytical layers evaluate static operating points; this subsystem
closes the loop over time.  A :class:`ConditionTrace` replays time-varying
channel/load conditions (mobility handoffs, fading, fleet contention — or
synthetic drift/step/burst scenarios), a :class:`Controller` picks an
operating point (CPU clock, frame size, inference placement) each control
epoch, and the :class:`AdaptiveRuntime` drives the loop epoch by epoch,
charging every epoch the closed-form latency/energy/AoI of the chosen
point under the epoch's true conditions and aggregating the QoE into an
:class:`AdaptationReport`.

Quickstart::

    from repro.adaptive import AdaptiveRuntime, GreedyBatchSweep, burst_trace

    runtime = AdaptiveRuntime(trace=burst_trace(400, seed=7))
    report = runtime.run(GreedyBatchSweep())
    print(report.summary())
    print(runtime.static_report().summary())   # the best static reference
"""

from repro.adaptive.controllers import (
    CONTROLLERS,
    Controller,
    ControllerBase,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
)
from repro.adaptive.runtime import (
    AdaptationReport,
    AdaptiveRuntime,
    CandidateEvaluation,
    ControlContext,
    EpochOutcome,
    candidate_quality,
    default_candidates,
)
from repro.adaptive.traces import (
    ConditionTrace,
    EpochConditions,
    TRACE_GENERATORS,
    burst_trace,
    drift_trace,
    make_trace,
    mobility_fading_trace,
    step_trace,
)

__all__ = [
    "AdaptationReport",
    "AdaptiveRuntime",
    "CONTROLLERS",
    "CandidateEvaluation",
    "ConditionTrace",
    "ControlContext",
    "Controller",
    "ControllerBase",
    "EpochConditions",
    "EpochOutcome",
    "EwmaPredictive",
    "GreedyBatchSweep",
    "HysteresisThreshold",
    "StaticBaseline",
    "TRACE_GENERATORS",
    "burst_trace",
    "candidate_quality",
    "default_candidates",
    "drift_trace",
    "make_trace",
    "mobility_fading_trace",
    "step_trace",
]
