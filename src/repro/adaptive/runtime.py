"""The adaptive runtime: replay a condition trace, pick an operating point
per control epoch, and score the resulting QoE.

The loop is driven by the discrete-event clock of
:class:`repro.simulation.des.EventScheduler`: one event per control epoch
reads the epoch's :class:`~repro.adaptive.traces.EpochConditions`, asks the
controller for an operating point, and charges the point's per-frame
latency/energy/AoI under the *true* epoch conditions.

Candidate evaluation goes through the vectorized batch engine: a
:class:`ControlContext`'s candidates are compiled once into a
:class:`repro.batch.ConditionedPoints`, whose condition axes are exactly
the epoch's throughput and handoff probability, so an out-of-domain
candidate fails at construction.  A live sweep is one fused broadcast pass
over all candidates, and the pre-warm pass fills the per-epoch sweep cache
with **one** such pass over all ``epochs x candidates`` evaluations — after
which a full-grid controller like
:class:`~repro.adaptive.controllers.GreedyBatchSweep` costs an array argmin
per epoch.  Contexts over different candidate lists can share one compiled
set (see :class:`_CandidateBlocks`): the co-simulation gives every class
of a simulation the same set, so a condition key is evaluated once for all
of them.

Quality model
-------------
The paper's offloading motivation is accuracy: the edge runs a server-tier
CNN (YOLOv3) the headset cannot, and larger captured frames retain more
detail.  :func:`candidate_quality` scores an operating point with that
proxy — the task-share-weighted CNN tier, scaled by the capture resolution
relative to the CNN input size — so controllers can maximise inference
quality subject to the latency deadline.  It is a model-exogenous ranking
heuristic, not one of the paper's calibrated quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.adaptive.traces import ConditionTrace, EpochConditions
from repro.batch.engine import ConditionedPoints
from repro.batch.grid import OperatingPoint
from repro.cnn.zoo import get_cnn
from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.offloading import placement_candidates
from repro.exceptions import ConfigurationError
from repro.faults.report import FaultOutcome, fault_outcome
from repro.faults.schedule import EpochFaultState, FaultInjector, FaultSchedule
from repro.simulation.des import EventScheduler

#: Supported selection objectives (all are deadline-first; see
#: :meth:`ControlContext.select`).
OBJECTIVES = ("quality", "latency", "energy")

#: Quality weight of a CNN tier (Table II: server-class models detect what
#: the lightweight on-device models miss).
_TIER_QUALITY = {"server": 1.0, "lightweight": 0.55}


def candidate_quality(point: OperatingPoint) -> float:
    """Inference-quality proxy of one operating point, in (0, 1].

    The task-share-weighted quality of the CNNs involved (server tier
    weighs 1.0, lightweight 0.55), scaled by the captured frame side
    relative to the 640 px input of the server-tier detectors (capped at 1).
    """
    inference = point.app.inference
    total = inference.total_task
    remote_fraction = sum(inference.edge_shares) / total
    local_fraction = max(1.0 - remote_fraction, 0.0)
    cnn_quality = 0.0
    if remote_fraction > 0.0:
        cnn_quality += remote_fraction * _TIER_QUALITY.get(
            get_cnn(inference.remote_cnn).tier, 0.55
        )
    if local_fraction > 0.0:
        cnn_quality += local_fraction * _TIER_QUALITY.get(
            get_cnn(inference.local_cnn).tier, 0.55
        )
    side_factor = min(point.app.frame_side_px / 640.0, 1.0)
    return cnn_quality * side_factor


def default_candidates(
    device: str = "XR1",
    edge: str = "EDGE-AGX",
    app: Optional[ApplicationConfig] = None,
    network: Optional[NetworkConfig] = None,
    cpu_freqs_ghz: Sequence[float] = (1.0, 2.0, 3.0),
    frame_sides_px: Sequence[float] = (300.0, 500.0, 700.0),
    n_edge_servers: int = 1,
) -> Tuple[OperatingPoint, ...]:
    """The default candidate grid: clocks x frame sides x placements.

    Placements come from :func:`repro.core.offloading.placement_candidates`
    — the same local / remote / even-split derivation the
    :class:`~repro.core.offloading.OffloadingPlanner` ranks — so the
    adaptive layer and the static planner agree on what a "placement
    candidate" is.
    """
    app = app if app is not None else ApplicationConfig.object_detection_default()
    network = network if network is not None else NetworkConfig()
    points: List[OperatingPoint] = []
    for cpu_freq in cpu_freqs_ghz:
        for frame_side in frame_sides_px:
            base = replace(
                app, cpu_freq_ghz=float(cpu_freq), frame_side_px=float(frame_side)
            )
            for candidate in placement_candidates(base, n_edge_servers=n_edge_servers):
                points.append(
                    OperatingPoint(app=candidate, network=network, device=device, edge=edge)
                )
    return tuple(points)


@dataclass(frozen=True)
class CandidateEvaluation:
    """Per-candidate metric arrays under one set of epoch conditions."""

    latency_ms: np.ndarray
    energy_mj: np.ndarray
    min_roi: Optional[np.ndarray] = None


#: Sweep-memo key: the exact (throughput, handoff probability) pair.
_Key = Tuple[float, float]


class _CandidateBlocks:
    """Candidate blocks compiled into one set, with one sweep memo per block.

    A block is one candidate tuple.  All blocks are compiled together into a
    single :class:`~repro.batch.ConditionedPoints`, so :meth:`evaluate` is
    one pass over every block's candidates, and each block's memo receives
    its own columns of the result as basic-slice views.  Every evaluation
    writes every memo, so all memos always hold the same keys.  A point's
    row does not depend on the other points of the set (a segment a point
    does not bill adds ``+0.0``), so a block's slice equals, bit for bit,
    what a set compiled from that block alone returns.

    ``min_roi`` comes back only when every structure group of the fused set
    has AoI, so the blocks must agree on it: build them on one network.

    Args:
        blocks: the candidate tuples, one per block.
        coefficients / complexity_mode / include_aoi: forwarded to the
            compiled set.
    """

    def __init__(
        self,
        blocks: Sequence[Sequence[OperatingPoint]],
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
    ) -> None:
        self.blocks = tuple(tuple(block) for block in blocks)
        self._conditioned = ConditionedPoints(
            [point for block in self.blocks for point in block],
            coefficients=coefficients,
            complexity_mode=complexity_mode,
            include_aoi=include_aoi,
        )
        self._columns: List[slice] = []
        start = 0
        for block in self.blocks:
            self._columns.append(slice(start, start + len(block)))
            start += len(block)
        self.memos: List[Dict[_Key, CandidateEvaluation]] = [{} for _ in self.blocks]

    def evaluate(self, keys: Sequence[_Key]) -> None:
        """Evaluate every block under each condition key into every memo."""
        latency, energy, min_roi = self._conditioned.evaluate(
            [throughput for throughput, _ in keys], [handoff for _, handoff in keys]
        )
        for memo, columns in zip(self.memos, self._columns):
            for row, key in enumerate(keys):
                memo[key] = CandidateEvaluation(
                    latency_ms=latency[row, columns],
                    energy_mj=energy[row, columns],
                    min_roi=min_roi[row, columns] if min_roi is not None else None,
                )


@dataclass(frozen=True)
class EpochOutcome:
    """What the chosen operating point delivered during one epoch."""

    epoch: int
    time_ms: float
    index: int
    latency_ms: float
    energy_mj: float
    quality: float
    deadline_missed: bool
    min_roi: Optional[float] = None


class ControlContext:
    """Everything a controller may consult when deciding an epoch.

    The context owns the candidate set, the deadline, the quality scores
    and a memoized per-conditions sweep of the whole candidate list.  The
    sweeps go through one block of a compiled set
    (:class:`_CandidateBlocks`); a context built alone compiles a one-block
    set of its own.  Contexts handed blocks of one shared set share its
    evaluations: a condition key one of them sweeps or pre-warms is
    evaluated once, for every block, and is a memo hit for all of them
    afterwards.  A pre-warm pass (:meth:`prewarm`) fills the memo for every
    epoch of a trace with a single call over the trace's distinct
    conditions that are not memoized yet.

    Args:
        candidates: the operating points the controller chooses among.
        deadline_ms: per-frame end-to-end latency budget.
        objective: default selection objective of :meth:`select`.
        coefficients: regression coefficients shared by every evaluation.
        complexity_mode: CNN-complexity placement mode.
        include_aoi: evaluate the AoI model per point (enables the
            ``min_roi`` arrays and the report's AoI-violation rate).
        block: ``(compiled set, block index)`` to sweep through; the block
            must hold exactly ``candidates``, and the set's own
            coefficients, complexity mode and AoI switch apply.  None
            compiles a one-block set of the context's own.  The
            co-simulation passes one to share a set among its classes.
    """

    def __init__(
        self,
        candidates: Sequence[OperatingPoint],
        deadline_ms: float,
        objective: str = "quality",
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
        block: Optional[Tuple[_CandidateBlocks, int]] = None,
    ) -> None:
        if not candidates:
            raise ConfigurationError("the adaptive runtime needs at least one candidate")
        # Written so that NaN fails too.
        if not deadline_ms > 0.0:
            raise ConfigurationError(f"deadline must be > 0 ms, got {deadline_ms}")
        if objective not in OBJECTIVES:
            raise ConfigurationError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        self.candidates = tuple(candidates)
        self.deadline_ms = float(deadline_ms)
        self.objective = objective
        self.coefficients = coefficients if coefficients is not None else CoefficientSet.paper()
        self.quality = np.asarray([candidate_quality(p) for p in self.candidates])
        if block is None:
            shared = _CandidateBlocks(
                [self.candidates], self.coefficients, complexity_mode, include_aoi
            )
            block = (shared, 0)
        self._blocks, index = block
        if self._blocks.blocks[index] != self.candidates:
            raise ConfigurationError("a context's block must hold exactly its candidates")
        self._memo = self._blocks.memos[index]

    @property
    def n_candidates(self) -> int:
        """Number of operating points under control."""
        return len(self.candidates)

    @staticmethod
    def _key(conditions: EpochConditions) -> _Key:
        """Sweep-memo key: the *exact* (throughput, handoff) pair.

        Bundled trace generators quantize the handoff probability to the
        coarse 0.005 grid of :data:`repro.adaptive.traces
        .HANDOFF_PROBABILITY_STEP`.  The grid keeps bundled outputs stable;
        it no longer buys batching, since the handoff probability is a
        vectorized condition axis.  The key deliberately does **not**
        re-quantize: hand-built or co-sim-generated conditions that fall
        off that grid get their own memo entry instead of silently aliasing
        a neighbouring grid point's arrays.
        """
        return (float(conditions.throughput_mbps), float(conditions.handoff_probability))

    # -- evaluation ------------------------------------------------------------

    def sweep(self, conditions: EpochConditions) -> CandidateEvaluation:
        """Evaluate every candidate under the given conditions (memoized).

        Conditions that were never pre-warmed — e.g. hand-built
        :class:`EpochConditions` or co-sim-generated conditions whose
        handoff probability falls off the 0.005 trace grid — are evaluated
        live here rather than raising or reusing a nearby cached entry.
        """
        key = self._key(conditions)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._blocks.evaluate([key])
        return self._memo[key]

    def prewarm(self, trace: ConditionTrace) -> int:
        """Fill the sweep memo for every epoch of ``trace`` in one batch call.

        Returns the number of distinct condition keys this call evaluated.
        Epochs whose conditions were already memoized cost nothing, including
        those another context sharing this context's compiled set swept or
        pre-warmed: classes of a co-simulation that replay one trace pay for
        its keys once, in the first class's pre-warm, and the later ones
        return 0.
        """
        with telemetry.get().span(
            "adaptive.prewarm", epochs=trace.n_epochs, candidates=self.n_candidates
        ) as sp:
            distinct = self._prewarm(trace)
            sp.annotate(distinct_keys=distinct)
            return distinct

    def _prewarm(self, trace: ConditionTrace) -> int:
        fresh: Dict[_Key, None] = {}
        for epoch in trace:
            key = self._key(epoch)
            if key not in self._memo:
                fresh[key] = None
        if fresh:
            self._blocks.evaluate(list(fresh))
        return len(fresh)

    # -- selection --------------------------------------------------------------

    def select(
        self, evaluation: CandidateEvaluation, objective: Optional[str] = None
    ) -> int:
        """Deadline-first candidate selection.

        Among the candidates whose latency meets the deadline, pick by the
        objective — ``"quality"`` maximises :func:`candidate_quality` (ties
        broken by lower energy, then lower latency, then lower index),
        ``"energy"`` minimises energy, ``"latency"`` minimises latency.
        When *no* candidate meets the deadline, the least-bad (lowest
        latency) candidate is returned, so a selection-based controller
        never misses a deadline a static candidate would have met.
        """
        objective = objective if objective is not None else self.objective
        if objective not in OBJECTIVES:
            raise ConfigurationError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        latency = evaluation.latency_ms
        feasible = np.flatnonzero(latency <= self.deadline_ms)
        if feasible.size == 0:
            return int(np.argmin(latency))
        energy = evaluation.energy_mj[feasible]
        lat = latency[feasible]
        if objective == "latency":
            order = np.lexsort((feasible, energy, lat))
        elif objective == "energy":
            order = np.lexsort((feasible, lat, energy))
        else:
            order = np.lexsort((feasible, lat, energy, -self.quality[feasible]))
        return int(feasible[order[0]])


@dataclass(frozen=True)
class AdaptationReport:
    """QoE of one controller over one condition trace.

    All per-epoch series are stored as tuples, so two reports from
    identical (trace, controller, seed) runs compare equal bit-for-bit.

    Attributes:
        controller: controller name.
        trace_name: scenario the controller ran against.
        objective: selection objective of the run.
        n_epochs / epoch_ms / deadline_ms: run geometry.
        chosen_indices: candidate index picked each epoch.
        latency_ms / energy_mj / quality: per-epoch per-frame metrics of
            the chosen point under the true conditions.
        min_roi: per-epoch minimum sensor RoI (None when AoI was off).
        deadline_miss_rate: fraction of epochs above the deadline.
        p50/p95/p99_latency_ms: latency percentiles over epochs.
        mean_energy_mj: mean per-frame energy.
        total_energy_j: energy integrated over all frames of the trace.
        mean_quality: mean inference-quality proxy.
        aoi_violation_rate: fraction of epochs with min RoI < 1 (None when
            AoI was off).
        switch_count: number of epoch-to-epoch operating-point changes.
    """

    controller: str
    trace_name: str
    objective: str
    n_epochs: int
    epoch_ms: float
    deadline_ms: float
    chosen_indices: Tuple[int, ...]
    latency_ms: Tuple[float, ...]
    energy_mj: Tuple[float, ...]
    quality: Tuple[float, ...]
    min_roi: Optional[Tuple[float, ...]]
    deadline_miss_rate: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_energy_mj: float
    total_energy_j: float
    mean_quality: float
    aoi_violation_rate: Optional[float]
    switch_count: int

    def summary(self) -> str:
        """One-paragraph human-readable QoE summary."""
        aoi = (
            f", AoI violations {self.aoi_violation_rate * 100.0:.1f}%"
            if self.aoi_violation_rate is not None
            else ""
        )
        return (
            f"{self.controller} on {self.trace_name} ({self.n_epochs} epochs, "
            f"deadline {self.deadline_ms:.0f} ms): "
            f"miss rate {self.deadline_miss_rate * 100.0:.1f}%, "
            f"p95 {self.p95_latency_ms:.1f} ms, p99 {self.p99_latency_ms:.1f} ms, "
            f"quality {self.mean_quality:.3f}, "
            f"energy {self.total_energy_j:.1f} J{aoi}, "
            f"{self.switch_count} switches"
        )

    def to_dict(self) -> dict:
        """JSON-able form (used by ``faults run --json`` and replay tests)."""
        return {
            "controller": self.controller,
            "trace_name": self.trace_name,
            "objective": self.objective,
            "n_epochs": self.n_epochs,
            "epoch_ms": self.epoch_ms,
            "deadline_ms": self.deadline_ms,
            "chosen_indices": list(self.chosen_indices),
            "latency_ms": list(self.latency_ms),
            "energy_mj": list(self.energy_mj),
            "quality": list(self.quality),
            "min_roi": list(self.min_roi) if self.min_roi is not None else None,
            "deadline_miss_rate": self.deadline_miss_rate,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "p99_latency_ms": self.p99_latency_ms,
            "mean_energy_mj": self.mean_energy_mj,
            "total_energy_j": self.total_energy_j,
            "mean_quality": self.mean_quality,
            "aoi_violation_rate": self.aoi_violation_rate,
            "switch_count": self.switch_count,
        }


def build_adaptation_report(
    controller_name: str,
    trace: ConditionTrace,
    context: ControlContext,
    frames_per_epoch: np.ndarray,
    outcomes: Sequence[EpochOutcome],
) -> AdaptationReport:
    """Aggregate per-epoch outcomes into an :class:`AdaptationReport`.

    Shared by :meth:`AdaptiveRuntime.run` and the closed-loop co-simulation
    (:mod:`repro.cosim`), which is what lets a single-user co-sim report
    equal the single-user runtime's report field for field.
    """
    indices = np.asarray([o.index for o in outcomes], dtype=int)
    latency = np.asarray([o.latency_ms for o in outcomes])
    energy = np.asarray([o.energy_mj for o in outcomes])
    quality = np.asarray([o.quality for o in outcomes])
    missed = np.asarray([o.deadline_missed for o in outcomes])
    has_aoi = outcomes[0].min_roi is not None
    min_roi = np.asarray([o.min_roi for o in outcomes]) if has_aoi else None
    total_energy_j = float(np.sum(energy * frames_per_epoch[indices]) / 1e3)
    # Single-user epochs are always finite (the closed forms have no
    # queueing), but co-sim classes on a saturated edge report infinite
    # latencies; order statistics avoid the inf - inf = nan of linear
    # interpolation there, exactly like FleetReport.
    method = "linear" if np.isfinite(latency).all() else "lower"
    return AdaptationReport(
        controller=controller_name,
        trace_name=trace.name,
        objective=context.objective,
        n_epochs=trace.n_epochs,
        epoch_ms=trace.epoch_ms,
        deadline_ms=context.deadline_ms,
        chosen_indices=tuple(int(i) for i in indices),
        latency_ms=tuple(float(v) for v in latency),
        energy_mj=tuple(float(v) for v in energy),
        quality=tuple(float(v) for v in quality),
        min_roi=tuple(float(v) for v in min_roi) if min_roi is not None else None,
        deadline_miss_rate=float(np.mean(missed)),
        p50_latency_ms=float(np.percentile(latency, 50, method=method)),
        p95_latency_ms=float(np.percentile(latency, 95, method=method)),
        p99_latency_ms=float(np.percentile(latency, 99, method=method)),
        mean_energy_mj=float(np.mean(energy)),
        total_energy_j=total_energy_j,
        mean_quality=float(np.mean(quality)),
        aoi_violation_rate=(
            float(np.mean(min_roi < 1.0)) if min_roi is not None else None
        ),
        switch_count=int(np.count_nonzero(np.diff(indices))) if len(indices) > 1 else 0,
    )


def _fault_adjusted(
    evaluation: CandidateEvaluation,
    state: Optional[EpochFaultState],
    offload_fraction: np.ndarray,
) -> CandidateEvaluation:
    """Apply a single-edge fault state to a candidate evaluation.

    Link degradation is already folded into the epoch conditions before the
    sweep, so only the edge-compute faults act here: an outage makes every
    offloading candidate infeasible (infinite latency), while a brownout or
    straggler inflates latency by the service-scale factor weighted by the
    candidate's offloaded task share — a purely local candidate is untouched.
    The runtime has no queueing model, so the offloaded share is the proxy
    for how much of the end-to-end latency the edge contributes.
    """
    if state is None or not state.any_fault:
        return evaluation
    scale = state.service_scale(0)
    if scale == 1.0:
        return evaluation
    latency = evaluation.latency_ms
    if np.isinf(scale):
        latency = np.where(offload_fraction > 0.0, np.inf, latency)
    else:
        latency = latency * (1.0 + (scale - 1.0) * offload_fraction)
    return CandidateEvaluation(
        latency_ms=latency,
        energy_mj=evaluation.energy_mj,
        min_roi=evaluation.min_roi,
    )


class _FaultView:
    """A :class:`ControlContext` facade whose sweeps reflect a fault state.

    Controllers receive this view instead of the raw context when the
    runtime carries a fault schedule; every attribute delegates to the
    wrapped context, but :meth:`sweep` overlays the current epoch's fault
    state so deadline-aware controllers *see* the outage or brownout and can
    steer around it.  The underlying memo stays fault-free, so the same
    runtime can replay clean and faulted runs without cross-talk.
    """

    def __init__(self, context: ControlContext, offload_fraction: np.ndarray) -> None:
        self._context = context
        self._offload_fraction = offload_fraction
        self._state: Optional[EpochFaultState] = None

    def __getattr__(self, name: str):
        return getattr(self._context, name)

    def set_state(self, state: Optional[EpochFaultState]) -> None:
        self._state = state

    def sweep(self, conditions: EpochConditions) -> CandidateEvaluation:
        return _fault_adjusted(
            self._context.sweep(conditions), self._state, self._offload_fraction
        )


class AdaptiveRuntime:
    """Replay a condition trace against a controller and report the QoE.

    One runtime owns the trace, the candidate set and the (shared) sweep
    cache, so several controllers can be compared on identical conditions
    without re-evaluating anything::

        runtime = AdaptiveRuntime(trace=burst_trace(400))
        for controller in (GreedyBatchSweep(), HysteresisThreshold()):
            print(runtime.run(controller).summary())

    Args:
        trace: the condition timeline to replay.
        candidates: operating points under control; defaults to
            :func:`default_candidates` for ``device``/``edge``.
        device / edge / app / network: defaults for the candidate builder
            (ignored when ``candidates`` is given).
        deadline_ms: per-frame latency budget.
        objective: default selection objective.
        coefficients / complexity_mode: forwarded to the batch engine.
        include_aoi: evaluate AoI per point (adds the AoI-violation rate).
        prewarm: pre-fill the sweep cache for every trace epoch with one
            batched call (recommended; disable only to measure the
            per-epoch evaluation path).
        faults: optional deterministic fault schedule replayed alongside the
            trace.  The runtime models a single edge server (edge index 0):
            link degradation reshapes each faulted epoch's conditions,
            outages make offloading candidates infeasible, and brownouts or
            stragglers inflate their latency (see :func:`_fault_adjusted`).
    """

    def __init__(
        self,
        trace: ConditionTrace,
        candidates: Optional[Sequence[OperatingPoint]] = None,
        device: str = "XR1",
        edge: str = "EDGE-AGX",
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
        deadline_ms: float = 700.0,
        objective: str = "quality",
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
        prewarm: bool = True,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.trace = trace
        self.faults = faults
        self._injector = FaultInjector(faults, 1) if faults is not None else None
        if candidates is None:
            candidates = default_candidates(
                device=device, edge=edge, app=app, network=network
            )
        self.context = ControlContext(
            candidates=candidates,
            deadline_ms=deadline_ms,
            objective=objective,
            coefficients=coefficients,
            complexity_mode=complexity_mode,
            include_aoi=include_aoi,
        )
        self._frames_per_epoch = np.asarray(
            [trace.epoch_ms / p.app.frame_period_ms for p in self.context.candidates]
        )
        self._offload_fraction = np.asarray(
            [
                sum(p.app.inference.edge_shares) / p.app.inference.total_task
                for p in self.context.candidates
            ]
        )
        if prewarm:
            self.context.prewarm(trace)

    @property
    def candidates(self) -> Tuple[OperatingPoint, ...]:
        """The operating points under control."""
        return self.context.candidates

    # -- the control loop -------------------------------------------------------

    def run(self, controller) -> AdaptationReport:
        """Drive the controller over the trace on the DES clock."""
        registry = telemetry.get()
        with registry.span(
            "adaptive.run",
            epochs=self.trace.n_epochs,
            candidates=self.context.n_candidates,
        ):
            report = self._run_loop(controller)
        if registry.enabled:
            registry.add("adaptive.runs")
            registry.add("adaptive.epochs", report.n_epochs)
            registry.add("adaptive.switches", report.switch_count)
        return report

    def _run_loop(self, controller) -> AdaptationReport:
        trace = self.trace
        context = self.context
        registry = telemetry.get()
        view: Optional[_FaultView] = None
        if self._injector is not None:
            view = _FaultView(context, self._offload_fraction)
        ctx = view if view is not None else context
        controller.reset(ctx)
        outcomes: List[EpochOutcome] = []

        def step(scheduler: EventScheduler) -> None:
            epoch = len(outcomes)
            conditions = trace[epoch]
            if self._injector is not None:
                fault_state = self._injector.state(epoch)
                conditions = fault_state.apply_to_conditions(conditions)
                view.set_state(fault_state)
                if registry.enabled and fault_state.any_fault:
                    registry.add("faults.epochs_faulted")
            index = int(controller.decide(epoch, conditions, ctx))
            if not 0 <= index < context.n_candidates:
                raise ConfigurationError(
                    f"controller {controller.name!r} chose candidate {index}, "
                    f"but only {context.n_candidates} candidates exist"
                )
            evaluation = ctx.sweep(conditions)
            latency = float(evaluation.latency_ms[index])
            min_roi = (
                float(evaluation.min_roi[index])
                if evaluation.min_roi is not None
                else None
            )
            outcome = EpochOutcome(
                epoch=epoch,
                time_ms=scheduler.now_ms,
                index=index,
                latency_ms=latency,
                energy_mj=float(evaluation.energy_mj[index]),
                quality=float(context.quality[index]),
                deadline_missed=latency > context.deadline_ms,
                min_roi=min_roi,
            )
            controller.observe(epoch, conditions, outcome)
            outcomes.append(outcome)
            if epoch + 1 < trace.n_epochs:
                scheduler.schedule_in(trace.epoch_ms, step)

        scheduler = EventScheduler()
        scheduler.schedule_at(0.0, step)
        scheduler.run(max_events=trace.n_epochs + 1)
        return self._report(controller.name, outcomes)

    def _report(self, name: str, outcomes: List[EpochOutcome]) -> AdaptationReport:
        return build_adaptation_report(
            name, self.trace, self.context, self._frames_per_epoch, outcomes
        )

    def fault_report(self, report: AdaptationReport) -> Optional[FaultOutcome]:
        """Fault-recovery outcome of a run under this runtime's schedule.

        Rebuilds the per-epoch deadline-miss series from the report (every
        epoch's chosen latency against the run's deadline) and scores it
        against the attached :class:`FaultSchedule` — availability, miss rate
        inside vs. outside fault windows, and time-to-recover per window.
        Returns None when the runtime has no schedule.
        """
        if self.faults is None:
            return None
        miss = [
            1.0 if latency > report.deadline_ms else 0.0 for latency in report.latency_ms
        ]
        return fault_outcome(self.faults, 1, miss)

    # -- static references -------------------------------------------------------

    def static_latency_matrix(self) -> np.ndarray:
        """Per-epoch latency of every candidate, shape (n_epochs, n_candidates)."""
        rows = [self.context.sweep(epoch).latency_ms for epoch in self.trace]
        return np.vstack(rows)

    def static_deadline_miss_rates(self) -> np.ndarray:
        """Deadline-miss rate each candidate would incur if pinned for the trace."""
        matrix = self.static_latency_matrix()
        return np.mean(matrix > self.context.deadline_ms, axis=0)

    def best_static_index(self) -> int:
        """The static candidate with the lowest miss rate (ties: higher quality)."""
        rates = self.static_deadline_miss_rates()
        order = np.lexsort((np.arange(len(rates)), -self.context.quality, rates))
        return int(order[0])

    def static_report(self, index: Union[int, None] = None) -> AdaptationReport:
        """The report a pinned candidate would achieve (best static by default)."""
        from repro.adaptive.controllers import StaticBaseline

        if index is None:
            index = self.best_static_index()
        return self.run(StaticBaseline(index))
