"""The benchmark's workloads: inputs built from a seed, one run, output checks.

Each workload is built by :func:`build` from ``(name, seed, smoke)``.  Building
covers everything the benchmark counts as set-up (populations, traces,
controllers, the scenario suite); :meth:`Workload.run` is the timed part and
goes through ``repro``'s public API only.  ``smoke=True`` shrinks every size
so the benchmark's own tests can run each workload in a second or two.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    AdaptiveRuntime,
    EwmaPredictive,
    ExperimentRunner,
    GreedyBatchSweep,
    HysteresisThreshold,
    RunManifest,
    XRPerformanceModel,
    bundled_suite,
    compare_manifests,
    evaluate_points,
    make_trace,
    run_cosim,
)
from repro.adaptive import default_candidates
from repro.fleet import homogeneous, mixed_devices

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_MANIFEST = REPO_ROOT / "results" / "manifests" / "baseline.json"

#: Relative tolerance of the batch-vs-scalar agreement check.
SCALAR_RTOL = 1e-9
#: Conditioned candidates sampled per workload for that check.
SCALAR_SAMPLE = 12


def canonical(payload) -> str:
    """A byte-stable rendering of a report payload (NaN/inf safe)."""
    return json.dumps(payload, sort_keys=True)


def condition(point, conditions):
    """Apply one epoch's channel conditions to an operating point.

    The same substitution the adaptive layer makes before it evaluates a
    candidate: throughput and an enabled handoff at the epoch's probability.
    """
    network = point.network
    handoff = replace(
        network.handoff,
        enabled=True,
        handoff_probability=float(conditions.handoff_probability),
    )
    return replace(
        point,
        network=replace(
            network,
            throughput_mbps=float(conditions.throughput_mbps),
            handoff=handoff,
        ),
    )


@dataclass
class Workload:
    """One built workload.

    Attributes:
        run: the timed call; takes an optional backend name and returns the
            report object.
        payload: report -> JSON-able dict compared across passes.
        checks: report -> list of failed-check messages (empty when fine).
        scalar_points: conditioned candidates for the batch-vs-scalar check.
        backend: the execution backend the untraced run uses, if any.
    """

    run: Callable[[Optional[str]], object]
    payload: Callable[[object], dict]
    checks: Callable[[object], List[str]]
    scalar_points: Sequence
    backend: Optional[str] = None


# ---------------------------------------------------------------------------
# Checks shared by workloads
# ---------------------------------------------------------------------------


def _rate_ok(value: float) -> bool:
    return 0.0 <= value <= 1.0


def cosim_report_problems(report) -> List[str]:
    """Well-formedness of a (possibly sharded) cosim report."""
    problems: List[str] = []
    shards = getattr(report, "shards", None) or (report,)
    if not _rate_ok(report.deadline_miss_rate):
        problems.append(f"deadline_miss_rate {report.deadline_miss_rate} outside [0, 1]")
    if not _rate_ok(report.convergence_rate):
        problems.append(f"convergence_rate {report.convergence_rate} outside [0, 1]")
    for index, shard in enumerate(shards):
        n = shard.n_epochs
        for field in (
            "converged",
            "iterations",
            "offload_fraction",
            "miss_fraction",
            "p50_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "mean_latency_ms",
            "mean_quality",
            "max_edge_utilization",
        ):
            length = len(getattr(shard, field))
            if length != n:
                problems.append(f"shard {index}: {field} has {length} entries, not {n}")
        for field in ("offload_fraction", "miss_fraction", "user_miss_rate"):
            bad = [v for v in getattr(shard, field) if not _rate_ok(v)]
            if bad:
                problems.append(f"shard {index}: {field} has {len(bad)} values outside [0, 1]")
        if not _rate_ok(shard.deadline_miss_rate):
            problems.append(f"shard {index}: deadline_miss_rate outside [0, 1]")
    return problems


def scalar_problems(points: Sequence) -> List[str]:
    """Batch evaluation agrees with scalar ``analyze`` to :data:`SCALAR_RTOL`."""
    if not points:
        return []
    batch = evaluate_points(list(points), include_aoi=False)
    latency = batch.total_latency_ms
    energy = batch.total_energy_mj
    models: Dict[Tuple[str, str], XRPerformanceModel] = {}
    problems: List[str] = []
    for index, point in enumerate(points):
        key = (point.device, point.edge)
        model = models.get(key)
        if model is None:
            model = models[key] = XRPerformanceModel(device=point.device, edge=point.edge)
        report = model.analyze(point.app, point.network, include_aoi=False)
        for label, got, want in (
            ("latency", latency[index], report.total_latency_ms),
            ("energy", energy[index], report.total_energy_mj),
        ):
            if not math.isclose(float(got), float(want), rel_tol=SCALAR_RTOL, abs_tol=1e-12):
                problems.append(f"point {index}: batch {label} {got!r} != scalar {want!r}")
    return problems


def _sample_points(rng, candidates, traces, k: int) -> List:
    """``k`` candidates conditioned on randomly drawn epochs of ``traces``."""
    points = []
    for _ in range(k):
        trace = traces[int(rng.integers(0, len(traces)))]
        epoch = trace[int(rng.integers(0, trace.n_epochs))]
        point = candidates[int(rng.integers(0, len(candidates)))]
        points.append(condition(point, epoch))
    return points


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _to_dict(report) -> dict:
    return report.to_dict()


def _build_cosim_homog(seed: int, smoke: bool) -> Workload:
    users, epochs = (200, 40) if smoke else (10_000, 500)
    population = homogeneous(users, device="XR1")
    controller = GreedyBatchSweep()
    trace = make_trace("step", epochs, seed=11 + seed)
    kwargs = dict(edge="EDGE-AGX", n_edges=8, include_aoi=False)

    def run(backend: Optional[str] = None):
        return run_cosim(population, controller, trace, backend=backend, **kwargs)

    rng = np.random.default_rng(seed)
    candidates = default_candidates(device="XR1", edge="EDGE-AGX")
    return Workload(
        run=run,
        payload=_to_dict,
        checks=cosim_report_problems,
        scalar_points=_sample_points(rng, candidates, [trace], SCALAR_SAMPLE),
    )


def _build_cosim_mixed(seed: int, smoke: bool) -> Workload:
    # 50 epochs is one burst period, so every seed gets exactly 8 burst epochs.
    users, epochs = (60, 20) if smoke else (2400, 50)
    devices = ("XR1", "XR2", "XR6")
    population = mixed_devices(users, devices=devices)
    templates = (GreedyBatchSweep(), HysteresisThreshold(), EwmaPredictive(seed=seed))
    controller = {
        user.name: templates[(index // 3) % 3] for index, user in enumerate(population)
    }
    trace = make_trace("burst", epochs, seed=5 + seed)
    kwargs = dict(edge="EDGE-AGX", n_edges=4, include_aoi=False)

    def run(backend: Optional[str] = None):
        return run_cosim(
            population,
            controller,
            trace,
            n_shards=2,
            backend=backend or "process",
            **kwargs,
        )

    rng = np.random.default_rng(seed)
    candidates = [
        point for device in devices for point in default_candidates(device=device)
    ]
    return Workload(
        run=run,
        payload=_to_dict,
        checks=cosim_report_problems,
        scalar_points=_sample_points(rng, candidates, [trace], SCALAR_SAMPLE),
        backend="process",
    )


#: (trace, controller) of the four single-user adaptive runs.
ADAPT_RUNS = (
    ("drift", "greedy"),
    ("step", "hysteresis"),
    ("burst", "greedy"),
    ("mobility", "ewma"),
)


def _controller(name: str, seed: int):
    if name == "greedy":
        return GreedyBatchSweep()
    if name == "hysteresis":
        return HysteresisThreshold()
    return EwmaPredictive(seed=seed)


def _build_adapt(seed: int, smoke: bool) -> Workload:
    epochs = 60 if smoke else 1000
    traces = [make_trace(trace, epochs, seed=seed) for trace, _ in ADAPT_RUNS]
    controllers = [_controller(name, seed) for _, name in ADAPT_RUNS]

    def run(backend: Optional[str] = None):
        del backend
        results = []
        for trace, controller in zip(traces, controllers):
            runtime = AdaptiveRuntime(trace=trace)
            results.append((runtime, runtime.run(controller)))
        return results

    def payload(results) -> dict:
        return {"runs": [report.to_dict() for _, report in results]}

    def checks(results) -> List[str]:
        problems = []
        for (trace_name, name), (runtime, report) in zip(ADAPT_RUNS, results):
            if report.n_epochs != epochs or len(report.chosen_indices) != epochs:
                problems.append(f"{trace_name}/{name}: report covers {report.n_epochs} epochs")
            if not _rate_ok(report.deadline_miss_rate):
                problems.append(f"{trace_name}/{name}: miss rate outside [0, 1]")
            if name == "greedy":
                best_static = float(np.min(runtime.static_deadline_miss_rates()))
                if report.deadline_miss_rate > best_static:
                    problems.append(
                        f"{trace_name}/greedy: miss rate {report.deadline_miss_rate} "
                        f"exceeds the best static policy's {best_static}"
                    )
        return problems

    rng = np.random.default_rng(seed)
    candidates = default_candidates()
    return Workload(
        run=run,
        payload=payload,
        checks=checks,
        scalar_points=_sample_points(rng, candidates, traces, SCALAR_SAMPLE),
    )


def _build_suite(seed: int, smoke: bool) -> Workload:
    suite = bundled_suite()
    if smoke:
        # The three cheapest kinds plus the toy sharded cosim, so a smoke run
        # still exercises every layer including the exec fan-out.
        keep = [spec.name for spec in suite if spec.kind in ("analyze", "sweep", "fleet")]
        keep += [
            spec.name
            for spec in suite
            if spec.kind == "cosim" and int(spec.params.get("shards", 1)) > 1
        ]
        suite = suite.select(keep)
    runner = ExperimentRunner(suite, manifest_dir=None)

    def run(backend: Optional[str] = None):
        del backend
        return runner.run(write=False)

    def payload(manifest) -> dict:
        return manifest.metric_payload()

    def checks(manifest) -> List[str]:
        problems = [
            f"scenario {result.name}: status {result.status}"
            for result in manifest.scenarios
            if result.status != "ok"
        ]
        baseline = RunManifest.load(BASELINE_MANIFEST)
        if smoke:
            names = {result.name for result in manifest.scenarios}
            baseline = replace(
                baseline,
                scenarios=tuple(s for s in baseline.scenarios if s.name in names),
            )
        report = compare_manifests(manifest, baseline, ignore_spec_hash=smoke)
        if not report.passed:
            problems.append("compare_manifests against the committed baseline failed:")
            problems.append(report.summary())
        return problems

    # The bundled suite is pinned by the committed baseline, so the seed
    # only picks which conditioned candidates the scalar check samples.
    rng = np.random.default_rng(seed)
    candidates = default_candidates()
    traces = [make_trace(name, 200, seed=seed) for name in ("drift", "burst")]
    return Workload(
        run=run,
        payload=payload,
        checks=checks,
        scalar_points=_sample_points(rng, candidates, traces, SCALAR_SAMPLE),
    )


_BUILDERS = {
    "cosim_homog_10k": _build_cosim_homog,
    "cosim_mixed_sharded": _build_cosim_mixed,
    "adapt_prewarm_4x1k": _build_adapt,
    "suite_bundled": _build_suite,
}


#: Every workload :func:`build` knows.
NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Build workload ``name`` from benchmark seed ``seed``.

    Seed ``n`` adds ``n`` to the workload's base trace seed, so seed 0 gives
    the base inputs.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}") from None
    return builder(seed, smoke)
