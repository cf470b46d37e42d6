"""Scenario execution and run manifests.

:class:`ExperimentRunner` dispatches every :class:`~repro.experiments.spec
.ScenarioSpec` of a suite to the matching subsystem facade —
:meth:`repro.core.framework.XRPerformanceModel.analyze` / ``sweep_batch``,
:class:`repro.fleet.FleetAnalyzer` (+ ``plan_capacity``),
:class:`repro.adaptive.AdaptiveRuntime` and :func:`repro.cosim.run_cosim` —
and collects each scenario's scalar metrics into a :class:`RunManifest`.
The per-kind construction (:func:`fleet_report`, :func:`adaptive_runtime`,
:func:`cosim_report`) is also what the CLI's workload subcommands call, so
a command line and the scenario it maps to build the same workload.

Scenarios are independent, so the runner can fan them out on a process pool;
a deterministic serial path produces bit-identical metric payloads and is
used both as the default and as the fallback when a pool cannot be created
(sandboxed interpreters, unpicklable payloads, killed workers).  Manifests
are JSON documents under ``results/manifests/`` carrying the suite's spec
hash, the repro version and git SHA, per-scenario metrics/tolerances and
wall times — everything :mod:`repro.experiments.regression` needs to gate a
fresh run against a committed baseline.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro._version import __version__
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.spec import ScenarioSpec, ScenarioSuite
from repro.schema import check_schema

#: Manifest schema version ("MAJOR.MINOR": bump the major when the JSON
#: layout changes shape, the minor when fields are added).  Loading accepts
#: any 1.x manifest — older minors (including the legacy bare ``1``) load
#: silently, newer minors and unknown top-level keys degrade with a single
#: warning — see :func:`repro.schema.check_schema`.
MANIFEST_SCHEMA_VERSION = "1.1"

#: Top-level manifest keys this reader understands; anything else is
#: ignored with a warning instead of breaking consumers silently.
_MANIFEST_KEYS = (
    "suite",
    "spec_hash",
    "repro_version",
    "git_sha",
    "total_wall_time_s",
    "scenarios",
    "telemetry",
)

#: Default directory run manifests are written to.
DEFAULT_MANIFEST_DIR = Path("results") / "manifests"

#: Manifest keys that vary between otherwise-identical runs.  Regression
#: comparisons and determinism tests ignore exactly these.
WALL_TIME_FIELDS = ("wall_time_s", "total_wall_time_s")

#: Default relative tolerance for ``expected`` metric checks; individual
#: metrics override it via ``ScenarioSpec.tolerances``.
DEFAULT_EXPECTED_RTOL = 1e-6


def git_sha(cwd: Union[str, Path, None] = None) -> Optional[str]:
    """The commit SHA of the checkout at ``cwd``, or None outside a git repository.

    ``cwd`` defaults to this package's own directory, so a run is attributed
    to the code that ran it, wherever the process was started from.
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parents[1]
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=10.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def metrics_close(current: float, reference: float, rtol: float, atol: float = 1e-12) -> bool:
    """NaN/inf-aware closeness: ``|c - r| <= atol + rtol * |r|``.

    Two NaNs compare equal (a NaN metric that *stays* NaN is not drift);
    matching infinities compare equal; any other NaN/inf mismatch fails.
    """
    if math.isnan(current) and math.isnan(reference):
        return True
    if math.isnan(current) or math.isnan(reference):
        return False
    if math.isinf(current) or math.isinf(reference):
        return current == reference
    return abs(current - reference) <= atol + rtol * abs(reference)


# ---------------------------------------------------------------------------
# Per-kind dispatch
# ---------------------------------------------------------------------------


def _analyze_metrics(spec: ScenarioSpec) -> Dict[str, object]:
    from repro.core.framework import XRPerformanceModel

    app = spec.build_app()
    network = spec.build_network()
    model = XRPerformanceModel(device=spec.device, edge=spec.edge, app=app, network=network)
    include_aoi = bool(spec.params.get("include_aoi", False))
    report = model.analyze(include_aoi=include_aoi)
    metrics: Dict[str, object] = {
        "total_latency_ms": float(report.total_latency_ms),
        "total_energy_mj": float(report.total_energy_mj),
    }
    if report.aoi is not None:
        metrics["max_average_aoi_ms"] = float(max(report.aoi.average_aoi_ms.values()))
        metrics["min_roi"] = float(min(report.aoi.roi.values()))
    return metrics


def _sweep_metrics(spec: ScenarioSpec) -> Dict[str, object]:
    import numpy as np

    from repro.config.workload import SweepConfig
    from repro.core.framework import XRPerformanceModel

    default_sweep = SweepConfig.paper_default()
    frame_sides = tuple(spec.params.get("frame_sides_px", default_sweep.frame_sides_px))
    cpu_freqs = tuple(spec.params.get("cpu_freqs_ghz", default_sweep.cpu_freqs_ghz))
    model = XRPerformanceModel(
        device=spec.device,
        edge=spec.edge,
        app=spec.build_app(),
        network=spec.build_network(),
    )
    batch = model.sweep_batch(frame_sides, cpu_freqs)
    latency = np.asarray(batch.total_latency_ms)
    energy = np.asarray(batch.total_energy_mj)
    return {
        "n_points": int(batch.n_points),
        "mean_latency_ms": float(latency.mean()),
        "min_latency_ms": float(latency.min()),
        "max_latency_ms": float(latency.max()),
        "mean_energy_mj": float(energy.mean()),
        "max_energy_mj": float(energy.max()),
    }


def fault_epoch(spec: ScenarioSpec, schedule) -> int:
    """The epoch a ``fleet`` scenario samples its fault schedule at.

    A fleet analysis is a steady-state snapshot, so the schedule is sampled
    at one epoch: ``fault_epoch`` if given, else the first epoch any event
    is active.
    """
    return int(spec.params.get("fault_epoch", min(e.start_epoch for e in schedule.events)))


def fleet_report(spec: ScenarioSpec):
    """Analyze a ``fleet`` scenario.

    Returns ``(FleetReport, CapacityPlan or None)``; the plan is computed
    only when ``plan_capacity`` is set.
    """
    from repro.fleet import (
        ADMISSION_POLICIES,
        FleetAnalyzer,
        homogeneous,
        mixed_devices,
        plan_capacity,
    )

    params = spec.params
    users = int(params.get("users", 64))
    slo_ms = float(params.get("slo_ms", 800.0))
    n_edges = int(params.get("n_edges", 1))
    app = spec.build_app()
    network = spec.build_network()
    if "mixed_devices" in params:
        population = mixed_devices(users, devices=tuple(params["mixed_devices"]), app=app)
    else:
        population = homogeneous(users, device=spec.device, app=app)
    policy = ADMISSION_POLICIES[params.get("policy", "greedy")](slo_ms)
    fault_state = None
    schedule = spec.build_faults()
    if schedule is not None:
        fault_state = schedule.state_at(fault_epoch(spec, schedule), n_edges)
    report = FleetAnalyzer(
        population,
        edge=spec.edge,
        n_edges=n_edges,
        network=network,
        policy=policy,
        slo_ms=slo_ms,
        include_aoi=bool(params.get("include_aoi", False)),
        fault_state=fault_state,
    ).analyze()
    plan = None
    if params.get("plan_capacity", False):
        plan = plan_capacity(
            device=spec.device,
            edge=spec.edge,
            slo_ms=slo_ms,
            app=app,
            network=network,
            n_edges=n_edges,
        )
    return report, plan


def _fleet_metrics(spec: ScenarioSpec) -> Dict[str, object]:
    report, plan = fleet_report(spec)
    metrics: Dict[str, object] = {
        "n_users": int(report.n_users),
        "p50_latency_ms": float(report.p50_latency_ms),
        "p95_latency_ms": float(report.p95_latency_ms),
        "p99_latency_ms": float(report.p99_latency_ms),
        "mean_latency_ms": float(report.mean_latency_ms),
        "total_energy_mj": float(report.total_energy_mj),
        "slo_violations": int(report.slo_violations),
        "max_edge_utilization": float(max(report.edge_utilizations, default=0.0)),
    }
    if spec.faults:
        metrics["availability"] = float(report.availability)
        metrics["n_edges_alive"] = int(report.n_edges_alive)
        metrics["fault_forced_local"] = int(report.fault_forced_local)
    if plan is not None:
        metrics["capacity_max_users"] = int(plan.max_users)
        metrics["capacity_p95_ms"] = (
            float(plan.p95_at_capacity_ms) if plan.p95_at_capacity_ms is not None else None
        )
    return metrics


def _trace(spec: ScenarioSpec, default_epochs: int):
    from repro.adaptive import make_trace

    params = spec.params
    return make_trace(
        params.get("trace", "burst"),
        int(params.get("epochs", default_epochs)),
        epoch_ms=float(params.get("epoch_ms", 100.0)),
        seed=spec.seed,
    )


def adaptive_runtime(spec: ScenarioSpec):
    """The :class:`~repro.adaptive.AdaptiveRuntime` of an ``adapt`` scenario.

    The runtime is built (and its sweep cache prewarmed) but no controller
    has run; ``controller`` is read by the caller.
    """
    from repro.adaptive import AdaptiveRuntime

    params = spec.params
    return AdaptiveRuntime(
        trace=_trace(spec, 200),
        device=spec.device,
        edge=spec.edge,
        app=spec.build_app(),
        network=spec.build_network(),
        deadline_ms=float(params.get("deadline_ms", 700.0)),
        objective=params.get("objective", "quality"),
        include_aoi=bool(params.get("include_aoi", False)),
        faults=spec.build_faults(),
    )


def _adapt_metrics(spec: ScenarioSpec) -> Dict[str, object]:
    from repro.adaptive import CONTROLLERS

    runtime = adaptive_runtime(spec)
    controller_name = spec.params.get("controller", "greedy")
    if controller_name == "static":
        report = static = runtime.static_report()
    else:
        report = runtime.run(CONTROLLERS[controller_name]())
        static = runtime.static_report()
    metrics: Dict[str, object] = {
        "n_epochs": int(report.n_epochs),
        "deadline_miss_rate": float(report.deadline_miss_rate),
        "p50_latency_ms": float(report.p50_latency_ms),
        "p95_latency_ms": float(report.p95_latency_ms),
        "p99_latency_ms": float(report.p99_latency_ms),
        "mean_quality": float(report.mean_quality),
        "total_energy_j": float(report.total_energy_j),
        "switch_count": int(report.switch_count),
        "static_deadline_miss_rate": float(static.deadline_miss_rate),
    }
    if report.aoi_violation_rate is not None:
        metrics["aoi_violation_rate"] = float(report.aoi_violation_rate)
    outcome = runtime.fault_report(report)
    if outcome is not None:
        metrics["availability"] = float(outcome.availability)
        metrics["fault_miss_rate"] = float(outcome.fault_miss_rate)
        metrics["fault_epoch_fraction"] = float(outcome.fault_epoch_fraction)
        metrics["mean_time_to_recover_epochs"] = float(outcome.mean_time_to_recover_epochs)
    return metrics


def cosim_report(spec: ScenarioSpec, backend: Optional[str] = None):
    """Run a ``cosim`` scenario through :func:`repro.cosim.run_cosim`.

    ``backend`` names the execution backend of a sharded run (see
    :func:`repro.exec.resolve_backend`); it is not part of the workload.
    """
    from repro.adaptive import CONTROLLERS
    from repro.cosim import run_cosim
    from repro.fleet import homogeneous

    params = spec.params
    return run_cosim(
        homogeneous(int(params.get("users", 64)), device=spec.device, app=spec.build_app()),
        CONTROLLERS[params.get("controller", "hysteresis")](),
        _trace(spec, 100),
        n_shards=int(params.get("shards", 1)),
        backend=backend,
        edge=spec.edge,
        n_edges=int(params.get("n_edges", 1)),
        network=spec.build_network(),
        deadline_ms=float(params.get("deadline_ms", 700.0)),
        objective=params.get("objective", "quality"),
        include_aoi=bool(params.get("include_aoi", False)),
        max_iterations=int(params.get("max_iterations", 8)),
        faults=spec.build_faults(),
    )


def _cosim_metrics(spec: ScenarioSpec) -> Dict[str, object]:
    report = cosim_report(spec)
    metrics: Dict[str, object] = {
        "n_users": int(report.n_users),
        "deadline_miss_rate": float(report.deadline_miss_rate),
        "fleet_p50_latency_ms": float(report.fleet_p50_latency_ms),
        "fleet_p95_latency_ms": float(report.fleet_p95_latency_ms),
        "fleet_p99_latency_ms": float(report.fleet_p99_latency_ms),
        "total_energy_j": float(report.total_energy_j),
        "switch_count": int(report.switch_count),
        "convergence_rate": float(report.convergence_rate),
    }
    # Sharded merges expose a reduced surface; record the closed-loop
    # diagnostics whenever the report carries them.
    for name in ("mean_offload_fraction", "mean_quality_overall", "n_unconverged_epochs"):
        value = getattr(report, name, None)
        if value is not None:
            metrics[name] = float(value) if name != "n_unconverged_epochs" else int(value)
    if spec.faults:
        # Both report shapes carry the fault surface (the sharded merge
        # aggregates it user-weighted across shards).
        metrics["availability"] = float(report.availability)
        metrics["fault_miss_rate"] = float(report.fault_miss_rate)
        metrics["fault_epoch_fraction"] = float(report.fault_epoch_fraction)
        metrics["mean_time_to_recover_epochs"] = float(report.mean_time_to_recover_epochs)
    return metrics


_DISPATCH = {
    "analyze": _analyze_metrics,
    "sweep": _sweep_metrics,
    "fleet": _fleet_metrics,
    "adapt": _adapt_metrics,
    "cosim": _cosim_metrics,
}


# ---------------------------------------------------------------------------
# Results and manifests
# ---------------------------------------------------------------------------


@dataclass
class ScenarioResult:
    """Outcome of one scenario run.

    ``status`` is ``"ok"``, ``"check-failed"`` (an ``expected`` metric
    drifted) or ``"error"`` (the subsystem raised); ``checks`` lists every
    failed expectation and ``error`` carries the exception text.
    """

    name: str
    kind: str
    status: str
    metrics: Dict[str, object] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)
    checks: Tuple[str, ...] = ()
    error: Optional[str] = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "metrics": dict(self.metrics),
            "tolerances": dict(self.tolerances),
            "checks": list(self.checks),
            "error": self.error,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioResult":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            status=payload["status"],
            metrics=dict(payload.get("metrics", {})),
            tolerances=dict(payload.get("tolerances", {})),
            checks=tuple(payload.get("checks", ())),
            error=payload.get("error"),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
        )


@dataclass
class RunManifest:
    """The attributable record of one suite run.

    Two serial runs of the same suite at the same commit produce manifests
    that are identical except for the fields named in
    :data:`WALL_TIME_FIELDS` (compare with :meth:`metric_payload`).
    """

    suite: str
    spec_hash: str
    scenarios: Tuple[ScenarioResult, ...]
    repro_version: str = __version__
    git_sha: Optional[str] = None
    schema_version: Union[int, str] = MANIFEST_SCHEMA_VERSION
    total_wall_time_s: float = 0.0
    #: Telemetry snapshot of the run (present only when the run was
    #: telemetry-enabled).  Stripped by :meth:`metric_payload` exactly like
    #: the wall-time fields, so enabling telemetry never perturbs the
    #: deterministic payload.
    telemetry: Optional[dict] = None

    @property
    def passed(self) -> bool:
        """Whether every scenario ran and met its ``expected`` metrics."""
        return all(result.status == "ok" for result in self.scenarios)

    def result_for(self, name: str) -> Optional[ScenarioResult]:
        for result in self.scenarios:
            if result.name == name:
                return result
        return None

    def to_dict(self) -> dict:
        payload = {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "spec_hash": self.spec_hash,
            "repro_version": self.repro_version,
            "git_sha": self.git_sha,
            "total_wall_time_s": self.total_wall_time_s,
            "scenarios": [result.to_dict() for result in self.scenarios],
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        check_schema(
            payload,
            current=MANIFEST_SCHEMA_VERSION,
            known_keys=_MANIFEST_KEYS,
            consumer="run manifest",
            error=ConfigurationError,
        )
        return cls(
            suite=payload["suite"],
            spec_hash=payload["spec_hash"],
            scenarios=tuple(
                ScenarioResult.from_dict(entry) for entry in payload.get("scenarios", ())
            ),
            repro_version=payload.get("repro_version", ""),
            git_sha=payload.get("git_sha"),
            schema_version=payload["schema_version"],
            total_wall_time_s=float(payload.get("total_wall_time_s", 0.0)),
            telemetry=payload.get("telemetry"),
        )

    def metric_payload(self) -> dict:
        """The manifest dict with every wall-time field removed.

        This is the deterministic payload: the determinism tests and the
        regression gate compare exactly this.
        """
        payload = self.to_dict()
        payload.pop("total_wall_time_s", None)
        payload.pop("telemetry", None)
        for scenario in payload["scenarios"]:
            scenario.pop("wall_time_s", None)
        return payload

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"manifest {str(path)!r} does not exist")
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario and fold its ``expected`` checks into the status."""
    registry = telemetry.get()
    with registry.span(f"experiments.scenario.{spec.name}") as sp:
        result = _run_scenario(spec)
    result.wall_time_s = sp.elapsed_s
    if registry.enabled:
        registry.add("experiments.scenarios")
        registry.add(f"experiments.scenarios_{result.status.replace('-', '_')}")
    return result


def _run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    try:
        metrics = _DISPATCH[spec.kind](spec)
    except ReproError as exc:
        return ScenarioResult(
            name=spec.name,
            kind=spec.kind,
            status="error",
            tolerances=dict(spec.tolerances),
            error=f"{type(exc).__name__}: {exc}",
        )
    checks: List[str] = []
    for metric, expected in sorted(spec.expected.items()):
        rtol = spec.tolerances.get(metric, DEFAULT_EXPECTED_RTOL)
        current = metrics.get(metric)
        if not isinstance(current, (int, float)):
            checks.append(f"{metric}: expected {expected!r} but the run produced no value")
        elif not metrics_close(float(current), expected, rtol):
            checks.append(
                f"{metric}: expected {expected!r} within rtol {rtol!r}, got {current!r}"
            )
    return ScenarioResult(
        name=spec.name,
        kind=spec.kind,
        status="check-failed" if checks else "ok",
        metrics=metrics,
        tolerances=dict(spec.tolerances),
        checks=tuple(checks),
    )


def _run_scenario_captured(payload: Tuple[ScenarioSpec, bool]):
    """Pool-worker entry point: optionally capture the worker's telemetry.

    Mirrors ``repro.cosim.engine._run_shard``: with ``capture`` the scenario
    records into a fresh registry (restored afterwards) whether it runs in a
    worker or in-process during the serial fallback, so the parent-side
    merged snapshot is identical either way.
    """
    spec, capture = payload
    if not capture:
        return run_scenario(spec), None
    with telemetry.scoped(telemetry.Telemetry()) as registry:
        result = run_scenario(spec)
    return result, registry.snapshot()


class ExperimentRunner:
    """Run a :class:`ScenarioSuite` and emit a :class:`RunManifest`.

    Args:
        suite: the suite to run.
        manifest_dir: where :meth:`run` writes the manifest (None disables
            writing; ``results/manifests/`` by default).
    """

    def __init__(
        self,
        suite: ScenarioSuite,
        manifest_dir: Union[str, Path, None] = DEFAULT_MANIFEST_DIR,
    ) -> None:
        self.suite = suite
        self.manifest_dir = Path(manifest_dir) if manifest_dir is not None else None

    def manifest_path(self) -> Optional[Path]:
        """Default output path: ``<manifest_dir>/<suite>.json``."""
        if self.manifest_dir is None:
            return None
        return self.manifest_dir / f"{self.suite.name}.json"

    def run(
        self,
        select: Optional[Sequence[str]] = None,
        processes: int = 0,
        write: bool = True,
        task_timeout_s: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> RunManifest:
        """Run the (sub-)suite and return its manifest.

        Args:
            select: scenario names to run (default: the whole suite).  The
                spec hash always covers the scenarios actually run, so a
                selected manifest never silently gates against a full
                baseline.
            processes: pool width; 0/1 runs serially in-process.  The
                serial path is the reference: pooled runs produce the same
                metric payload, and scenarios whose worker crashes, hangs
                past ``task_timeout_s`` or cannot be pickled are re-run
                serially (see :class:`repro.exec.ExecutionBackend`).
            write: write the manifest to :meth:`manifest_path`.
            task_timeout_s: per-scenario wall-clock budget for pooled runs
                (default: the ``REPRO_EXEC_TIMEOUT_S`` environment variable,
                unbounded when unset).
            backend: execution backend name for pooled runs (default: the
                ``REPRO_EXEC_BACKEND`` environment variable, then the
                hardened process pool; see
                :func:`repro.exec.resolve_backend`).
        """
        if processes < 0:
            raise ConfigurationError(f"processes must be >= 0, got {processes}")
        suite = self.suite if select is None else self.suite.select(select)
        registry = telemetry.get()
        with registry.span("experiments.run", scenarios=len(suite.specs)) as sp:
            results = self._run_specs(
                suite.specs, processes, task_timeout_s, backend
            )
        manifest = RunManifest(
            suite=suite.name,
            spec_hash=suite.spec_hash(),
            scenarios=tuple(results),
            repro_version=__version__,
            git_sha=git_sha(),
            total_wall_time_s=sp.elapsed_s,
            telemetry=registry.snapshot() if registry.enabled else None,
        )
        path = self.manifest_path()
        if write and path is not None:
            manifest.save(path)
        return manifest

    @staticmethod
    def _run_specs(
        specs: Sequence[ScenarioSpec],
        processes: int,
        task_timeout_s: Optional[float] = None,
        backend: Optional[str] = None,
    ) -> List[ScenarioResult]:
        if processes <= 1 or len(specs) <= 1:
            return [run_scenario(spec) for spec in specs]
        # The execution backend seam (shared with repro.cosim.run_cosim)
        # recovers per-scenario: a crashed or timed-out worker costs one
        # serial re-run of that scenario, completed scenarios keep their
        # results, and the merged manifest is bit-identical to the
        # all-serial path.  A genuine scenario error is captured in its
        # ScenarioResult either way.
        from repro.exec import resolve_backend

        registry = telemetry.get()
        payloads = [(spec, registry.enabled) for spec in specs]
        results = resolve_backend(backend).map_tasks(
            _run_scenario_captured,
            payloads,
            max_workers=min(processes, len(specs)),
            timeout_s=task_timeout_s,
            label="exec",
        )
        # Worker snapshots merge in scenario order (associative, so any
        # grouping agrees on every deterministic field).
        for _, snapshot in results:
            if snapshot is not None:
                registry.merge_snapshot(snapshot)
        return [result for result, _ in results]
