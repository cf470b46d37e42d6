"""repro — performance analysis modeling framework for XR applications.

A faithful, laptop-scale reproduction of *"A Performance Analysis Modeling
Framework for Extended Reality Applications in Edge-Assisted Wireless
Networks"* (Mallik, Xie, Han — ICDCS 2024).  The package provides:

* the analytical latency / energy / Age-of-Information models of the paper
  (:mod:`repro.core`),
* every substrate those models depend on — device catalog, CNN zoo, queueing
  theory, wireless network, sensors, synthetic measurement campaign
  (:mod:`repro.devices`, :mod:`repro.cnn`, :mod:`repro.queueing`,
  :mod:`repro.network`, :mod:`repro.sensors`, :mod:`repro.measurement`),
* the FACT and LEAF baseline models the paper compares against
  (:mod:`repro.baselines`),
* a discrete-event simulated testbed that substitutes the paper's physical
  testbed and produces the ground truth the models are validated against
  (:mod:`repro.simulation`),
* an evaluation harness that regenerates every table and figure of the
  paper's evaluation section (:mod:`repro.evaluation`),
* a fleet layer that scales the per-user models to ``N`` users sharing one
  Wi-Fi channel and a pool of edge GPUs — population generators, channel
  contention, multi-tenant edge queueing, admission control, and
  SLO-constrained capacity planning (:mod:`repro.fleet`),
* a vectorized batch evaluation engine that computes whole operating-point
  grids (frame size x clocks x bitrate x throughput x device x placement)
  in NumPy array expressions, bit-compatible with the scalar models and
  orders of magnitude faster (:mod:`repro.batch`),
* a trace-driven adaptation layer that replays time-varying channel/load
  conditions (mobility handoffs, fading, fleet contention, synthetic
  drift/step/burst scenarios) and re-picks the operating point each control
  epoch with pluggable controllers (:mod:`repro.adaptive`),
* a closed-loop co-simulation that composes the three: every fleet user
  runs an adaptive controller while the shared-channel contention and edge
  queueing are recomputed from the controllers' own placement decisions
  each epoch — per-epoch best-response iteration to a fixed point, with
  equivalence-class batching and optional process-pool sharding
  (:mod:`repro.cosim`),
* a declarative experiment layer: versioned TOML/JSON scenario specs
  covering every subsystem, a runner that turns a suite into an
  attributable JSON run manifest, and a regression gate that compares
  manifests against a committed baseline — the single entry point CI uses
  to detect drift in the model's outputs (:mod:`repro.experiments`),
* a figure layer over the persisted artifacts: a registry of figure
  builders that re-render every committed ``results/`` artifact
  byte-identically (plus CSV and Vega-Lite sidecars, through a
  stdlib-only row-oriented :class:`~repro.figures.Table`), dashboards
  over the baseline run manifest, and structural telemetry-snapshot
  diffing (:mod:`repro.figures`),
* an invariant-checking lint engine behind ``repro lint``: stdlib-only
  AST rules for determinism (REP001), ``to_dict``/``from_dict``
  round-trip completeness (REP002), pickle-safe process-pool tasks
  (REP003), dotted telemetry naming (REP004), scenario-spec validity
  (REP005), trustworthy ``__all__`` listings (REP006) and docstrings on
  the exported API (REP007), with inline ``# repro: noqa[RULE]``
  suppressions and a committed findings baseline (:mod:`repro.analysis`).

The names below resolve on first use (see ``_LAZY``), so ``import repro``
loads no subsystem, and no NumPy, until one is asked for.

Quickstart::

    from repro import XRPerformanceModel

    model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
    report = model.analyze()
    print(report.summary())
"""

import importlib

from repro._version import __version__


def _lazy_exports(package: str, namespace: dict, table: dict):
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` over ``table``.

    ``table`` maps each re-exported name to the module that defines it; a
    name mapped to ``"<package>.<name>"`` is that submodule itself.  The
    first access imports the module and caches the value in ``namespace``
    (the package's globals), so a process loads only the modules its code
    touches.  An unknown name raises the standard ``AttributeError``.
    """

    def __getattr__(name):
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(table[name])
        value = module if table[name] == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


#: Exported name -> defining module, imported on first access.
_LAZY = {
    "ApplicationConfig": "repro.config.application",
    "CooperationConfig": "repro.config.application",
    "DeviceSpec": "repro.config.device",
    "EdgeServerSpec": "repro.config.device",
    "EncoderConfig": "repro.config.application",
    "ExecutionMode": "repro.config.application",
    "HandoffConfig": "repro.config.network",
    "InferenceConfig": "repro.config.application",
    "NetworkConfig": "repro.config.network",
    "SensorConfig": "repro.config.network",
    "SweepConfig": "repro.config.workload",
    "WorkloadConfig": "repro.config.workload",
    "AoIModel": "repro.core.aoi",
    "AoIResult": "repro.core.aoi",
    "CoefficientSet": "repro.core.coefficients",
    "EnergyBreakdown": "repro.core.results",
    "LatencyBreakdown": "repro.core.results",
    "OffloadingPlanner": "repro.core.offloading",
    "PerformanceReport": "repro.core.results",
    "Segment": "repro.core.segments",
    "SessionAnalyzer": "repro.core.session",
    "SessionReport": "repro.core.session",
    "XREnergyModel": "repro.core.energy",
    "XRLatencyModel": "repro.core.latency",
    "XRPerformanceModel": "repro.core.framework",
    "calibrated_coefficients": "repro.core.coefficients",
    "BatchResult": "repro.batch.result",
    "OperatingPoint": "repro.batch.grid",
    "ParameterGrid": "repro.batch.grid",
    "evaluate_grid": "repro.batch.engine",
    "evaluate_points": "repro.batch.engine",
    "AdaptationReport": "repro.adaptive.runtime",
    "AdaptiveRuntime": "repro.adaptive.runtime",
    "ConditionTrace": "repro.adaptive.traces",
    "EpochConditions": "repro.adaptive.traces",
    "EwmaPredictive": "repro.adaptive.controllers",
    "GreedyBatchSweep": "repro.adaptive.controllers",
    "HysteresisThreshold": "repro.adaptive.controllers",
    "StaticBaseline": "repro.adaptive.controllers",
    "make_trace": "repro.adaptive.traces",
    "get_device": "repro.devices.catalog",
    "get_edge_server": "repro.devices.catalog",
    "CNNModel": "repro.cnn.model",
    "get_cnn": "repro.cnn.zoo",
    "list_cnns": "repro.cnn.zoo",
    "CapacityPlan": "repro.fleet.capacity",
    "EdgePlan": "repro.fleet.capacity",
    "FleetAnalyzer": "repro.fleet.analyzer",
    "FleetPopulation": "repro.fleet.population",
    "FleetReport": "repro.fleet.results",
    "UserProfile": "repro.fleet.population",
    "plan_capacity": "repro.fleet.capacity",
    "plan_edges": "repro.fleet.capacity",
    "CoSimulation": "repro.cosim.engine",
    "CosimReport": "repro.cosim.results",
    "ShardedCosimReport": "repro.cosim.results",
    "run_cosim": "repro.cosim.engine",
    "ExperimentRunner": "repro.experiments.runner",
    "RegressionReport": "repro.experiments.regression",
    "RunManifest": "repro.experiments.runner",
    "ScenarioSpec": "repro.experiments.spec",
    "ScenarioSuite": "repro.experiments.spec",
    "bundled_suite": "repro.experiments.spec",
    "compare_manifests": "repro.experiments.regression",
    "load_suite": "repro.experiments.spec",
    "Diagnostic": "repro.analysis.diagnostics",
    "LintEngine": "repro.analysis.engine",
    "LintReport": "repro.analysis.engine",
    "run_lint": "repro.analysis.engine",
    "FigureInputs": "repro.figures.registry",
    "SnapshotDiff": "repro.figures.diffs",
    "Table": "repro.figures.tabular",
    "build_all": "repro.figures.registry",
    "build_figure": "repro.figures.registry",
    "check_figures": "repro.figures.registry",
    "diff_snapshots": "repro.figures.diffs",
    "ExecutionBackend": "repro.exec.backend",
    "ProcessPoolBackend": "repro.exec.pools",
    "SerialBackend": "repro.exec.serial",
    "resolve_backend": "repro.exec.registry",
    "figures": "repro.figures",
    "telemetry": "repro.telemetry",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)

__all__ = [
    "AdaptationReport",
    "AdaptiveRuntime",
    "AoIModel",
    "AoIResult",
    "ApplicationConfig",
    "BatchResult",
    "ConditionTrace",
    "EpochConditions",
    "EwmaPredictive",
    "GreedyBatchSweep",
    "HysteresisThreshold",
    "StaticBaseline",
    "CNNModel",
    "CapacityPlan",
    "CoSimulation",
    "CoefficientSet",
    "CooperationConfig",
    "CosimReport",
    "DeviceSpec",
    "Diagnostic",
    "EdgePlan",
    "EdgeServerSpec",
    "EncoderConfig",
    "EnergyBreakdown",
    "ExecutionBackend",
    "ExecutionMode",
    "ExperimentRunner",
    "FigureInputs",
    "FleetAnalyzer",
    "FleetPopulation",
    "FleetReport",
    "HandoffConfig",
    "InferenceConfig",
    "LatencyBreakdown",
    "LintEngine",
    "LintReport",
    "NetworkConfig",
    "OffloadingPlanner",
    "OperatingPoint",
    "ParameterGrid",
    "PerformanceReport",
    "ProcessPoolBackend",
    "RegressionReport",
    "RunManifest",
    "ScenarioSpec",
    "ScenarioSuite",
    "Segment",
    "SensorConfig",
    "SerialBackend",
    "SessionAnalyzer",
    "SessionReport",
    "ShardedCosimReport",
    "SnapshotDiff",
    "SweepConfig",
    "Table",
    "UserProfile",
    "WorkloadConfig",
    "XREnergyModel",
    "XRLatencyModel",
    "XRPerformanceModel",
    "build_all",
    "build_figure",
    "bundled_suite",
    "calibrated_coefficients",
    "check_figures",
    "compare_manifests",
    "diff_snapshots",
    "evaluate_grid",
    "evaluate_points",
    "figures",
    "get_cnn",
    "get_device",
    "get_edge_server",
    "list_cnns",
    "load_suite",
    "make_trace",
    "plan_capacity",
    "plan_edges",
    "resolve_backend",
    "run_cosim",
    "run_lint",
    "telemetry",
    "__version__",
]
