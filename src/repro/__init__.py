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
  attributable JSON run manifest, and regression gates that compare
  manifests and bench payloads against committed baselines — the single
  entry point CI uses to detect correctness and performance drift
  (:mod:`repro.experiments`),
* a figure/analytics layer over the persisted artifacts: a stdlib-only
  row-oriented :class:`~repro.figures.Table` with manifest / telemetry /
  bench flatteners, a :class:`~repro.figures.RunHistory` index turning a
  directory of manifests into per-metric time series, a registry of
  figure builders that re-render every committed ``results/`` artifact
  byte-identically (plus CSV and Vega-Lite sidecars), and structural
  telemetry-snapshot diffing (:mod:`repro.figures`),
* an invariant-checking lint engine behind ``repro lint``: stdlib-only
  AST rules for determinism (REP001), ``to_dict``/``from_dict``
  round-trip completeness (REP002), pickle-safe process-pool tasks
  (REP003), dotted telemetry naming (REP004), scenario-spec validity
  (REP005) and trustworthy ``__all__`` listings (REP006), with inline
  ``# repro: noqa[RULE]`` suppressions and a committed findings baseline
  (:mod:`repro.analysis`).

Quickstart::

    from repro import XRPerformanceModel

    model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
    report = model.analyze()
    print(report.summary())
"""

from repro._version import __version__
from repro.config import (
    ApplicationConfig,
    CooperationConfig,
    DeviceSpec,
    EdgeServerSpec,
    EncoderConfig,
    ExecutionMode,
    HandoffConfig,
    InferenceConfig,
    NetworkConfig,
    SensorConfig,
    SweepConfig,
    WorkloadConfig,
)
from repro.core import (
    AoIModel,
    AoIResult,
    CoefficientSet,
    EnergyBreakdown,
    LatencyBreakdown,
    OffloadingPlanner,
    PerformanceReport,
    Segment,
    SessionAnalyzer,
    SessionReport,
    XREnergyModel,
    XRLatencyModel,
    XRPerformanceModel,
    calibrated_coefficients,
)
from repro.batch import (
    BatchResult,
    OperatingPoint,
    ParameterGrid,
    evaluate_grid,
    evaluate_points,
)
from repro.adaptive import (
    AdaptationReport,
    AdaptiveRuntime,
    ConditionTrace,
    EpochConditions,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
    make_trace,
)
from repro.devices import XRDevice, EdgeServer, get_device, get_edge_server
from repro.cnn import CNNModel, get_cnn, list_cnns
from repro.fleet import (
    CapacityPlan,
    EdgePlan,
    FleetAnalyzer,
    FleetPopulation,
    FleetReport,
    UserProfile,
    plan_capacity,
    plan_edges,
)
from repro.cosim import (
    CoSimulation,
    CosimReport,
    ShardedCosimReport,
    run_cosim,
)
from repro.experiments import (
    ExperimentRunner,
    RegressionReport,
    RunManifest,
    ScenarioSpec,
    ScenarioSuite,
    bundled_suite,
    compare_manifests,
    load_suite,
)
from repro.analysis import (
    Diagnostic,
    LintEngine,
    LintReport,
    run_lint,
)
from repro.figures import (
    FigureInputs,
    RunHistory,
    SnapshotDiff,
    Table,
    build_all,
    build_figure,
    check_figures,
    diff_snapshots,
)
from repro.exec import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from repro import figures, telemetry

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
    "EdgeServer",
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
    "RunHistory",
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
    "XRDevice",
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
