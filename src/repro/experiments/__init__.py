"""Declarative experiment suite, run manifests, and regression gates.

This package turns every reproduction workload — single-point analyses,
Fig. 4/5 sweeps, fleet capacity studies, adaptive-runtime traces and
closed-loop co-simulations — into versioned :class:`ScenarioSpec` documents
(TOML/JSON), runs them through one :class:`ExperimentRunner`, and gates the
resulting :class:`RunManifest` against a committed baseline so CI detects
both correctness and performance drift from a single entry point
(``repro experiments check``).
"""

from repro.experiments.regression import (
    DEFAULT_GATE_RTOL,
    MetricDrift,
    RegressionReport,
    compare_manifests,
)
from repro.experiments.runner import (
    DEFAULT_MANIFEST_DIR,
    ExperimentRunner,
    RunManifest,
    ScenarioResult,
    git_sha,
    metrics_close,
    run_scenario,
)
from repro.experiments.spec import (
    SCENARIO_KINDS,
    ScenarioSpec,
    ScenarioSuite,
    bundled_suite,
    load_specs,
    load_suite,
    toml_available,
)

__all__ = [
    "DEFAULT_GATE_RTOL",
    "DEFAULT_MANIFEST_DIR",
    "ExperimentRunner",
    "MetricDrift",
    "RegressionReport",
    "RunManifest",
    "SCENARIO_KINDS",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioSuite",
    "bundled_suite",
    "compare_manifests",
    "git_sha",
    "load_specs",
    "load_suite",
    "metrics_close",
    "run_scenario",
    "toml_available",
]
