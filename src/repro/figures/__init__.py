"""repro.figures: run-history analytics, figure registry, telemetry diffing.

Three layers over the repo's persisted artifacts:

* :mod:`repro.figures.tabular` — a stdlib-only row-oriented :class:`Table`
  plus loaders flattening run manifests and telemetry snapshots, and a
  :class:`RunHistory` index turning a directory of manifests into
  per-metric time series.
* :mod:`repro.figures.registry` / :mod:`repro.figures.builders` — the
  :data:`FIGURES` registry: every paper figure/table/ablation and every
  subsystem dashboard as a named builder emitting a byte-stable text
  render, a CSV data sidecar and a Vega-Lite spec.  ``repro figures
  check`` re-renders the committed ``results/*.txt`` artifacts through
  the registry and fails on drift.
* :mod:`repro.figures.diffs` — structural diffing of two telemetry
  snapshots (span-tree alignment, counter deltas, histogram percentile
  shifts), surfaced as ``repro profile --diff A B``.
"""

from repro.figures.diffs import (
    HistogramDelta,
    SnapshotDiff,
    SpanDelta,
    ValueDelta,
    diff_snapshot_files,
    diff_snapshots,
)
from repro.figures.registry import (
    FIGURES,
    BuiltFigure,
    CheckResult,
    FigureInputs,
    FigureSpec,
    build_all,
    build_figure,
    check_figures,
    figure_names,
    register,
)
from repro.figures.tabular import (
    HistoryPoint,
    RunHistory,
    Table,
    load_manifest,
    manifest_table,
    scenario_table,
    telemetry_table,
)
from repro.figures import builders as _builders  # noqa: F401  (populates FIGURES)

__all__ = [
    "FIGURES",
    "BuiltFigure",
    "CheckResult",
    "FigureInputs",
    "FigureSpec",
    "HistogramDelta",
    "HistoryPoint",
    "RunHistory",
    "SnapshotDiff",
    "SpanDelta",
    "Table",
    "ValueDelta",
    "build_all",
    "build_figure",
    "check_figures",
    "diff_snapshot_files",
    "diff_snapshots",
    "figure_names",
    "load_manifest",
    "manifest_table",
    "register",
    "scenario_table",
    "telemetry_table",
]
