"""repro.figures: the figure registry and telemetry diffing.

Three layers over the repo's persisted artifacts:

* :mod:`repro.figures.tabular` — a stdlib-only row-oriented :class:`Table`
  (filter, pivot, CSV round-trip) and :func:`manifest_table`, which
  flattens a run manifest for the dashboards.
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
from repro.figures.tabular import Table, manifest_table
from repro.figures import builders as _builders  # noqa: F401  (populates FIGURES)

__all__ = [
    "FIGURES",
    "BuiltFigure",
    "CheckResult",
    "FigureInputs",
    "FigureSpec",
    "HistogramDelta",
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
    "manifest_table",
    "register",
]
