"""Structural diffing of telemetry snapshots.

Two snapshots of the same deterministic run must agree on every counter —
wall times may drift with machine load, but work done is work done.  This
module aligns two snapshots structurally: top-level counters and gauges by
name, histograms by name with percentile shifts, and the span tree by
path with per-node wall-time and counter deltas.  The result renders as a
deterministic text report (``repro profile --diff A B``).

The report deliberately separates *work* deltas (counters, span counts)
from *timing* deltas (wall-time, percentiles): a clean diff has zero work
deltas and whatever timing noise the machine produced, and
:attr:`SnapshotDiff.max_counter_delta` makes that gate a one-liner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

_PERCENTILES = (0.50, 0.95, 0.99)


def _delta(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None or b is None:
        return None
    return b - a


@dataclass(frozen=True)
class ValueDelta:
    """One named scalar present in either snapshot."""

    name: str
    a: Optional[float]
    b: Optional[float]

    @property
    def delta(self) -> Optional[float]:
        return _delta(self.a, self.b)


@dataclass(frozen=True)
class HistogramDelta:
    """Count and percentile shifts of one named histogram."""

    name: str
    count_a: int
    count_b: int
    percentiles_a: Tuple[float, ...]  # p50, p95, p99 (NaN when empty)
    percentiles_b: Tuple[float, ...]

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a

    def shifts(self) -> Tuple[Optional[float], ...]:
        return tuple(
            None if math.isnan(a) or math.isnan(b) else b - a
            for a, b in zip(self.percentiles_a, self.percentiles_b)
        )


@dataclass(frozen=True)
class SpanDelta:
    """One aligned span-tree node: call-count, wall-time, counter deltas."""

    path: str
    count_a: int
    count_b: int
    total_ms_a: Optional[float]
    total_ms_b: Optional[float]
    counters: Tuple[ValueDelta, ...] = ()

    @property
    def count_delta(self) -> int:
        return self.count_b - self.count_a

    @property
    def total_ms_delta(self) -> Optional[float]:
        return _delta(self.total_ms_a, self.total_ms_b)


@dataclass
class SnapshotDiff:
    """The full structural comparison of two telemetry snapshots."""

    label_a: str
    label_b: str
    counters: List[ValueDelta] = field(default_factory=list)
    gauges: List[ValueDelta] = field(default_factory=list)
    histograms: List[HistogramDelta] = field(default_factory=list)
    spans: List[SpanDelta] = field(default_factory=list)

    @property
    def max_counter_delta(self) -> float:
        """Largest absolute *work* delta: top-level counters, span
        call-counts, and span-local counters.  Zero means snapshot B did
        exactly the work snapshot A did (missing-on-one-side counts as a
        full-magnitude delta)."""
        worst = 0.0
        for entry in self.counters:
            if entry.a is None or entry.b is None:
                worst = max(worst, abs(entry.a if entry.b is None else entry.b) or 1.0)
            else:
                worst = max(worst, abs(entry.delta))
        for span in self.spans:
            worst = max(worst, abs(span.count_delta))
            for entry in span.counters:
                if entry.a is None or entry.b is None:
                    worst = max(worst, abs(entry.a if entry.b is None else entry.b) or 1.0)
                else:
                    worst = max(worst, abs(entry.delta))
        return worst

    # -- renders ---------------------------------------------------------------

    def to_text(self) -> str:
        """Deterministic human-readable report."""
        from repro.evaluation.report import format_table

        def fmt(value: Optional[float]) -> str:
            if value is None:
                return "-"
            if isinstance(value, float) and math.isnan(value):
                return "nan"
            if float(value) == int(value) and abs(value) < 1e15:
                return str(int(value))
            return f"{value:.6g}"

        lines = [f"telemetry diff: {self.label_a} -> {self.label_b}", ""]

        work_rows = []
        for entry in self.counters:
            work_rows.append(("counter", entry.name, fmt(entry.a), fmt(entry.b), fmt(entry.delta)))
        for span in self.spans:
            work_rows.append(
                ("span", f"{span.path} calls", str(span.count_a), str(span.count_b), str(span.count_delta))
            )
            for entry in span.counters:
                work_rows.append(
                    ("span", f"{span.path} {entry.name}", fmt(entry.a), fmt(entry.b), fmt(entry.delta))
                )
        changed = [row for row in work_rows if row[4] not in ("0", "-")]
        lines.append(f"work deltas ({len(changed)} changed of {len(work_rows)} compared):")
        if changed:
            lines.append(format_table(changed, headers=("kind", "name", "a", "b", "delta")))
        else:
            lines.append("  none - snapshots agree on all counters and span call-counts")
        lines.append("")

        if self.gauges:
            gauge_rows = [
                (entry.name, fmt(entry.a), fmt(entry.b), fmt(entry.delta)) for entry in self.gauges
            ]
            lines.append("gauges:")
            lines.append(format_table(gauge_rows, headers=("name", "a", "b", "delta")))
            lines.append("")

        if self.histograms:
            hist_rows = []
            for hist in self.histograms:
                shifts = hist.shifts()
                hist_rows.append(
                    (
                        hist.name,
                        str(hist.count_a),
                        str(hist.count_b),
                        *(fmt(shift) for shift in shifts),
                    )
                )
            lines.append("histogram shifts:")
            lines.append(
                format_table(
                    hist_rows,
                    headers=("name", "count_a", "count_b", "dp50", "dp95", "dp99"),
                )
            )
            lines.append("")

        timing_rows = [
            (span.path, fmt(span.total_ms_a), fmt(span.total_ms_b), fmt(span.total_ms_delta))
            for span in self.spans
        ]
        if timing_rows:
            lines.append("span wall time (informational - expected to drift):")
            lines.append(
                format_table(timing_rows, headers=("span", "total_ms_a", "total_ms_b", "delta_ms"))
            )
            lines.append("")

        verdict = self.max_counter_delta
        lines.append(
            "verdict: identical work (max counter delta 0)"
            if verdict == 0.0
            else f"verdict: WORK DIVERGED (max counter delta {fmt(verdict)})"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------


def _align_values(a: Mapping, b: Mapping) -> List[ValueDelta]:
    names = sorted(set(a) | set(b))
    return [
        ValueDelta(
            name=name,
            a=float(a[name]) if name in a else None,
            b=float(b[name]) if name in b else None,
        )
        for name in names
    ]


def _align_spans(
    a: Mapping, b: Mapping, prefix: str, out: List[SpanDelta]
) -> None:
    empty: Dict[str, object] = {}
    for name in sorted(set(a) | set(b)):
        node_a, node_b = a.get(name, empty), b.get(name, empty)
        path = f"{prefix}/{name}" if prefix else name
        out.append(
            SpanDelta(
                path=path,
                count_a=int(node_a.get("count", 0)),
                count_b=int(node_b.get("count", 0)),
                total_ms_a=node_a.get("total_ms"),
                total_ms_b=node_b.get("total_ms"),
                counters=tuple(
                    _align_values(node_a.get("counters") or {}, node_b.get("counters") or {})
                ),
            )
        )
        _align_spans(node_a.get("children") or {}, node_b.get("children") or {}, path, out)


def diff_snapshots(
    snapshot_a: Mapping,
    snapshot_b: Mapping,
    label_a: str = "A",
    label_b: str = "B",
) -> SnapshotDiff:
    """Structurally compare two telemetry snapshots.

    Counters, gauges and histograms align by name; span trees align by
    path, recursing into children present on either side.  Quantities
    present in only one snapshot surface with ``None`` on the other side
    (and count as full-magnitude work deltas in
    :attr:`SnapshotDiff.max_counter_delta`).
    """
    from repro.telemetry.histogram import StreamingHistogram

    diff = SnapshotDiff(label_a=label_a, label_b=label_b)
    diff.counters = _align_values(
        snapshot_a.get("counters") or {}, snapshot_b.get("counters") or {}
    )
    diff.gauges = _align_values(snapshot_a.get("gauges") or {}, snapshot_b.get("gauges") or {})

    hist_a = snapshot_a.get("histograms") or {}
    hist_b = snapshot_b.get("histograms") or {}
    for name in sorted(set(hist_a) | set(hist_b)):
        side_a = StreamingHistogram.from_dict(hist_a[name]) if name in hist_a else StreamingHistogram()
        side_b = StreamingHistogram.from_dict(hist_b[name]) if name in hist_b else StreamingHistogram()
        diff.histograms.append(
            HistogramDelta(
                name=name,
                count_a=side_a.count,
                count_b=side_b.count,
                percentiles_a=tuple(side_a.quantile(q) for q in _PERCENTILES),
                percentiles_b=tuple(side_b.quantile(q) for q in _PERCENTILES),
            )
        )

    spans: List[SpanDelta] = []
    _align_spans(snapshot_a.get("spans") or {}, snapshot_b.get("spans") or {}, "", spans)
    diff.spans = spans
    return diff


def diff_snapshot_files(path_a, path_b) -> SnapshotDiff:
    """Load and diff two snapshot files (labels are the file names)."""
    from pathlib import Path

    from repro.telemetry import load_snapshot

    return diff_snapshots(
        load_snapshot(path_a),
        load_snapshot(path_b),
        label_a=Path(path_a).name,
        label_b=Path(path_b).name,
    )
