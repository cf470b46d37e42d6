"""Row-oriented tables and run-history indexing over persisted artifacts.

The figure registry needs exactly three dataframe operations — select,
group, pivot — over two JSON document families: run manifests
(:class:`~repro.experiments.runner.RunManifest`) and telemetry snapshots
(:mod:`repro.telemetry`).  Pulling
pandas in for that would be the repo's first third-party analytics
dependency; :class:`Table` is the stdlib-only sliver of it we actually use:
a tuple of column names plus a list of per-row dicts, with typed columns,
deterministic CSV round-trips (NaN/inf included), and the handful of
relational helpers the builders in :mod:`repro.figures.builders` call.

:class:`RunHistory` sits one level up: it ingests a *directory* of run
manifests (committed baseline plus CI-archived fresh runs) into per-metric
time series keyed by git SHA and spec hash, which is what turns write-only
manifests into a comparable perf/correctness trajectory.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

Cell = Union[int, float, str, bool, None]


def _type_name(value: Cell) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "str"


#: Type-promotion lattice for mixed columns: ints and floats unify to
#: float; anything else mixed degrades to str.
_PROMOTE = {frozenset(("int", "float")): "float"}


def _format_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr round-trips doubles exactly; NaN/inf spell as nan/inf/-inf,
        # which _parse_cell below maps straight back through float().
        return repr(value)
    return str(value)


def _parse_cell(text: str) -> Cell:
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


class Table:
    """A minimal row-oriented table: ordered columns over dict rows.

    Rows are plain dicts; a missing key reads as ``None``.  Column types
    are inferred (``int`` | ``float`` | ``bool`` | ``str``, ints and floats
    unifying to ``float``), and :meth:`to_csv` / :meth:`from_csv`
    round-trip every cell bit-exactly, NaN and infinities included.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: Iterable[Mapping[str, Cell]] = ()) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in {self.columns!r}")
        self.rows: List[Dict[str, Cell]] = [
            {name: row.get(name) for name in self.columns} for row in rows
        ]

    @classmethod
    def from_records(
        cls, records: Iterable[Mapping[str, Cell]], columns: Optional[Sequence[str]] = None
    ) -> "Table":
        """Build a table from dicts; columns default to first-seen order."""
        records = list(records)
        if columns is None:
            seen: Dict[str, None] = {}
            for record in records:
                for name in record:
                    seen.setdefault(name)
            columns = tuple(seen)
        return cls(columns, records)

    # -- basics ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Cell]]:
        return iter(self.rows)

    def column(self, name: str) -> List[Cell]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(f"no column {name!r} (have {', '.join(self.columns)})")
        return [row[name] for row in self.rows]

    def column_types(self) -> Dict[str, Optional[str]]:
        """Inferred type per column (None for all-missing columns)."""
        types: Dict[str, Optional[str]] = {}
        for name in self.columns:
            current: Optional[str] = None
            for row in self.rows:
                observed = _type_name(row[name])
                if observed is None:
                    continue
                if current is None or current == observed:
                    current = observed
                else:
                    current = _PROMOTE.get(frozenset((current, observed)), "str")
            types[name] = current
        return types

    # -- relational helpers ----------------------------------------------------

    def select(self, *columns: str) -> "Table":
        """A table restricted to ``columns`` (order as given)."""
        missing = [name for name in columns if name not in self.columns]
        if missing:
            raise KeyError(f"no column(s) {', '.join(missing)}")
        return Table(columns, self.rows)

    def where(self, predicate: Callable[[Mapping[str, Cell]], bool]) -> "Table":
        """Rows for which ``predicate(row)`` is true."""
        return Table(self.columns, [row for row in self.rows if predicate(row)])

    def sort_by(self, *columns: str, reverse: bool = False) -> "Table":
        """Rows sorted by the given columns (None sorts first; stable)."""

        def key(row: Mapping[str, Cell]) -> tuple:
            parts = []
            for name in columns:
                value = row.get(name)
                # Tag by presence and type so None/str/number mixes compare.
                if value is None:
                    parts.append((0, ""))
                elif isinstance(value, (bool, int, float)):
                    parts.append((1, float(value)))
                else:
                    parts.append((2, str(value)))
            return tuple(parts)

        return Table(self.columns, sorted(self.rows, key=key, reverse=reverse))

    def group_by(self, *keys: str) -> Dict[Tuple[Cell, ...], "Table"]:
        """Partition rows by key tuple, insertion-ordered."""
        groups: Dict[Tuple[Cell, ...], List[Dict[str, Cell]]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row.get(name) for name in keys), []).append(row)
        return {key: Table(self.columns, rows) for key, rows in groups.items()}

    def pivot(self, index: str, column: str, value: str) -> "Table":
        """A wide table: one row per ``index`` value, one column per
        distinct ``column`` value, cells from ``value``.

        Later duplicates of an (index, column) pair win, matching a plain
        dict update; absent pairs read as ``None``.
        """
        index_order: Dict[Cell, Dict[str, Cell]] = {}
        new_columns: Dict[str, None] = {}
        for row in self.rows:
            wide = index_order.setdefault(row.get(index), {index: row.get(index)})
            name = str(row.get(column))
            new_columns.setdefault(name)
            wide[name] = row.get(value)
        return Table((index, *new_columns), list(index_order.values()))

    # -- CSV -------------------------------------------------------------------

    def to_csv(self) -> str:
        """Deterministic CSV: header row plus one line per row.

        Floats render via ``repr`` so every double (NaN/inf included)
        parses back bit-exact; ``None`` renders as the empty cell.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_format_cell(row[name]) for name in self.columns])
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Table":
        """Parse :meth:`to_csv` output back into a typed table."""
        reader = csv.reader(io.StringIO(text))
        try:
            columns = next(reader)
        except StopIteration:
            return cls(())
        rows = [
            {name: _parse_cell(cell) for name, cell in zip(columns, line)} for line in reader
        ]
        return cls(tuple(columns), rows)


# ---------------------------------------------------------------------------
# Loaders: manifests and telemetry snapshots
# ---------------------------------------------------------------------------


def manifest_table(manifest) -> Table:
    """Flatten a :class:`RunManifest` into long form: one row per metric.

    Columns: ``scenario, kind, status, metric, value, tolerance``.
    Scenarios that errored contribute one row with ``metric=None`` so the
    failure stays visible in the flattened view instead of vanishing.
    """
    rows: List[Dict[str, Cell]] = []
    for result in manifest.scenarios:
        if not result.metrics:
            rows.append(
                {
                    "scenario": result.name,
                    "kind": result.kind,
                    "status": result.status,
                    "metric": None,
                    "value": None,
                    "tolerance": None,
                }
            )
            continue
        for metric in sorted(result.metrics):
            value = result.metrics[metric]
            rows.append(
                {
                    "scenario": result.name,
                    "kind": result.kind,
                    "status": result.status,
                    "metric": metric,
                    "value": value if isinstance(value, (int, float, str, bool)) else None,
                    "tolerance": result.tolerances.get(metric),
                }
            )
    return Table(("scenario", "kind", "status", "metric", "value", "tolerance"), rows)


def scenario_table(manifest) -> Table:
    """Flatten a :class:`RunManifest` wide: one row per scenario.

    Metric columns are the union over scenarios, in sorted order, after
    the identity columns; a scenario missing a metric reads as ``None``.
    """
    metric_names: Dict[str, None] = {}
    for result in manifest.scenarios:
        for metric in sorted(result.metrics):
            metric_names.setdefault(metric)
    rows = [
        {
            "scenario": result.name,
            "kind": result.kind,
            "status": result.status,
            **{
                metric: value
                for metric, value in result.metrics.items()
                if isinstance(value, (int, float, str, bool)) or value is None
            },
        }
        for result in manifest.scenarios
    ]
    return Table(("scenario", "kind", "status", *sorted(metric_names)), rows)


def _flatten_spans(
    nodes: Mapping, prefix: str, rows: List[Dict[str, Cell]]
) -> None:
    for name in sorted(nodes):
        node = nodes[name]
        path = f"{prefix}/{name}" if prefix else name
        row: Dict[str, Cell] = {
            "span": path,
            "count": node.get("count"),
            "total_ms": node.get("total_ms"),
            "mean_ms": node.get("mean_ms"),
            "p95_ms": node.get("p95_ms"),
        }
        for counter, value in sorted((node.get("counters") or {}).items()):
            rows.append({**row, "counter": counter, "counter_value": value})
        if not node.get("counters"):
            rows.append({**row, "counter": None, "counter_value": None})
        _flatten_spans(node.get("children") or {}, path, rows)


def telemetry_table(snapshot: Mapping) -> Table:
    """Flatten a telemetry snapshot into long form.

    One row per counter/gauge (``section`` = ``counter`` | ``gauge``), one
    row per histogram percentile (``p50``/``p95``/``p99``), and one row per
    (span path, span counter) pair with the span's wall-time aggregates.
    """
    from repro.telemetry.histogram import StreamingHistogram

    rows: List[Dict[str, Cell]] = []
    for section in ("counters", "gauges"):
        kind = section[:-1]
        for name, value in sorted((snapshot.get(section) or {}).items()):
            rows.append({"section": kind, "name": name, "value": value})
    for name, entry in sorted((snapshot.get("histograms") or {}).items()):
        histogram = StreamingHistogram.from_dict(entry)
        rows.append(
            {
                "section": "histogram",
                "name": name,
                "value": histogram.count,
                "p50": histogram.quantile(0.50) if histogram.count else None,
                "p95": histogram.quantile(0.95) if histogram.count else None,
                "p99": histogram.quantile(0.99) if histogram.count else None,
            }
        )
    span_rows: List[Dict[str, Cell]] = []
    _flatten_spans(snapshot.get("spans") or {}, "", span_rows)
    for row in span_rows:
        rows.append({"section": "span", "name": row["span"], "value": row["count"], **row})
    columns = (
        "section",
        "name",
        "value",
        "p50",
        "p95",
        "p99",
        "span",
        "count",
        "total_ms",
        "mean_ms",
        "p95_ms",
        "counter",
        "counter_value",
    )
    return Table(columns, rows)


# ---------------------------------------------------------------------------
# Run history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HistoryPoint:
    """One run's value of one scenario metric."""

    run: str
    git_sha: Optional[str]
    spec_hash: str
    status: str
    value: Optional[float]


@dataclass
class RunHistory:
    """A directory of run manifests indexed into per-metric time series.

    Manifests are ordered by file name (CI artifact names sort by run
    number, the committed baseline sorts first by convention); each series
    point is keyed by the manifest's git SHA and spec hash, so a metric
    jump is attributable to a commit and a spec-hash change marks the
    point where the suite itself moved.
    """

    runs: List[Tuple[str, object]] = field(default_factory=list)  # (label, RunManifest)

    @classmethod
    def load(cls, directory: Union[str, Path], pattern: str = "*.json") -> "RunHistory":
        """Ingest every loadable manifest under ``directory``.

        Files that are not run manifests (unreadable JSON, wrong schema)
        are skipped with a warning — a manifest directory routinely holds
        sibling artifacts — and a missing/empty directory yields an empty
        history rather than an error.
        """
        from repro.exceptions import ReproError
        from repro.experiments.runner import RunManifest

        directory = Path(directory)
        history = cls()
        if not directory.is_dir():
            return history
        for path in sorted(directory.glob(pattern)):
            try:
                manifest = RunManifest.load(path)
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                warnings.warn(f"run history: skipping {path.name}: {exc}", stacklevel=2)
                continue
            history.runs.append((path.stem, manifest))
        return history

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    def metrics(self) -> List[Tuple[str, str]]:
        """Every (scenario, metric) pair recorded by any run, sorted."""
        pairs = set()
        for _, manifest in self.runs:
            for result in manifest.scenarios:
                for metric in result.metrics:
                    pairs.add((result.name, metric))
        return sorted(pairs)

    def series(self, scenario: str, metric: str) -> List[HistoryPoint]:
        """The metric's trajectory across runs, in run order.

        Runs that did not record the scenario are skipped; runs whose
        scenario errored (or recorded no numeric value) contribute a point
        with ``value=None`` so gaps stay distinguishable from zeros.
        """
        points: List[HistoryPoint] = []
        for label, manifest in self.runs:
            result = manifest.result_for(scenario)
            if result is None:
                continue
            raw = result.metrics.get(metric)
            numeric = (
                float(raw)
                if isinstance(raw, (int, float)) and not isinstance(raw, bool)
                else None
            )
            points.append(
                HistoryPoint(
                    run=label,
                    git_sha=manifest.git_sha,
                    spec_hash=manifest.spec_hash,
                    status=result.status,
                    value=numeric,
                )
            )
        return points

    def deltas(self, scenario: str, metric: str) -> List[float]:
        """Consecutive differences of the numeric series (empty when the
        history holds fewer than two numeric points)."""
        values = [p.value for p in self.series(scenario, metric) if p.value is not None]
        return [b - a for a, b in zip(values, values[1:])]

    def table(self) -> Table:
        """The whole history flattened long: one row per run x metric."""
        rows: List[Dict[str, Cell]] = []
        for label, manifest in self.runs:
            for result in manifest.scenarios:
                for metric in sorted(result.metrics):
                    value = result.metrics[metric]
                    rows.append(
                        {
                            "run": label,
                            "git_sha": (manifest.git_sha or "")[:12] or None,
                            "spec_hash": manifest.spec_hash[:12],
                            "scenario": result.name,
                            "status": result.status,
                            "metric": metric,
                            "value": value
                            if isinstance(value, (int, float)) and not isinstance(value, bool)
                            else None,
                        }
                    )
        return Table(
            ("run", "git_sha", "spec_hash", "scenario", "status", "metric", "value"), rows
        )


def load_manifest(path: Union[str, Path]):
    """Load one manifest (thin alias so figure code has one import site)."""
    from repro.experiments.runner import RunManifest

    return RunManifest.load(path)


def nan_safe_equal(a: Cell, b: Cell) -> bool:
    """Cell equality where NaN == NaN (CSV round-trip assertions)."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b
