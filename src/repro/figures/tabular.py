"""Row-oriented tables over persisted artifacts.

The figure registry needs two dataframe operations — filter and pivot —
over one JSON document family, run manifests
(:class:`~repro.experiments.runner.RunManifest`).  Pulling pandas in for
that would be the repo's first third-party analytics dependency;
:class:`Table` is the stdlib-only sliver of it the builders in
:mod:`repro.figures.builders` call: a tuple of column names plus a list of
per-row dicts, with deterministic CSV output (NaN/inf included) for the
figure sidecars.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

Cell = Union[int, float, str, bool, None]


def _format_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr round-trips doubles exactly; NaN/inf spell as nan/inf/-inf,
        # which float() reads straight back.
        return repr(value)
    return str(value)


class Table:
    """A minimal row-oriented table: ordered columns over dict rows.

    Rows are plain dicts; a missing key reads as ``None``.  :meth:`to_csv`
    spells every float so that ``float()`` reads it back bit-exactly, NaN
    and infinities too.
    """

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: Iterable[Mapping[str, Cell]] = ()) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in {self.columns!r}")
        self.rows: List[Dict[str, Cell]] = [
            {name: row.get(name) for name in self.columns} for row in rows
        ]

    def __len__(self) -> int:
        return len(self.rows)

    def where(self, predicate: Callable[[Mapping[str, Cell]], bool]) -> "Table":
        """Rows for which ``predicate(row)`` is true."""
        return Table(self.columns, [row for row in self.rows if predicate(row)])

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
