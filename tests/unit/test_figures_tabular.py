"""Unit tests for repro.figures.tabular: Table and the manifest loader."""

import csv
import io
import math

import pytest

from repro.experiments.runner import RunManifest, ScenarioResult
from repro.figures.tabular import Table, manifest_table


def _manifest(name="suite", scenarios=(), git_sha="a" * 40, spec_hash="b" * 64):
    return RunManifest(
        suite=name, spec_hash=spec_hash, scenarios=tuple(scenarios), git_sha=git_sha
    )


def _scenario(name, metrics, status="ok", kind="analyze", tolerances=None):
    return ScenarioResult(
        name=name,
        kind=kind,
        status=status,
        metrics=dict(metrics),
        tolerances=dict(tolerances or {}),
    )


class TestTable:
    def test_columns_and_missing_keys_read_as_none(self):
        table = Table(("a", "b"), [{"a": 1}, {"b": 2.5}])
        assert table.rows == [{"a": 1, "b": None}, {"a": None, "b": 2.5}]
        assert len(table) == 2 and bool(table)
        assert not Table(("a",))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table(("a", "a"))

    def test_where_filters_rows(self):
        table = Table(("k", "v"), [{"k": "b", "v": 2}, {"k": "a", "v": 3}, {"k": "c", "v": 1}])
        kept = table.where(lambda row: row["v"] > 1)
        assert kept.columns == ("k", "v")
        assert [row["k"] for row in kept.rows] == ["b", "a"]

    def test_pivot_wide_with_missing_cells(self):
        table = Table(
            ("scn", "metric", "value"),
            [
                {"scn": "s1", "metric": "lat", "value": 1.0},
                {"scn": "s1", "metric": "nrg", "value": 2.0},
                {"scn": "s2", "metric": "lat", "value": 3.0},
            ],
        )
        wide = table.pivot("scn", "metric", "value")
        assert wide.columns == ("scn", "lat", "nrg")
        assert wide.rows[1]["nrg"] is None

    def test_csv_spells_each_cell_type(self):
        table = Table(("i", "f", "s", "b", "n"), [{"i": 7, "f": 0.1, "s": "x,y", "b": True}])
        header, row = csv.reader(io.StringIO(table.to_csv()))
        assert header == ["i", "f", "s", "b", "n"]
        assert row == ["7", "0.1", "x,y", "true", ""]

    def test_csv_floats_read_back_through_float(self):
        table = Table(("v",), [{"v": float("nan")}, {"v": math.inf}, {"v": -math.inf}, {"v": 0.1}])
        _, *rows = csv.reader(io.StringIO(table.to_csv()))
        values = [float(cell) for (cell,) in rows]
        assert math.isnan(values[0])
        assert values[1:] == [math.inf, -math.inf, 0.1]


class TestManifestLoaders:
    def test_manifest_table_long_form(self):
        manifest = _manifest(
            scenarios=[
                _scenario("s1", {"lat": 1.5, "nrg": 2.0}, tolerances={"lat": 0.1})
            ]
        )
        table = manifest_table(manifest)
        assert table.columns == ("scenario", "kind", "status", "metric", "value", "tolerance")
        assert [row["metric"] for row in table.rows] == ["lat", "nrg"]
        assert table.rows[0]["tolerance"] == 0.1

    def test_manifest_table_keeps_error_scenarios_visible(self):
        manifest = _manifest(
            scenarios=[
                _scenario("ok", {"lat": 1.0}),
                _scenario("boom", {}, status="error"),
            ]
        )
        table = manifest_table(manifest)
        error_rows = table.where(lambda row: row["status"] == "error")
        assert len(error_rows) == 1
        assert error_rows.rows[0]["metric"] is None
