"""Unit tests for repro.figures.tabular: Table and the manifest loader."""

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

    def test_csv_round_trip_preserves_types(self):
        table = Table(("i", "f", "s", "b", "n"), [{"i": 7, "f": 0.1, "s": "x,y", "b": True}])
        back = Table.from_csv(table.to_csv())
        assert back.rows == table.rows
        assert [type(value) for value in back.rows[0].values()] == [
            int,
            float,
            str,
            bool,
            type(None),
        ]

    def test_csv_round_trip_survives_nan_and_inf(self):
        table = Table(("v",), [{"v": float("nan")}, {"v": math.inf}, {"v": -math.inf}, {"v": 0.1}])
        values = [row["v"] for row in Table.from_csv(table.to_csv()).rows]
        assert math.isnan(values[0])
        assert values[1:] == [math.inf, -math.inf, 0.1]

    def test_from_csv_empty_text(self):
        assert len(Table.from_csv("")) == 0


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
