"""Unit tests for repro.figures.tabular: Table, loaders, RunHistory."""

import math

import pytest

from repro.experiments.runner import RunManifest, ScenarioResult
from repro.figures.tabular import (
    HistoryPoint,
    RunHistory,
    Table,
    manifest_table,
    nan_safe_equal,
    scenario_table,
    telemetry_table,
)
from repro.telemetry import Telemetry


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
        assert table.column("a") == [1, None]
        assert table.column("b") == [None, 2.5]
        assert len(table) == 2 and bool(table)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table(("a", "a"))

    def test_from_records_infers_first_seen_column_order(self):
        table = Table.from_records([{"x": 1}, {"y": 2, "x": 3}])
        assert table.columns == ("x", "y")

    def test_column_types_promote_int_float_and_degrade_mixed(self):
        table = Table.from_records(
            [
                {"n": 1, "m": "a", "f": 1.5, "b": True, "empty": None},
                {"n": 2.0, "m": 3, "f": 2.5, "b": False, "empty": None},
            ]
        )
        types = table.column_types()
        assert types == {"n": "float", "m": "str", "f": "float", "b": "bool", "empty": None}

    def test_select_where_sort(self):
        table = Table.from_records(
            [{"k": "b", "v": 2}, {"k": "a", "v": 3}, {"k": "c", "v": 1}]
        )
        assert table.select("v").columns == ("v",)
        with pytest.raises(KeyError):
            table.select("nope")
        assert len(table.where(lambda row: row["v"] > 1)) == 2
        assert table.sort_by("k").column("k") == ["a", "b", "c"]
        assert table.sort_by("v", reverse=True).column("v") == [3, 2, 1]

    def test_sort_by_handles_none_and_mixed_types(self):
        table = Table.from_records([{"v": "z"}, {"v": None}, {"v": 1}])
        assert table.sort_by("v").column("v") == [None, 1, "z"]

    def test_group_by_preserves_insertion_order(self):
        table = Table.from_records(
            [{"g": "x", "v": 1}, {"g": "y", "v": 2}, {"g": "x", "v": 3}]
        )
        groups = table.group_by("g")
        assert [key for key, _ in groups.items()] == [("x",), ("y",)]
        assert groups[("x",)].column("v") == [1, 3]

    def test_pivot_wide_with_missing_cells(self):
        table = Table.from_records(
            [
                {"scn": "s1", "metric": "lat", "value": 1.0},
                {"scn": "s1", "metric": "nrg", "value": 2.0},
                {"scn": "s2", "metric": "lat", "value": 3.0},
            ]
        )
        wide = table.pivot("scn", "metric", "value")
        assert wide.columns == ("scn", "lat", "nrg")
        assert wide.rows[1]["nrg"] is None

    def test_csv_round_trip_preserves_types(self):
        table = Table.from_records(
            [{"i": 7, "f": 0.1, "s": "x,y", "b": True, "n": None}]
        )
        back = Table.from_csv(table.to_csv())
        assert back.rows == table.rows
        assert back.column_types() == table.column_types()

    def test_csv_round_trip_survives_nan_and_inf(self):
        table = Table.from_records(
            [{"v": float("nan")}, {"v": float("inf")}, {"v": float("-inf")}, {"v": 0.1}]
        )
        back = Table.from_csv(table.to_csv())
        values = back.column("v")
        assert math.isnan(values[0])
        assert values[1] == math.inf and values[2] == -math.inf
        assert values[3] == 0.1
        assert nan_safe_equal(values[0], float("nan"))
        assert not nan_safe_equal(values[0], 0.0)

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

    def test_scenario_table_wide_union_of_metrics(self):
        manifest = _manifest(
            scenarios=[
                _scenario("s1", {"lat": 1.0}),
                _scenario("s2", {"nrg": 2.0, "lat": 3.0}),
            ]
        )
        table = scenario_table(manifest)
        assert table.columns == ("scenario", "kind", "status", "lat", "nrg")
        assert table.rows[0]["nrg"] is None
        assert table.rows[1]["lat"] == 3.0


class TestTelemetryLoaders:
    def test_telemetry_table_sections(self):
        registry = Telemetry()
        registry.add("frames", 3)
        registry.gauge("depth", 2.0)
        registry.record("lat_ms", 5.0)
        with registry.span("run", points=12):
            pass
        table = telemetry_table(registry.snapshot())
        sections = set(table.column("section"))
        assert sections == {"counter", "gauge", "histogram", "span"}
        span_rows = table.where(lambda row: row["section"] == "span")
        assert span_rows.rows[0]["counter"] == "points"
        assert span_rows.rows[0]["counter_value"] == 12


class TestRunHistory:
    def test_empty_and_missing_directory(self, tmp_path):
        assert RunHistory.load(tmp_path).n_runs == 0
        assert RunHistory.load(tmp_path / "absent").n_runs == 0
        empty = RunHistory.load(tmp_path)
        assert empty.metrics() == []
        assert empty.series("s", "m") == []
        assert len(empty.table()) == 0

    def test_unparseable_files_are_skipped_with_warning(self, tmp_path):
        (tmp_path / "junk.json").write_text("{not json")
        (tmp_path / "other.json").write_text('{"no": "schema"}')
        _manifest(scenarios=[_scenario("s", {"m": 1.0})]).save(tmp_path / "run.json")
        with pytest.warns(UserWarning, match="skipping"):
            history = RunHistory.load(tmp_path)
        assert history.n_runs == 1

    def test_single_run_history_has_no_deltas(self, tmp_path):
        _manifest(scenarios=[_scenario("s", {"m": 1.0})]).save(tmp_path / "run.json")
        history = RunHistory.load(tmp_path)
        series = history.series("s", "m")
        assert series == [
            HistoryPoint(run="run", git_sha="a" * 40, spec_hash="b" * 64, status="ok", value=1.0)
        ]
        assert history.deltas("s", "m") == []

    def test_series_across_runs_and_error_status(self, tmp_path):
        _manifest(scenarios=[_scenario("s", {"m": 1.0})]).save(tmp_path / "a_run.json")
        _manifest(scenarios=[_scenario("s", {}, status="error")]).save(tmp_path / "b_run.json")
        _manifest(scenarios=[_scenario("s", {"m": 4.0})]).save(tmp_path / "c_run.json")
        history = RunHistory.load(tmp_path)
        series = history.series("s", "m")
        assert [point.value for point in series] == [1.0, None, 4.0]
        assert [point.status for point in series] == ["ok", "error", "ok"]
        # The None gap is skipped, not treated as zero.
        assert history.deltas("s", "m") == [3.0]
        assert history.metrics() == [("s", "m")]

    def test_table_flattens_runs_long(self, tmp_path):
        _manifest(scenarios=[_scenario("s", {"m": 1.0, "k": 2.0})]).save(
            tmp_path / "run.json"
        )
        table = RunHistory.load(tmp_path).table()
        assert table.columns == (
            "run",
            "git_sha",
            "spec_hash",
            "scenario",
            "status",
            "metric",
            "value",
        )
        assert len(table) == 2
        assert table.rows[0]["spec_hash"] == "b" * 12
