"""Unit tests for the figure registry and the manifest-backed dashboards.

Generator-backed figures re-run the (slow) evaluation pipeline; the
byte-identity gate over them lives in the integration suite
(``tests/integration/test_figures_check.py``).  These tests cover the
registry mechanics and the cheap data-backed builders against synthetic
inputs.
"""

import json
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.runner import RunManifest, ScenarioResult
from repro.figures import (
    FIGURES,
    FigureInputs,
    Table,
    build_all,
    build_figure,
    check_figures,
)
from repro.figures.registry import SOURCES, register


def _write_manifest(path, scenarios):
    RunManifest(
        suite="synthetic",
        spec_hash="d" * 64,
        scenarios=tuple(scenarios),
        git_sha="e" * 40,
    ).save(path)


def _scenario(name, kind, metrics, status="ok"):
    return ScenarioResult(name=name, kind=kind, status=status, metrics=dict(metrics))


@pytest.fixture
def inputs(tmp_path):
    manifest = tmp_path / "baseline.json"
    _write_manifest(
        manifest,
        [
            _scenario(
                "fleet_a",
                "fleet",
                {"n_users": 64, "p95_latency_ms": 700.0, "slo_violations": 0},
            ),
            _scenario(
                "adapt_a",
                "adapt",
                {"deadline_miss_rate": 0.1, "mean_quality": 0.9, "switch_count": 3},
            ),
            _scenario(
                "cosim_a",
                "cosim",
                {"convergence_rate": 0.5, "n_users": 16, "deadline_miss_rate": 0.0},
            ),
            _scenario(
                "faults_a",
                "cosim",
                {"availability": 0.9, "fault_epoch_fraction": 0.2, "convergence_rate": 0.8},
            ),
        ],
    )
    return FigureInputs(quick=True, manifest_path=manifest, history_dir=tmp_path)


class TestRegistry:
    def test_expected_builders_registered(self):
        for name in (
            "table_I",
            "table_II",
            "regression_quality",
            "figure_4a",
            "figure_4f",
            "figure_5b",
            "ablation_buffer_model",
            "extension_adaptation",
            "fleet_dashboard",
            "adaptive_dashboard",
            "cosim_dashboard",
            "faults_dashboard",
            "run_history",
            "telemetry_diff",
        ):
            assert name in FIGURES, name

    def test_every_committed_artifact_has_a_registry_entry(self):
        artifacts = {spec.artifact for spec in FIGURES.values() if spec.artifact}
        # Every figure/table/ablation/extension text file the repo commits.
        for expected in (
            "figure_4a.txt",
            "figure_4b.txt",
            "figure_4c.txt",
            "figure_4d.txt",
            "figure_4e.txt",
            "figure_4f.txt",
            "figure_5a.txt",
            "figure_5b.txt",
            "table_I.txt",
            "table_II.txt",
            "regression_quality.txt",
            "ablation_complexity_mode.txt",
            "ablation_memory_term.txt",
            "ablation_coefficient_source.txt",
            "ablation_buffer_model.txt",
            "extension_mobility.txt",
            "extension_pathloss.txt",
            "extension_multi_edge.txt",
            "extension_session.txt",
            "extension_adaptation.txt",
        ):
            assert expected in artifacts, expected

    def test_every_committed_text_file_is_a_registry_artifact(self):
        # ``figures check`` only re-renders registered artifacts, so a text
        # file under results/ that no entry builds would never be checked.
        results = Path(__file__).resolve().parents[2] / "results"
        artifacts = {spec.artifact for spec in FIGURES.values() if spec.artifact}
        committed = {path.name for path in results.glob("*.txt")}
        assert committed and committed - artifacts == set()

    def test_every_source_has_a_builder(self):
        assert {spec.source for spec in FIGURES.values()} == set(SOURCES)

    def test_unknown_figure_raises(self, inputs):
        with pytest.raises(ConfigurationError, match="unknown figure"):
            build_figure("nope", inputs)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register("fleet_dashboard", title="x", source="manifest")(lambda inputs: None)

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError, match="unknown figure source"):
            register("x_bad_source", title="x", source="nope")(lambda inputs: None)


class TestDashboards:
    def test_fleet_dashboard(self, inputs):
        built = build_figure("fleet_dashboard", inputs)
        assert built.table.column("scenario") == ["fleet_a"]
        assert "fleet_a" in built.text
        assert built.spec["$schema"].startswith("https://vega.github.io/schema/vega-lite")

    def test_faults_dashboard_selects_only_fault_scenarios(self, inputs):
        built = build_figure("faults_dashboard", inputs)
        assert built.table.column("scenario") == ["faults_a"]
        assert built.table.rows[0]["availability"] == 0.9

    def test_cosim_dashboard_includes_all_cosim_kinds(self, inputs):
        built = build_figure("cosim_dashboard", inputs)
        assert set(built.table.column("scenario")) == {"cosim_a", "faults_a"}

    def test_run_history_figure_single_run(self, inputs):
        built = build_figure("run_history", inputs)
        assert "1 run(s) indexed" in built.text
        deltas = built.table.column("delta")
        assert deltas and all(delta == 0.0 for delta in deltas)

    def test_snapshot_figure_requires_snapshots(self, inputs):
        with pytest.raises(ConfigurationError, match="two telemetry snapshots"):
            build_figure("telemetry_diff", inputs)

    def test_build_all_skips_snapshot_figures_without_paths(self, inputs):
        names = [name for name, spec in FIGURES.items() if spec.source in ("manifest", "history")]
        built = build_all(inputs, names=names)
        assert [figure.name for figure in built] == names


class TestSaveAndCheck:
    def test_save_writes_text_csv_and_vega_lite(self, inputs, tmp_path):
        built = build_figure("fleet_dashboard", inputs)
        out = tmp_path / "out"
        paths = built.save(out)
        assert [path.name for path in paths] == [
            "fleet_dashboard.txt",
            "fleet_dashboard.csv",
            "fleet_dashboard.vl.json",
        ]
        assert paths[0].read_text().endswith("\n")
        round_trip = Table.from_csv(paths[1].read_text())
        assert round_trip.column("scenario") == ["fleet_a"]
        spec = json.loads(paths[2].read_text())
        assert spec["data"]["url"] == "fleet_dashboard.csv"

    def test_save_is_byte_stable(self, inputs, tmp_path):
        built = build_figure("fleet_dashboard", inputs)
        first = [path.read_bytes() for path in built.save(tmp_path / "a")]
        second = [path.read_bytes() for path in built.save(tmp_path / "b")]
        assert first == second

    def test_check_reports_missing_artifacts(self, inputs, tmp_path):
        outcomes = check_figures(inputs, results_dir=tmp_path)
        assert outcomes and all(outcome.status == "missing" for outcome in outcomes)
        assert not any(outcome.ok for outcome in outcomes)
