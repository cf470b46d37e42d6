"""Unit tests for the experiment runner and run manifests."""

import math
import shutil
import subprocess
from pathlib import Path

import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.experiments import (
    ExperimentRunner,
    RunManifest,
    ScenarioResult,
    ScenarioSpec,
    ScenarioSuite,
    bundled_suite,
    git_sha,
    run_scenario,
    toml_available,
)

requires_toml = pytest.mark.skipif(
    not toml_available(), reason="needs tomllib (Python >= 3.11) or tomli"
)


def _tiny_suite() -> ScenarioSuite:
    return ScenarioSuite(
        name="tiny",
        specs=(
            ScenarioSpec(name="point", kind="analyze", mode="local"),
            ScenarioSpec(
                name="grid",
                kind="sweep",
                params={"frame_sides_px": [300.0, 500.0], "cpu_freqs_ghz": [1.0, 2.0]},
            ),
        ),
    )


class TestRunScenario:
    def test_analyze_metrics(self):
        result = run_scenario(
            ScenarioSpec(name="a", kind="analyze", mode="local", params={"include_aoi": True})
        )
        assert result.status == "ok"
        assert result.metrics["total_latency_ms"] > 0.0
        assert result.metrics["total_energy_mj"] > 0.0
        assert "min_roi" in result.metrics
        assert result.wall_time_s >= 0.0

    def test_sweep_metrics(self):
        result = run_scenario(
            ScenarioSpec(
                name="s",
                kind="sweep",
                params={"frame_sides_px": [300.0, 500.0], "cpu_freqs_ghz": [1.0, 2.0]},
            )
        )
        assert result.status == "ok"
        assert result.metrics["n_points"] == 4
        assert (
            result.metrics["min_latency_ms"]
            <= result.metrics["mean_latency_ms"]
            <= result.metrics["max_latency_ms"]
        )

    def test_fleet_metrics_with_capacity_plan(self):
        result = run_scenario(
            ScenarioSpec(
                name="f",
                kind="fleet",
                params={"users": 8, "policy": "greedy", "slo_ms": 800.0, "plan_capacity": True},
            )
        )
        assert result.status == "ok"
        assert result.metrics["n_users"] == 8
        assert result.metrics["slo_violations"] == 0
        assert "capacity_max_users" in result.metrics

    def test_adapt_metrics_include_static_reference(self):
        result = run_scenario(
            ScenarioSpec(
                name="r",
                kind="adapt",
                seed=2,
                params={"trace": "step", "epochs": 10, "controller": "greedy"},
            )
        )
        assert result.status == "ok"
        assert result.metrics["n_epochs"] == 10
        assert 0.0 <= result.metrics["deadline_miss_rate"] <= 1.0
        assert "static_deadline_miss_rate" in result.metrics

    def test_adapt_static_controller_matches_static_reference(self):
        spec = ScenarioSpec(
            name="r",
            kind="adapt",
            params={"trace": "drift", "epochs": 8, "controller": "static"},
        )
        metrics = run_scenario(spec).metrics
        assert metrics["deadline_miss_rate"] == metrics["static_deadline_miss_rate"]

    def test_cosim_metrics(self):
        result = run_scenario(
            ScenarioSpec(
                name="c",
                kind="cosim",
                params={"trace": "step", "epochs": 5, "users": 4, "controller": "greedy"},
            )
        )
        assert result.status == "ok"
        assert result.metrics["n_users"] == 4
        assert "n_unconverged_epochs" in result.metrics

    def test_expected_drift_flips_status_to_check_failed(self):
        spec = ScenarioSpec(
            name="a",
            kind="analyze",
            mode="local",
            expected={"total_latency_ms": 1.0},  # wildly wrong on purpose
        )
        result = run_scenario(spec)
        assert result.status == "check-failed"
        assert result.checks and "total_latency_ms" in result.checks[0]

    def test_expected_missing_metric_fails_the_check(self):
        spec = ScenarioSpec(name="a", kind="analyze", expected={"does_not_exist": 1.0})
        result = run_scenario(spec)
        assert result.status == "check-failed"
        assert "produced no value" in result.checks[0]

    def test_expected_within_tolerance_passes(self):
        reference = run_scenario(ScenarioSpec(name="a", kind="analyze", mode="local"))
        latency = reference.metrics["total_latency_ms"]
        spec = ScenarioSpec(
            name="a",
            kind="analyze",
            mode="local",
            expected={"total_latency_ms": latency * 1.004},
            tolerances={"total_latency_ms": 0.005},
        )
        assert run_scenario(spec).status == "ok"

    def test_subsystem_error_is_captured_not_raised(self):
        # The override key is legal; the value is rejected by
        # ApplicationConfig at run time, inside the scenario.
        spec = ScenarioSpec(name="bad", kind="analyze", app={"frame_rate_fps": -5.0})
        result = run_scenario(spec)
        assert result.status == "error"
        assert "ConfigurationError" in result.error
        assert result.metrics == {}


class TestRunnerAndManifest:
    def test_serial_run_produces_manifest(self, tmp_path):
        runner = ExperimentRunner(_tiny_suite(), manifest_dir=tmp_path)
        manifest = runner.run()
        assert manifest.passed
        assert manifest.suite == "tiny"
        assert [r.name for r in manifest.scenarios] == ["point", "grid"]
        assert (tmp_path / "tiny.json").exists()

    def test_manifest_save_load_round_trip(self, tmp_path):
        manifest = ExperimentRunner(_tiny_suite(), manifest_dir=None).run(write=False)
        path = manifest.save(tmp_path / "m.json")
        restored = RunManifest.load(path)
        assert restored.to_dict() == manifest.to_dict()

    def test_load_rejects_unknown_schema(self, tmp_path):
        manifest = ExperimentRunner(_tiny_suite(), manifest_dir=None).run(write=False)
        payload = manifest.to_dict()
        payload["schema_version"] = 999
        path = tmp_path / "bad.json"
        import json

        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="schema_version"):
            RunManifest.load(path)

    def test_metric_payload_drops_only_wall_times(self):
        manifest = ExperimentRunner(_tiny_suite(), manifest_dir=None).run(write=False)
        payload = manifest.metric_payload()
        assert "total_wall_time_s" not in payload
        assert all("wall_time_s" not in entry for entry in payload["scenarios"])
        assert payload["spec_hash"] == manifest.spec_hash
        assert payload["scenarios"][0]["metrics"] == dict(manifest.scenarios[0].metrics)

    def test_select_runs_subset_with_matching_hash(self):
        suite = _tiny_suite()
        manifest = ExperimentRunner(suite, manifest_dir=None).run(
            select=["grid"], write=False
        )
        assert [r.name for r in manifest.scenarios] == ["grid"]
        assert manifest.spec_hash == suite.select(["grid"]).spec_hash()

    def test_pool_run_matches_serial_payload(self):
        suite = _tiny_suite()
        runner = ExperimentRunner(suite, manifest_dir=None)
        serial = runner.run(write=False)
        pooled = runner.run(processes=2, write=False)
        assert pooled.metric_payload() == serial.metric_payload()

    def test_scenario_result_round_trip(self):
        result = ScenarioResult(
            name="n",
            kind="analyze",
            status="ok",
            metrics={"m": 1.5, "nan": math.nan},
            tolerances={"m": 0.1},
            checks=("c",),
            wall_time_s=0.5,
        )
        restored = ScenarioResult.from_dict(result.to_dict())
        assert restored.name == result.name
        assert restored.metrics["m"] == 1.5
        assert math.isnan(restored.metrics["nan"])
        assert restored.checks == ("c",)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs the git executable")
def test_git_sha_names_the_package_checkout_not_the_working_directory(tmp_path, monkeypatch):
    def git(*args, cwd):
        return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)

    git("init", "-q", cwd=tmp_path)
    identity = ("-c", "user.name=t", "-c", "user.email=t@t")
    git(*identity, "commit", "-q", "--allow-empty", "-m", "other", cwd=tmp_path)
    other = git("rev-parse", "HEAD", cwd=tmp_path).stdout.strip()
    assert other  # the working directory is a checkout with its own HEAD
    package_dir = Path(repro.__file__).resolve().parent
    package = git("-C", str(package_dir), "rev-parse", "HEAD", cwd=tmp_path)
    expected = package.stdout.strip() if package.returncode == 0 else None
    monkeypatch.chdir(tmp_path)
    assert git_sha() == expected
    assert git_sha(tmp_path) == other


@requires_toml
class TestBundledDeterminism:
    def test_two_serial_runs_identical_modulo_wall_time(self):
        runner = ExperimentRunner(bundled_suite(), manifest_dir=None)
        first = runner.run(write=False)
        second = runner.run(write=False)
        assert first.passed, [
            (r.name, r.status, r.error, r.checks)
            for r in first.scenarios
            if r.status != "ok"
        ]
        assert first.metric_payload() == second.metric_payload()
        # ... while the wall-time fields genuinely exist on both.
        assert first.total_wall_time_s > 0.0
        assert all(r.wall_time_s >= 0.0 for r in first.scenarios)

    def test_bundled_metrics_are_strict_json_finite(self):
        manifest = ExperimentRunner(bundled_suite(), manifest_dir=None).run(write=False)
        for result in manifest.scenarios:
            for metric, value in result.metrics.items():
                if isinstance(value, float):
                    assert math.isfinite(value), (result.name, metric, value)
