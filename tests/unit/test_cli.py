"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adaptive import CONTROLLERS, TRACE_GENERATORS
from repro.adaptive.runtime import OBJECTIVES
from repro.cli import build_parser, main
from repro.docs.cli_reference import iter_commands
from repro.experiments import ScenarioSpec
from repro.fleet import ADMISSION_POLICIES

SRC = Path(__file__).resolve().parents[2] / "src"

#: (subcommand, flag, the registry its choices must equal).
REGISTRY_FLAGS = (
    ("adapt", "--controller", ("all", *CONTROLLERS)),
    ("cosim", "--controller", tuple(CONTROLLERS)),
    ("faults run", "--controller", tuple(CONTROLLERS)),
    ("adapt", "--trace", tuple(TRACE_GENERATORS)),
    ("cosim", "--trace", tuple(TRACE_GENERATORS)),
    ("faults run", "--trace", tuple(TRACE_GENERATORS)),
    ("adapt", "--objective", OBJECTIVES),
    ("cosim", "--objective", OBJECTIVES),
    ("fleet", "--policy", tuple(ADMISSION_POLICIES)),
)


def _choices(command, flag):
    """The ``choices`` of ``flag`` on the subcommand ``repro <command>``."""
    parsers = {path: parser for path, parser, _ in iter_commands(build_parser())}
    parser = parsers[("repro", *command.split())]
    (action,) = [a for a in parser._actions if flag in a.option_strings]
    return tuple(action.choices)


def _run_with_closed_stdout(*argv):
    """Run ``python -m repro *argv`` with a stdout pipe nobody reads.

    The reader has gone before the first write, as the reader of
    ``repro tables | head -1`` has once head has its line.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            cwd=SRC.parent,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command, flag, registry",
        REGISTRY_FLAGS,
        ids=[f"{command.replace(' ', '-')}{flag}" for command, flag, _ in REGISTRY_FLAGS],
    )
    def test_choices_are_the_registry_keys(self, command, flag, registry):
        assert _choices(command, flag) == registry

    def test_every_controller_builds_a_valid_scenario(self):
        assert tuple(CONTROLLERS) == ("hysteresis", "greedy", "ewma")
        for name in CONTROLLERS:
            for kind in ("adapt", "cosim"):
                spec = ScenarioSpec(name=name, kind=kind, params={"controller": name})
                assert spec.params["controller"] == name

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_device_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--device", "PIXEL9"])


class TestCommands:
    def test_analyze_prints_report(self, capsys):
        assert main(["analyze", "--device", "XR2", "--mode", "remote"]) == 0
        output = capsys.readouterr().out
        assert "Latency (ms):" in output
        assert "Energy (mJ):" in output

    def test_analyze_rejects_infinite_clock(self, capsys):
        assert main(["analyze", "--device", "XR1", "--cpu-freq", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err

    def test_closed_stdout_exits_1_without_traceback(self):
        completed = _run_with_closed_stdout("tables")
        assert completed.returncode == 1
        assert completed.stderr == b""

    def test_closed_stdout_still_writes_the_telemetry_snapshot(self, tmp_path):
        import json

        snapshot = tmp_path / "telemetry.json"
        completed = _run_with_closed_stdout(
            "experiments",
            "run",
            "--select", "table1_analyze_xr1_local",
            "--out", str(tmp_path / "manifest.json"),
            "--telemetry", str(snapshot),
        )
        assert completed.returncode == 1
        assert completed.stderr == b""
        # --telemetry persists the snapshot whatever the exit path.
        assert "experiments.run" in json.loads(snapshot.read_text())["spans"]

    def test_sweep_prints_all_points(self, capsys):
        assert main(["sweep", "--device", "XR1"]) == 0
        output = capsys.readouterr().out
        assert output.count("\n") >= 16  # 15 sweep rows + header

    def test_offload_ranks_three_placements(self, capsys):
        assert main(["offload", "--device", "XR6", "--objective", "energy"]) == 0
        output = capsys.readouterr().out
        assert "1." in output and "3." in output
        assert "local" in output and "remote" in output

    def test_aoi_reports_each_frequency(self, capsys):
        assert main(["aoi", "--frequencies", "200", "100", "50"]) == 0
        output = capsys.readouterr().out
        for frequency in ("200", "100", "50"):
            assert frequency in output

    def test_aoi_rejects_infinite_horizon(self, capsys):
        assert main(["aoi", "--horizon", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: horizon_ms"), captured.err

    def test_session_analytical_mode(self, capsys):
        assert main(["session", "--device", "XR6", "--frames", "20", "--analytical"]) == 0
        assert "battery" in capsys.readouterr().out

    def test_cosim_prints_closed_loop_summary(self, capsys):
        assert main(
            [
                "cosim",
                "--users", "6",
                "--epochs", "10",
                "--controller", "greedy",
                "--edge-servers", "2",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "Closed-loop co-simulation" in output
        assert "fixed point" in output
        assert "offload fraction" in output

    def test_cosim_has_no_damping_flag(self, capsys):
        # The relaxation weight is the engine's DAMPING constant.
        with pytest.raises(SystemExit) as excinfo:
            main(["cosim", "--damping", "0.5"])
        assert excinfo.value.code == 2
        assert "--damping" in capsys.readouterr().err

    def test_cosim_sharded_run(self, capsys):
        assert main(
            [
                "cosim",
                "--users", "8",
                "--epochs", "6",
                "--controller", "hysteresis",
                "--shards", "2",
            ]
        ) == 0
        assert "independent cells" in capsys.readouterr().out

    def test_adapt_compares_controllers_to_best_static(self, capsys):
        assert main(["adapt", "--epochs", "50", "--trace", "burst"]) == 0
        output = capsys.readouterr().out
        assert "static[" in output
        assert "hysteresis" in output
        assert "greedy-sweep" in output
        assert "ewma-predictive" in output
        assert "best static operating point" in output

    def test_adapt_single_controller_and_objective(self, capsys):
        assert main(
            [
                "adapt",
                "--epochs", "30",
                "--trace", "drift",
                "--controller", "greedy",
                "--objective", "energy",
                "--deadline-ms", "400",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "greedy-sweep" in output
        assert "ewma-predictive" not in output
        assert "objective 'energy'" in output

    def test_adapt_rejects_unknown_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["adapt", "--trace", "tsunami"])

    def test_fleet_prints_report_and_capacity(self, capsys):
        assert main(["fleet", "--device", "XR1", "--edge", "EDGE-AGX", "--users", "16"]) == 0
        output = capsys.readouterr().out
        for token in ("p50", "p95", "p99", "fleet total", "Capacity plan"):
            assert token in output

    def test_fleet_no_capacity_flag(self, capsys):
        assert main(["fleet", "--users", "4", "--no-capacity"]) == 0
        output = capsys.readouterr().out
        assert "Capacity plan" not in output

    def test_fleet_mixed_devices_and_policies(self, capsys):
        assert (
            main(
                [
                    "fleet",
                    "--users",
                    "6",
                    "--mixed-devices",
                    "XR1",
                    "XR3",
                    "--policy",
                    "energy",
                    "--no-capacity",
                ]
            )
            == 0
        )
        assert "mixed" in capsys.readouterr().out

    def test_tables_prints_both_tables(self, capsys):
        assert main(["tables"]) == 0
        output = capsys.readouterr().out
        assert "Table I:" in output
        assert "Table II:" in output

    def test_validate_quick(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["validate", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 4a" in output
        assert "reproduction mean error" in output


class TestExperimentsCommand:
    def _suite_file(self, tmp_path):
        import json

        path = tmp_path / "suite.json"
        path.write_text(
            json.dumps(
                {
                    "scenarios": [
                        {"name": "point", "kind": "analyze", "mode": "local"},
                        {
                            "name": "grid",
                            "kind": "sweep",
                            "params": {
                                "frame_sides_px": [300.0, 500.0],
                                "cpu_freqs_ghz": [1.0],
                            },
                        },
                    ]
                }
            )
        )
        return path

    def test_list_prints_scenario_table(self, tmp_path, capsys):
        path = self._suite_file(tmp_path)
        assert main(["experiments", "list", "--suite", str(path)]) == 0
        output = capsys.readouterr().out
        assert "point" in output and "grid" in output
        assert "spec hash" in output

    def test_run_writes_manifest_and_check_passes_against_it(self, tmp_path, capsys):
        import json

        suite = self._suite_file(tmp_path)
        manifest = tmp_path / "manifest.json"
        assert (
            main(["experiments", "run", "--suite", str(suite), "--out", str(manifest)])
            == 0
        )
        payload = json.loads(manifest.read_text())
        assert [s["name"] for s in payload["scenarios"]] == ["point", "grid"]
        assert payload["repro_version"]
        capsys.readouterr()
        assert (
            main(
                [
                    "experiments",
                    "check",
                    "--suite", str(suite),
                    "--manifest", str(manifest),
                    "--baseline", str(manifest),
                ]
            )
            == 0
        )
        assert "PASS" in capsys.readouterr().out

    def test_check_fails_on_doctored_baseline(self, tmp_path, capsys):
        import json

        suite = self._suite_file(tmp_path)
        manifest = tmp_path / "manifest.json"
        assert (
            main(["experiments", "run", "--suite", str(suite), "--out", str(manifest)])
            == 0
        )
        payload = json.loads(manifest.read_text())
        payload["scenarios"][0]["metrics"]["total_latency_ms"] *= 2.0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        capsys.readouterr()
        assert (
            main(
                [
                    "experiments",
                    "check",
                    "--suite", str(suite),
                    "--manifest", str(manifest),
                    "--baseline", str(baseline),
                ]
            )
            == 1
        )
        output = capsys.readouterr().out
        assert "FAIL" in output
        # Drifting metrics render as an aligned scenario/metric table with
        # the relative error as its own column.
        assert "point/total_latency_ms" in output
        assert "rel_err" in output

    def test_check_against_a_missing_baseline_is_an_error(self, tmp_path, capsys):
        suite = self._suite_file(tmp_path)
        absent = tmp_path / "absent.json"
        argv = ["experiments", "check", "--suite", str(suite), "--baseline", str(absent)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "does not exist" in line

    def test_run_select_subset(self, tmp_path, capsys):
        suite = self._suite_file(tmp_path)
        out = tmp_path / "selected.json"
        assert (
            main(
                [
                    "experiments",
                    "run",
                    "--suite", str(suite),
                    "--select", "grid",
                    "--out", str(out),
                ]
            )
            == 0
        )
        assert "grid" in capsys.readouterr().out

class TestProfileAndTelemetry:
    def test_profile_batch_prints_span_tree(self, capsys):
        assert main(["profile", "--select", "fig4_sweep_local"]) == 0
        output = capsys.readouterr().out
        assert "Telemetry profile — 1 of 17 bundled scenarios" in output
        assert "span tree" in output
        assert "batch.evaluate_grid" in output
        assert "lru_cache" in output

    def test_profile_cosim_reports_convergence_counters(self, capsys):
        assert main(["profile", "--select", "cosim_burst_hysteresis"]) == 0
        output = capsys.readouterr().out
        assert "cosim.run" in output
        assert "cosim.epochs" in output
        assert "cosim.best_response_iterations" in output
        assert "cosim.iterations_per_epoch" in output

    def test_profile_writes_snapshot_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "profile.json"
        assert main(
            ["profile", "--select", "faults_adapt_outage", "--json", str(path)]
        ) == 0
        snapshot = json.loads(path.read_text())
        # The greedy run and the static reference, 30 epochs each.
        assert snapshot["counters"]["adaptive.epochs"] == 60
        scenario = snapshot["spans"]["experiments.run"]["children"][
            "experiments.scenario.faults_adapt_outage"
        ]
        assert "adaptive.run" in scenario["children"]
        assert "wrote" in capsys.readouterr().out

    def test_profile_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "nonsense"])

    def test_experiments_run_telemetry_flag_writes_snapshot(self, tmp_path, capsys):
        import json

        path = tmp_path / "telemetry.json"
        out = tmp_path / "manifest.json"
        assert main(
            [
                "experiments",
                "run",
                "--select", "table1_analyze_xr1_local",
                "--out", str(out),
                "--telemetry", str(path),
            ]
        ) == 0
        snapshot = json.loads(path.read_text())
        assert "experiments.run" in snapshot["spans"]
        assert snapshot["counters"]["experiments.scenarios"] == 1
        assert "wrote telemetry snapshot" in capsys.readouterr().out
        manifest = json.loads(out.read_text())
        assert "telemetry" in manifest
