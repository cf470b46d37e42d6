"""Integration tests: figure byte-identity gate and the profile diff CLI.

These exercise the two acceptance criteria of the figures subsystem end to
end: every committed ``results/`` text artifact must regenerate
byte-identically through the registry, and ``repro profile --diff`` over
two snapshots of the same serial workload must report zero work delta.
"""

import json
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import bundled_suite
from repro.figures import FIGURES, FigureInputs, check_figures

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = REPO_ROOT / "results"


class TestByteIdentity:
    def test_every_committed_artifact_reproduces_byte_identically(self):
        outcomes = check_figures(FigureInputs(quick=False), results_dir=RESULTS_DIR)
        gated = [spec for spec in FIGURES.values() if spec.artifact]
        assert len(outcomes) == len(gated)
        drifted = [outcome for outcome in outcomes if not outcome.ok]
        assert not drifted, (
            "artifact drift — regenerate with 'python -m repro.evaluation.run_all': "
            + ", ".join(f"{outcome.artifact} ({outcome.status})" for outcome in drifted)
        )

    def test_cli_check_exits_zero_against_committed_results(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        exit_code = cli.main(["figures", "check"])
        captured = capsys.readouterr()
        assert exit_code == 0, captured.out
        assert "reproduce byte-identically" in captured.out

    def test_cli_check_in_an_empty_directory_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
        exit_code = cli.main(["figures", "check"])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "missing" in out
        # The hint names the command that rewrites results/<name>.txt.
        assert "python -m repro.evaluation.run_all" in out
        assert list(tmp_path.iterdir()) == []


class TestCliBuild:
    def test_build_all_quick_writes_artifact_triples(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        out = tmp_path / "figures"
        exit_code = cli.main(
            ["figures", "build", "--all", "--quick", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0, captured.out
        # Every registered figure is built: the 20 generator figures and
        # the 4 manifest dashboards, three files each.
        assert len(FIGURES) == 24
        assert len(list(out.iterdir())) == 3 * len(FIGURES)
        for name in FIGURES:
            assert (out / f"{name}.txt").is_file()
            assert (out / f"{name}.csv").is_file()
            spec = json.loads((out / f"{name}.vl.json").read_text())
            assert spec["data"]["url"] == f"{name}.csv"

    def test_list_names_every_figure(self, capsys):
        assert cli.main(["figures", "list"]) == 0
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out


class TestProfileDiff:
    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        """Two telemetry snapshots of the same serial batch workloads."""
        directory = tmp_path_factory.mktemp("snapshots")
        paths = [directory / "a.json", directory / "b.json"]
        sweeps = ["fig4_sweep_local", "fig4_sweep_remote", "fig5_sweep_split"]
        for path in paths:
            assert cli.main(["profile", "--select", *sweeps, "--json", str(path)]) == 0
        return paths

    def test_same_run_reports_zero_work_delta(self, snapshots, capsys):
        capsys.readouterr()
        exit_code = cli.main(
            ["profile", "--diff", str(snapshots[0]), str(snapshots[1])]
        )
        out = capsys.readouterr().out
        assert exit_code == 0, out
        assert "verdict: identical work (max counter delta 0)" in out

    def test_diverged_snapshot_exits_nonzero(self, snapshots, tmp_path, capsys):
        payload = json.loads(snapshots[0].read_text())
        # A counter present on only one side counts at full magnitude.
        payload["counters"]["extra_work"] = 7.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        capsys.readouterr()
        exit_code = cli.main(["profile", "--diff", str(snapshots[0]), str(tampered)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "WORK DIVERGED" in out

    def test_profile_without_select_runs_the_whole_suite(self, tmp_path, capsys):
        path = tmp_path / "suite.json"
        assert cli.main(["profile", "--json", str(path)]) == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters["experiments.scenarios"] == len(bundled_suite()) == 17
        assert "17 of 17 bundled scenarios" in capsys.readouterr().out

    def test_profile_unknown_scenario_exits_2(self, capsys):
        exit_code = cli.main(["profile", "--select", "fig4_sweep_local", "nonsense"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: unknown scenario(s) ['nonsense']")
