"""Unit tests for the lint engine: diagnostics, suppressions, baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Diagnostic,
    LintEngine,
    is_suppressed,
    run_lint,
    save_report,
    suppressed_rules,
)
from repro.analysis.engine import DEFAULT_PATHS, SYNTAX_RULE
from repro.exceptions import ConfigurationError

#: A snippet with exactly one REP001 finding on line 4.
VIOLATING = """\
import time


def stamp():
    return time.time()
"""


def write(tmp_path, rel, content):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)
    return path


class TestDiagnostic:
    def test_round_trips_through_dict(self):
        diagnostic = Diagnostic("REP001", "src/repro/a.py", 7, "boom")
        assert Diagnostic.from_dict(diagnostic.to_dict()) == diagnostic

    def test_format_includes_location_rule_and_message(self):
        rendered = Diagnostic("REP004", "src/repro/a.py", 3, "bad name").format()
        assert rendered == "src/repro/a.py:3: REP004 bad name"

    def test_whole_file_findings_omit_the_line(self):
        rendered = Diagnostic("REP005", "scenarios/x.toml", 0, "broken").format()
        assert rendered.startswith("scenarios/x.toml: REP005")


class TestSuppressions:
    def test_bare_noqa_suppresses_every_rule(self):
        rules = suppressed_rules("x = 1  # repro: noqa\n")
        assert rules == {1: None}
        diagnostic = Diagnostic("REP001", "f.py", 1, "m")
        assert is_suppressed(diagnostic, rules)

    def test_scoped_noqa_suppresses_only_listed_rules(self):
        rules = suppressed_rules("x = 1  # repro: noqa[REP001,REP004]\n")
        assert rules[1] == frozenset({"REP001", "REP004"})
        assert is_suppressed(Diagnostic("REP001", "f.py", 1, "m"), rules)
        assert not is_suppressed(Diagnostic("REP002", "f.py", 1, "m"), rules)

    def test_other_lines_stay_unsuppressed(self):
        rules = suppressed_rules("x = 1  # repro: noqa\ny = 2\n")
        assert not is_suppressed(Diagnostic("REP001", "f.py", 2, "m"), rules)

    def test_plain_ruff_noqa_is_not_a_repro_suppression(self):
        assert suppressed_rules("x = 1  # noqa: F401\n") == {}

    def test_engine_honours_inline_suppression(self, tmp_path):
        write(
            tmp_path,
            "src/repro/mod.py",
            "import time\n\n\ndef stamp():\n    return time.time()  # repro: noqa[REP001]\n",
        )
        report = LintEngine(root=tmp_path, rules=["REP001"]).run(["src"])
        assert report.diagnostics == []
        assert report.suppressed_count == 1
        assert report.exit_code == 0


class TestBaseline:
    def test_missing_file_is_an_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_contains_matches_without_line_numbers(self):
        baseline = Baseline(
            [{"rule": "REP001", "path": "src/repro/a.py", "message": "m"}]
        )
        assert baseline.contains(Diagnostic("REP001", "src/repro/a.py", 999, "m"))
        assert not baseline.contains(Diagnostic("REP002", "src/repro/a.py", 999, "m"))

    def test_malformed_baseline_is_refused(self, tmp_path):
        path = write(tmp_path, "baseline.json", json.dumps({"entries": [{"rule": "X"}]}))
        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_version_mismatch_is_refused(self, tmp_path):
        path = write(tmp_path, "baseline.json", json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_engine_grandfathers_baselined_findings(self, tmp_path):
        write(tmp_path, "src/repro/mod.py", VIOLATING)
        baseline_path = tmp_path / "baseline.json"
        engine = LintEngine(root=tmp_path, rules=["REP001"], baseline_path=baseline_path)
        first = engine.run(["src"])
        assert first.exit_code == 1 and len(first.diagnostics) == 1

        engine.write_baseline(["src"])
        second = engine.run(["src"])
        assert second.exit_code == 0
        assert second.baselined_count == 1
        payload = json.loads(baseline_path.read_text())
        assert payload["version"] == 1
        assert payload["entries"][0]["rule"] == "REP001"
        assert "justification" in payload["entries"][0]

    def test_stale_baseline_entries_are_reported(self, tmp_path):
        write(tmp_path, "src/repro/mod.py", "x = 1\n")
        baseline_path = write(
            tmp_path,
            "baseline.json",
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {"rule": "REP001", "path": "src/repro/mod.py", "message": "gone"}
                    ],
                }
            ),
        )
        report = LintEngine(
            root=tmp_path, rules=["REP001"], baseline_path=baseline_path
        ).run(["src"])
        assert report.exit_code == 0
        assert len(report.stale_baseline) == 1
        assert "stale baseline entry" in report.to_text()


class TestEngine:
    def test_collect_skips_caches_and_results(self, tmp_path):
        write(tmp_path, "src/repro/good.py", "x = 1\n")
        write(tmp_path, "src/repro/__pycache__/junk.py", "x = 1\n")
        write(tmp_path, "results/figure.py", "x = 1\n")
        engine = LintEngine(root=tmp_path)
        files = engine.collect(["src", "results"])
        assert [engine._rel_path(path) for path in files] == ["src/repro/good.py"]

    def test_default_paths_only_include_existing_trees(self, tmp_path):
        write(tmp_path, "src/repro/good.py", "x = 1\n")
        report = LintEngine(root=tmp_path).run()
        assert report.files_checked == 1

    def test_default_paths_name_trees_of_this_repository(self):
        # A default path is skipped silently when absent, so a stale entry
        # (a tree that was deleted) would go unnoticed without this check.
        root = Path(__file__).resolve().parents[2]
        assert [name for name in DEFAULT_PATHS if not (root / name).is_dir()] == []

    def test_unknown_path_is_refused(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LintEngine(root=tmp_path).collect(["nope"])

    def test_unknown_rule_is_refused(self, tmp_path):
        with pytest.raises(ConfigurationError):
            LintEngine(root=tmp_path, rules=["REP999"]).run([])

    def test_syntax_errors_surface_as_rep000(self, tmp_path):
        write(tmp_path, "src/repro/broken.py", "def broken(:\n")
        report = LintEngine(root=tmp_path).run(["src"])
        assert report.exit_code == 1
        assert report.diagnostics[0].rule == SYNTAX_RULE

    def test_diagnostics_sorted_by_path_line_rule(self, tmp_path):
        write(tmp_path, "src/repro/b.py", VIOLATING)
        write(tmp_path, "src/repro/a.py", VIOLATING)
        report = run_lint(["src"], root=tmp_path, rules=["REP001"])
        assert [d.path for d in report.diagnostics] == [
            "src/repro/a.py",
            "src/repro/b.py",
        ]

    def test_json_report_shape(self, tmp_path):
        write(tmp_path, "src/repro/mod.py", VIOLATING)
        report = run_lint(["src"], root=tmp_path, rules=["REP001"])
        out = tmp_path / "report.json"
        save_report(report, out)
        payload = json.loads(out.read_text())
        assert payload["version"] == 1
        assert payload["passed"] is False
        assert payload["rules"] == ["REP001"]
        assert payload["diagnostics"][0]["rule"] == "REP001"
        assert payload["files_checked"] == 1

    def test_clean_tree_passes(self, tmp_path):
        write(tmp_path, "src/repro/mod.py", "def f():\n    return 1\n")
        report = run_lint(["src"], root=tmp_path)
        assert report.exit_code == 0
        assert report.to_dict()["passed"] is True
