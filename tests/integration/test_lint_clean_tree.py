"""Integration test: the committed tree passes its own lint gate.

This is the acceptance criterion of the analysis subsystem — ``repro lint``
over the real ``src``/``tests``/``examples`` trees (and the bundled
scenario TOMLs) must exit 0 with the committed baseline.  The
baseline is a ratchet, not a dumping ground: every entry is a REP007
docstring gap grandfathered when the rule was introduced, and each carries
a real justification.  If this test fails, either fix the violation or
suppress it with an inline ``# repro: noqa[RULE]`` carrying a reason;
growing ``lint-baseline.json`` is the last resort.
"""

import json
from pathlib import Path

from repro.analysis import Baseline, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCleanTree:
    def test_repo_lints_clean_with_every_rule(self):
        report = run_lint(
            root=REPO_ROOT, baseline_path=REPO_ROOT / "lint-baseline.json"
        )
        formatted = "\n".join(d.format() for d in report.diagnostics)
        assert report.exit_code == 0, f"repro lint found violations:\n{formatted}"
        assert report.files_checked > 200
        assert report.rules_run == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
        ]

    def test_committed_baseline_is_a_justified_rep007_ratchet(self):
        """Baseline entries are grandfathered REP007 gaps only, all justified."""
        path = REPO_ROOT / "lint-baseline.json"
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        for entry in payload["entries"]:
            assert entry["rule"] == "REP007", (
                "only REP007 docstring gaps may be grandfathered; fix "
                f"{entry['rule']} findings at the source instead"
            )
            justification = entry.get("justification", "")
            assert justification and "TODO" not in justification, (
                f"baseline entry for {entry['path']} needs a real justification"
            )
        assert len(Baseline.load(path)) == len(payload["entries"])

    def test_baseline_is_not_stale(self):
        """Every baseline entry still matches a live finding (ratchet down)."""
        report = run_lint(root=REPO_ROOT, rules=["REP007"])
        live = {(d.rule, d.path, d.message) for d in report.diagnostics}
        payload = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
        for entry in payload["entries"]:
            key = (entry["rule"], entry["path"], entry["message"])
            assert key in live, (
                f"stale baseline entry (finding fixed - delete it): {key}"
            )
