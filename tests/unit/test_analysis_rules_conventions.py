"""Fixture tests for the convention rules: REP004, REP005, REP006.

Each rule gets at least one clean fixture and two violating ones.
"""

from __future__ import annotations

from repro.analysis import run_lint


def lint(tmp_path, source, rule, rel="src/repro/mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_lint([rel], root=tmp_path, rules=[rule]).diagnostics


class TestREP004TelemetryNaming:
    def test_well_formed_names_pass(self, tmp_path):
        clean = (
            "from repro import telemetry\n"
            "\n"
            "\n"
            "def work(registry, n):\n"
            "    registry.add('fleet.users_admitted', n)\n"
            "    registry.gauge('fleet.queue_depth', n)\n"
            "    registry.record('cosim.epoch.latency_ms', 1.5)\n"
            "    with telemetry.get().span('fleet.analyze'):\n"
            "        pass\n"
        )
        assert lint(tmp_path, clean, "REP004") == []

    def test_single_segment_name_flagged(self, tmp_path):
        source = "def work(registry):\n    registry.add('hits', 1)\n"
        found = lint(tmp_path, source, "REP004")
        assert len(found) == 1 and "dotted segment" in found[0].message

    def test_malformed_segment_flagged(self, tmp_path):
        source = "def work(registry):\n    registry.add('Fleet.Users', 1)\n"
        found = lint(tmp_path, source, "REP004")
        assert len(found) == 1 and "naming convention" in found[0].message

    def test_cross_kind_collision_flagged(self, tmp_path):
        source = (
            "from repro import telemetry\n"
            "\n"
            "\n"
            "def work(registry):\n"
            "    registry.add('fleet.analyze', 1)\n"
            "    with telemetry.get().span('fleet.analyze'):\n"
            "        pass\n"
        )
        found = lint(tmp_path, source, "REP004")
        assert len(found) == 1
        assert "span" in found[0].message and "counter" in found[0].message

    def test_same_kind_shared_name_is_allowed(self, tmp_path):
        clean = (
            "def a(registry):\n"
            "    registry.add('faults.epochs_faulted', 1)\n"
            "\n"
            "\n"
            "def b(registry):\n"
            "    registry.add('faults.epochs_faulted', 1)\n"
        )
        assert lint(tmp_path, clean, "REP004") == []

    def test_fstring_literal_head_validated(self, tmp_path):
        bad = (
            "def work(registry, key):\n"
            "    registry.add(f'Fleet.{key}.count', 1)\n"
        )
        found = lint(tmp_path, bad, "REP004")
        assert len(found) == 1 and "literal head" in found[0].message
        clean = (
            "def work(registry, key):\n"
            "    registry.add(f'fleet.{key}.count', 1)\n"
            "    registry.add(f'{key}.count', 1)\n"
        )
        assert lint(tmp_path, clean, "REP004") == []

    def test_non_registry_receivers_ignored(self, tmp_path):
        clean = (
            "def work(numbers):\n"
            "    numbers.add('whatever')\n"
            "    total = sum(numbers)\n"
            "    return total\n"
        )
        assert lint(tmp_path, clean, "REP004") == []


VALID_SCENARIO = """\
[[scenario]]
name = "lint_fixture_analyze"
kind = "analyze"
description = "fixture"
device = "XR1"
mode = "local"
"""


class TestREP005SpecLint:
    def test_valid_scenario_passes(self, tmp_path):
        rel = "scenarios/good.toml"
        assert lint(tmp_path, VALID_SCENARIO, "REP005", rel=rel) == []

    def test_non_scenario_toml_skipped(self, tmp_path):
        rel = "scenarios/pyproject.toml"
        assert lint(tmp_path, "[project]\nname = 'x'\n", "REP005", rel=rel) == []

    def test_toml_parse_error_flagged(self, tmp_path):
        rel = "scenarios/broken.toml"
        found = lint(tmp_path, "[[scenario]\nname = ", "REP005", rel=rel)
        assert len(found) == 1 and "TOML parse error" in found[0].message

    def test_unknown_kind_flagged_with_line_anchor(self, tmp_path):
        source = VALID_SCENARIO.replace('kind = "analyze"', 'kind = "teleport"')
        found = lint(tmp_path, source, "REP005", rel="scenarios/bad_kind.toml")
        assert len(found) == 1
        assert "invalid scenario" in found[0].message
        assert found[0].line == 2  # anchored to the name = ... line

    def test_unknown_device_flagged(self, tmp_path):
        source = VALID_SCENARIO.replace('device = "XR1"', 'device = "XR99"')
        found = lint(tmp_path, source, "REP005", rel="scenarios/bad_device.toml")
        assert len(found) == 1 and "invalid scenario" in found[0].message

    def test_static_cosim_controller_flagged(self, tmp_path):
        source = VALID_SCENARIO.replace('kind = "analyze"', 'kind = "cosim"').replace(
            'mode = "local"', 'mode = "local"\n[scenario.params]\ncontroller = "static"'
        )
        found = lint(tmp_path, source, "REP005", rel="scenarios/static_cosim.toml")
        assert len(found) == 1 and "controller" in found[0].message

    def test_unknown_objective_flagged(self, tmp_path):
        source = VALID_SCENARIO.replace('kind = "analyze"', 'kind = "adapt"').replace(
            'mode = "local"', 'mode = "local"\n[scenario.params]\nobjective = "bogus"'
        )
        found = lint(tmp_path, source, "REP005", rel="scenarios/bad_objective.toml")
        assert len(found) == 1 and "objective" in found[0].message

    def test_duplicate_names_flagged(self, tmp_path):
        source = VALID_SCENARIO + "\n" + VALID_SCENARIO
        found = lint(tmp_path, source, "REP005", rel="scenarios/dupes.toml")
        assert len(found) == 1 and "duplicate scenario name" in found[0].message

    def test_bundled_scenarios_are_clean(self, tmp_path):
        import repro.experiments as experiments
        from pathlib import Path

        scenarios = Path(experiments.__file__).parent / "scenarios"
        report = run_lint(
            [str(scenarios)], root=scenarios.parents[3], rules=["REP005"]
        )
        assert report.files_checked >= 5
        assert report.diagnostics == []


class TestREP006ExportConsistency:
    def test_consistent_init_passes(self, tmp_path):
        clean = (
            "from pathlib import Path\n"
            "\n"
            "from repro.mypkg.core import thing\n"
            "\n"
            "CONSTANT = 1\n"
            "\n"
            "__all__ = ['CONSTANT', 'thing']\n"
        )
        assert lint(tmp_path, clean, "REP006", rel="src/repro/mypkg/__init__.py") == []

    def test_phantom_export_flagged(self, tmp_path):
        source = "__all__ = ['ghost']\n"
        found = lint(tmp_path, source, "REP006", rel="src/repro/mypkg/__init__.py")
        assert len(found) == 1 and "never defines" in found[0].message

    def test_missing_reexport_flagged(self, tmp_path):
        source = (
            "from repro.mypkg.core import hidden, shown\n"
            "\n"
            "__all__ = ['shown']\n"
        )
        found = lint(tmp_path, source, "REP006", rel="src/repro/mypkg/__init__.py")
        assert len(found) == 1
        assert "hidden" in found[0].message and "missing from __all__" in found[0].message

    def test_relative_imports_count_as_internal(self, tmp_path):
        source = (
            "from .core import helper\n"
            "\n"
            "__all__ = []\n"
        )
        found = lint(tmp_path, source, "REP006", rel="src/repro/mypkg/__init__.py")
        assert len(found) == 1 and "helper" in found[0].message

    LAZY_INIT = (
        "from repro import _lazy_exports\n"
        "\n"
        "_LAZY = {\n"
        "    'Thing': 'repro.mypkg.core',\n"
        "    'helper': 'repro.mypkg.tools',\n"
        "}\n"
        "\n"
        "__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)\n"
        "\n"
    )

    def test_consistent_lazy_init_passes(self, tmp_path):
        clean = self.LAZY_INIT + "__all__ = ['Thing', 'helper']\n"
        assert lint(tmp_path, clean, "REP006", rel="src/repro/mypkg/__init__.py") == []

    def test_lazy_phantom_export_flagged(self, tmp_path):
        source = self.LAZY_INIT + "__all__ = ['Thing', 'ghost', 'helper']\n"
        found = lint(tmp_path, source, "REP006", rel="src/repro/mypkg/__init__.py")
        assert len(found) == 1
        assert "'ghost'" in found[0].message and "never defines" in found[0].message

    def test_lazy_key_missing_from_all_flagged(self, tmp_path):
        source = self.LAZY_INIT + "__all__ = ['Thing']\n"
        found = lint(tmp_path, source, "REP006", rel="src/repro/mypkg/__init__.py")
        assert len(found) == 1
        assert "'helper'" in found[0].message and "missing from __all__" in found[0].message
        assert found[0].line == 5  # the table key's own line

    def test_stdlib_imports_are_exempt(self, tmp_path):
        clean = (
            "import json\n"
            "from pathlib import Path\n"
            "\n"
            "__all__ = []\n"
        )
        assert lint(tmp_path, clean, "REP006", rel="src/repro/mypkg/__init__.py") == []

    def test_modules_without_all_are_skipped(self, tmp_path):
        clean = "from repro.mypkg.core import anything\n"
        assert lint(tmp_path, clean, "REP006", rel="src/repro/mypkg/__init__.py") == []

    def test_non_init_files_are_skipped(self, tmp_path):
        clean = "__all__ = ['ghost']\n"
        assert lint(tmp_path, clean, "REP006", rel="src/repro/mypkg/mod.py") == []
