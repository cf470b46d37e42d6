"""Tests for :mod:`repro.docs`: deterministic rendering, the env-var
registry sweep, and the build/check drift gate.

The acceptance pin of the docs subsystem lives here: a doctored
``docs/CLI.md`` makes ``repro docs check`` exit non-zero.
"""

from pathlib import Path

import pytest

from repro import cli, telemetry
from repro.docs import (
    ENV_VARS,
    GENERATED_DOCS,
    GENERATED_MARKER,
    build_docs,
    check_docs,
    env_var_names,
    iter_commands,
    render_cli_markdown,
    render_env_table,
    stale_names,
    undocumented_names,
)


@pytest.fixture(autouse=True)
def _null_registry():
    telemetry.disable()
    yield
    telemetry.disable()


class TestCliRendering:
    def test_two_renders_are_byte_identical(self):
        assert render_cli_markdown() == render_cli_markdown()

    def test_render_is_env_independent(self, monkeypatch):
        reference = render_cli_markdown()
        # Parser-build-time defaults must be scrubbed, not inherited.
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE", "0.05")
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
        assert render_cli_markdown() == reference

    def test_marker_and_trailing_newline_present(self):
        text = render_cli_markdown()
        assert GENERATED_MARKER in text
        assert text.endswith("\n")

    def test_every_subcommand_gets_a_section(self):
        text = render_cli_markdown()
        for heading in (
            "## `repro`",
            "## `repro analyze`",
            "## `repro experiments run`",
            "## `repro docs check`",
            "## `repro lint`",
            "## Environment variables",
        ):
            assert heading in text, heading

    def test_backend_flag_documented_with_choices(self):
        text = render_cli_markdown()
        assert "`--backend`" in text
        assert "`process`" in text and "`serial`" in text
        backend_rows = [
            line for line in text.splitlines() if line.startswith("| `--backend` |")
        ]
        assert backend_rows
        for row in backend_rows:
            assert "(choices: `process`, `serial`)" in row
            assert "thread" not in row

    def test_iter_commands_walks_the_whole_tree(self):
        paths = [
            " ".join(path)
            for path, _, _ in iter_commands(cli.build_parser())
        ]
        assert paths[0] == "repro"
        assert "repro experiments run" in paths
        assert "repro docs build" in paths
        assert len(paths) == len(set(paths))  # aliases deduplicated


class TestEnvVarRegistry:
    def test_registry_sorted_and_complete(self):
        names = [var.name for var in ENV_VARS]
        assert names == sorted(names)
        assert "REPRO_EXEC_BACKEND" in names
        assert "REPRO_EXEC_TIMEOUT_S" in names

    def test_every_entry_fully_described(self):
        for var in ENV_VARS:
            assert var.name.startswith("REPRO_")
            assert var.default
            assert var.consumer
            assert var.description

    def test_rendered_table_covers_every_entry(self):
        table = render_env_table()
        for name in env_var_names():
            assert f"`{name}`" in table

    def test_sweep_is_clean_against_this_repository(self):
        root = Path(__file__).resolve().parents[2]
        assert undocumented_names(root) == []
        assert stale_names(root) == []

    def test_sweep_flags_undocumented_and_stale(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            'import os\nos.environ.get("REPRO_MYSTERY_KNOB")\n',
            encoding="utf-8",
        )
        assert undocumented_names(tmp_path) == ["REPRO_MYSTERY_KNOB"]
        # None of the registered names appear in this synthetic tree.
        assert stale_names(tmp_path) == sorted(env_var_names())

    def test_sweep_ignores_wildcard_family_prose(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "mod.py").write_text(
            "# the REPRO_CHAOS_* hooks live elsewhere\n", encoding="utf-8"
        )
        assert undocumented_names(tmp_path) == []


class TestBuildCheckRoundTrip:
    def test_build_then_check_is_clean(self, tmp_path):
        docs_dir = tmp_path / "docs"
        written = build_docs(docs_dir)
        assert sorted(p.name for p in written) == sorted(GENERATED_DOCS)
        root = Path(__file__).resolve().parents[2]
        outcomes = check_docs(docs_dir, root=root)
        assert all(outcome.ok for outcome in outcomes)

    def test_missing_page_reported(self, tmp_path):
        outcomes = check_docs(tmp_path / "docs", root=tmp_path)
        statuses = {o.name: o.status for o in outcomes}
        assert statuses["CLI.md"] == "missing"

    def test_doctored_page_reported_as_drift(self, tmp_path):
        docs_dir = tmp_path / "docs"
        build_docs(docs_dir)
        page = docs_dir / "CLI.md"
        page.write_text(
            page.read_text(encoding="utf-8") + "\nhand edit\n",
            encoding="utf-8",
        )
        root = Path(__file__).resolve().parents[2]
        outcomes = check_docs(docs_dir, root=root)
        assert [o.status for o in outcomes if o.name == "CLI.md"] == ["drift"]


class TestCliGate:
    """``repro docs check`` exit codes — the acceptance criterion."""

    def test_check_exits_zero_on_fresh_build(self, tmp_path, capsys):
        docs_dir = tmp_path / "docs"
        assert cli.main(["docs", "build", "--dir", str(docs_dir)]) == 0
        root = Path(__file__).resolve().parents[2]
        exit_code = cli.main(
            ["docs", "check", "--dir", str(docs_dir), "--root", str(root)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0, captured.out
        assert "are current" in captured.out

    def test_check_exits_nonzero_on_doctored_cli_md(self, tmp_path, capsys):
        docs_dir = tmp_path / "docs"
        cli.main(["docs", "build", "--dir", str(docs_dir)])
        page = docs_dir / "CLI.md"
        text = page.read_text(encoding="utf-8")
        page.write_text(
            text.replace("# `repro` CLI reference", "# doctored"),
            encoding="utf-8",
        )
        root = Path(__file__).resolve().parents[2]
        exit_code = cli.main(
            ["docs", "check", "--dir", str(docs_dir), "--root", str(root)]
        )
        captured = capsys.readouterr()
        assert exit_code == 1, captured.out
        assert "drift" in captured.out
