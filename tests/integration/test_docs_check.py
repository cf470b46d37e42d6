"""Integration tests: the committed ``docs/`` tree is current.

The docs counterpart of ``tests/integration/test_figures_check.py``: the
generated pages committed under ``docs/`` must re-render byte-identically
from the live code (the CI ``docs-drift`` job runs exactly this), the
hand-written pages the README links to must actually exist, and every
Markdown file the code or the docs name must be in the repository.
"""

import re
from pathlib import Path

from repro import cli
from repro.docs import GENERATED_DOCS, GENERATED_MARKER, check_docs

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"

#: A Markdown file name, with or without a directory in front of it.
_MARKDOWN_NAME = re.compile(r"[A-Za-z0-9_-]+\.md\b")


def _repository_files(root: Path):
    """Files under ``root``, skipping hidden and cache directories."""
    for path in sorted(root.rglob("*")):
        parts = path.relative_to(REPO_ROOT).parts
        if path.is_file() and not any(
            part.startswith(".") or part == "__pycache__" for part in parts
        ):
            yield path


class TestCommittedDocsAreCurrent:
    def test_generated_pages_reproduce_byte_identically(self):
        outcomes = check_docs(DOCS_DIR, root=REPO_ROOT)
        drifted = [o for o in outcomes if not o.ok]
        assert not drifted, (
            "docs drift — regenerate with 'repro docs build': "
            + ", ".join(f"{o.name} ({o.status})" for o in drifted)
        )

    def test_committed_pages_carry_the_generated_marker(self):
        for name in GENERATED_DOCS:
            text = (DOCS_DIR / name).read_text(encoding="utf-8")
            assert GENERATED_MARKER in text, name

    def test_cli_check_exits_zero_against_committed_docs(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        exit_code = cli.main(["docs", "check"])
        captured = capsys.readouterr()
        assert exit_code == 0, captured.out
        assert "are current" in captured.out


class TestHandWrittenPages:
    def test_architecture_page_exists_and_maps_subsystems(self):
        text = (DOCS_DIR / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for anchor in (
            "repro.exec",
            "ExecutionBackend",
            "repro.batch",
            "repro.cosim",
            "where does my code go",
        ):
            assert anchor.lower() in text.lower(), anchor

    def test_readme_links_resolve_to_committed_pages(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        linked = re.findall(r"\]\((docs/[A-Za-z0-9_./-]+\.md)\)", readme)
        assert linked, "README should link into docs/"
        for rel in linked:
            assert (REPO_ROOT / rel).is_file(), rel

    def test_docs_internal_links_resolve(self):
        for page in sorted(DOCS_DIR.glob("*.md")):
            text = page.read_text(encoding="utf-8")
            for rel in re.findall(r"\]\(((?!http|#)[A-Za-z0-9_./-]+\.md)\)", text):
                assert (DOCS_DIR / rel).is_file(), f"{page.name} -> {rel}"


class TestMarkdownReferences:
    def test_every_named_markdown_file_exists(self):
        """A ``*.md`` name in the code, the docs or perfbench names a real file.

        Names match by basename, so ``docs/BATCH.md`` and ``BATCH.md`` both
        resolve to the committed page.
        """
        existing = {path.name for path in _repository_files(REPO_ROOT) if path.suffix == ".md"}
        sources = [
            *_repository_files(REPO_ROOT / "src" / "repro"),
            *_repository_files(DOCS_DIR),
            REPO_ROOT / "README.md",
            *_repository_files(REPO_ROOT / "perfbench"),
        ]
        dangling = sorted(
            f"{path.relative_to(REPO_ROOT)}: {name}"
            for path in sources
            for name in set(_MARKDOWN_NAME.findall(path.read_text(encoding="utf-8")))
            if name not in existing
        )
        assert not dangling, "names of missing Markdown files: " + ", ".join(dangling)
