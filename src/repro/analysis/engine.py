"""The lint engine: file collection, rule dispatch, suppression, baseline.

:class:`LintEngine` walks the requested paths, parses every ``.py`` file
once (``.toml`` files ride along unparsed for the spec rule), runs each
selected rule over each file, then drains the rules' cross-file
``finish()`` hooks.  Findings pass through two filters before they count:

1. inline ``# repro: noqa[RULE]`` comments on the finding's line;
2. the committed baseline of grandfathered findings.

The result is a :class:`LintReport` that renders as text or JSON and
knows its process exit code (non-zero iff any *active* finding remains).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.analysis.diagnostics import Baseline, Diagnostic, is_suppressed, suppressed_rules
from repro.analysis.rules import build_rules
from repro.exceptions import ConfigurationError

#: File suffixes the engine collects.
COLLECTED_SUFFIXES = (".py", ".toml")

#: Directory names never descended into.
SKIPPED_DIRS = frozenset(
    {".git", "__pycache__", ".ruff_cache", ".pytest_cache", ".hypothesis", "results"}
)

#: Paths linted when the caller names none (relative to the engine root).
DEFAULT_PATHS = ("src", "tests", "examples")

#: Pseudo-rule ID attached to unparseable Python files.
SYNTAX_RULE = "REP000"


@dataclass
class LintReport:
    """Outcome of one engine run."""

    diagnostics: List[Diagnostic]
    files_checked: int
    rules_run: List[str]
    suppressed_count: int = 0
    baselined_count: int = 0
    stale_baseline: List[dict] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0

    def to_dict(self) -> dict:
        """JSON-able form (the ``repro lint --json`` payload)."""
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "diagnostics": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "suppressed": self.suppressed_count,
            "baselined": self.baselined_count,
            "stale_baseline": list(self.stale_baseline),
            "passed": not self.diagnostics,
        }

    def to_text(self) -> str:
        """The human-readable rendering."""
        lines = [diagnostic.format() for diagnostic in self.diagnostics]
        summary = (
            f"{len(self.diagnostics)} finding(s) over {self.files_checked} "
            f"file(s) [{', '.join(self.rules_run)}]"
        )
        if self.suppressed_count:
            summary += f"; {self.suppressed_count} suppressed inline"
        if self.baselined_count:
            summary += f"; {self.baselined_count} grandfathered by baseline"
        lines.append(summary)
        for entry in self.stale_baseline:
            lines.append(
                f"warning: stale baseline entry {entry.get('rule')} "
                f"{entry.get('path')}: {entry.get('message')!r} no longer "
                f"fires — remove it from the baseline"
            )
        return "\n".join(lines)


class LintEngine:
    """Collects files under a root and runs the selected rules over them."""

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        rules: Optional[Sequence[str]] = None,
        baseline_path: Union[str, Path, None] = None,
    ) -> None:
        self.root = Path(root).resolve() if root is not None else Path.cwd()
        self.rule_ids = list(rules) if rules is not None else None
        self.baseline_path = Path(baseline_path) if baseline_path is not None else None

    # -- collection ----------------------------------------------------------------

    def collect(self, paths: Optional[Sequence[Union[str, Path]]] = None) -> List[Path]:
        """Resolve the target files, sorted for deterministic diagnostics."""
        if not paths:
            candidates = [self.root / name for name in DEFAULT_PATHS]
            roots = [path for path in candidates if path.exists()]
        else:
            roots = []
            for entry in paths:
                path = Path(entry)
                if not path.is_absolute():
                    path = self.root / path
                if not path.exists():
                    raise ConfigurationError(f"lint path {str(entry)!r} does not exist")
                roots.append(path)
        files = set()
        for path in roots:
            if path.is_file():
                if path.suffix in COLLECTED_SUFFIXES:
                    files.add(path.resolve())
                continue
            for candidate in path.rglob("*"):
                if candidate.suffix not in COLLECTED_SUFFIXES or not candidate.is_file():
                    continue
                if any(part in SKIPPED_DIRS for part in candidate.parts):
                    continue
                files.add(candidate.resolve())
        return sorted(files, key=lambda path: self._rel_path(path))

    def _rel_path(self, path: Path) -> str:
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    # -- running -------------------------------------------------------------------

    def run(self, paths: Optional[Sequence[Union[str, Path]]] = None) -> LintReport:
        """Lint the paths (default: the repo's standard trees)."""
        from repro.analysis.rules.base import FileContext

        rules = build_rules(self.rule_ids)
        files = self.collect(paths)
        raw: List[Diagnostic] = []
        suppressions_by_path = {}
        for path in files:
            rel_path = self._rel_path(path)
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as error:
                raw.append(
                    Diagnostic(SYNTAX_RULE, rel_path, 0, f"unreadable file: {error}")
                )
                continue
            tree = None
            if path.suffix == ".py":
                try:
                    tree = ast.parse(source)
                except SyntaxError as error:
                    raw.append(
                        Diagnostic(
                            SYNTAX_RULE,
                            rel_path,
                            error.lineno or 0,
                            f"syntax error: {error.msg}",
                        )
                    )
                    continue
            ctx = FileContext(path=path, rel_path=rel_path, source=source, tree=tree)
            suppressions_by_path[rel_path] = suppressed_rules(source)
            for rule in rules:
                raw.extend(rule.check(ctx))
        for rule in rules:
            raw.extend(rule.finish())

        suppressed = 0
        visible: List[Diagnostic] = []
        for diagnostic in raw:
            suppressions = suppressions_by_path.get(diagnostic.path, {})
            if is_suppressed(diagnostic, suppressions):
                suppressed += 1
            else:
                visible.append(diagnostic)

        baseline = (
            Baseline.load(self.baseline_path)
            if self.baseline_path is not None
            else Baseline()
        )
        active = [d for d in visible if not baseline.contains(d)]
        active.sort(key=lambda d: (d.path, d.line, d.rule, d.message))
        return LintReport(
            diagnostics=active,
            files_checked=len(files),
            rules_run=[rule.id for rule in rules],
            suppressed_count=suppressed,
            baselined_count=len(visible) - len(active),
            stale_baseline=baseline.stale_entries(visible),
        )

    def write_baseline(
        self, paths: Optional[Sequence[Union[str, Path]]] = None
    ) -> LintReport:
        """Run, then grandfather every current finding into the baseline."""
        if self.baseline_path is None:
            raise ConfigurationError("write_baseline needs a baseline path")
        # Run against an empty baseline so existing entries are re-derived
        # (stale ones drop out instead of accumulating).
        engine = LintEngine(root=self.root, rules=self.rule_ids)
        report = engine.run(paths)
        Baseline.dump(report.diagnostics, self.baseline_path)
        return report


def run_lint(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    root: Union[str, Path, None] = None,
    rules: Optional[Sequence[str]] = None,
    baseline_path: Union[str, Path, None] = None,
) -> LintReport:
    """One-call façade over :class:`LintEngine` (the CLI entry point)."""
    engine = LintEngine(root=root, rules=rules, baseline_path=baseline_path)
    return engine.run(paths)


def save_report(report: LintReport, path: Union[str, Path]) -> None:
    """Write a report's JSON payload (the CI artifact)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
