"""The single registry of every ``REPRO_*`` environment variable.

Each variable the repository reads is declared here once, with its
default and the code that consumes it; :func:`render_env_table` turns the
registry into the table embedded in ``docs/CLI.md``.  The registry is
drift-gated from both directions by ``repro docs check``:

* :func:`undocumented_names` sweeps the source trees for ``REPRO_*``
  identifiers missing from the registry (a new variable cannot ship
  undocumented);
* :func:`stale_names` flags registry entries no longer mentioned
  anywhere (a removed variable cannot stay documented).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, List, Tuple

#: Pattern of environment-variable identifiers the sweep recognises.
_ENV_NAME_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

#: Directories swept (relative to the repo root) for ``REPRO_*`` mentions.
SWEEP_DIRS = ("src", "examples", ".github")

#: File suffixes the sweep reads.
_SWEEP_SUFFIXES = frozenset({".py", ".yml", ".yaml", ".toml", ".cfg", ".sh"})


@dataclass(frozen=True)
class EnvVar:
    """One documented environment variable.

    Attributes:
        name: the ``REPRO_*`` identifier.
        default: human-readable default when unset.
        consumer: the module/subsystem that reads it.
        description: one-line behaviour summary for the docs table.
    """

    name: str
    default: str
    consumer: str
    description: str


#: Every environment variable the repository reads, alphabetically.
ENV_VARS: Tuple[EnvVar, ...] = (
    EnvVar(
        name="REPRO_CHAOS_HANG_S",
        default="3600",
        consumer="repro.exec pooled workers (repro/exec/backend.py)",
        description=(
            "Sleep length (seconds) applied to chaos-hung tasks; pair "
            "with REPRO_CHAOS_HANG_TASK and a per-task timeout."
        ),
    ),
    EnvVar(
        name="REPRO_CHAOS_HANG_TASK",
        default="unset",
        consumer="repro.exec pooled workers (repro/exec/backend.py)",
        description=(
            "Comma-separated task indices that sleep before running, to "
            "exercise per-task timeout salvage (workers only; serial "
            "re-runs never consult it)."
        ),
    ),
    EnvVar(
        name="REPRO_CHAOS_KILL_TASK",
        default="unset",
        consumer="repro.exec pooled workers (repro/exec/backend.py)",
        description=(
            "Comma-separated task indices whose process worker dies "
            "mid-task with os._exit(1), to exercise crash salvage (workers "
            "only)."
        ),
    ),
    EnvVar(
        name="REPRO_EXAMPLE_QUICK",
        default="unset",
        consumer="examples/*.py",
        description=(
            "Any non-empty value shrinks the example workloads to smoke "
            "size (used by the examples integration test)."
        ),
    ),
    EnvVar(
        name="REPRO_EXEC_BACKEND",
        default="process",
        consumer="repro.exec.resolve_backend (repro/exec/registry.py)",
        description=(
            "Execution backend for every pooled seam (cosim shards, "
            "experiment pools) when no --backend flag or explicit "
            "argument picks one: serial or process."
        ),
    ),
    EnvVar(
        name="REPRO_EXEC_TIMEOUT_S",
        default="unset (no timeout)",
        consumer="repro.exec.default_timeout_s (repro/exec/backend.py)",
        description=(
            "Per-task wall-clock timeout (seconds) for pooled execution "
            "when the caller passes none; a task exceeding it is salvaged "
            "by a serial re-run."
        ),
    ),
    EnvVar(
        name="REPRO_RESULTS_DIR",
        default="results",
        consumer="repro/evaluation/report.py",
        description=(
            "Directory where validation artefacts and manifests are "
            "written."
        ),
    ),
)


def env_var_names() -> FrozenSet[str]:
    """The documented variable names."""
    return frozenset(var.name for var in ENV_VARS)


def render_env_table() -> str:
    """The environment-variable reference as a Markdown table."""
    lines = [
        "| Variable | Default | Consumer | Effect |",
        "| --- | --- | --- | --- |",
    ]
    for var in ENV_VARS:
        lines.append(
            f"| `{var.name}` | {var.default} | {var.consumer} "
            f"| {var.description} |"
        )
    return "\n".join(lines) + "\n"


def _swept_files(root: Path) -> List[Path]:
    files: List[Path] = []
    for rel in SWEEP_DIRS:
        base = root / rel
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in _SWEEP_SUFFIXES:
                files.append(path)
    return files


def _mentioned_names(root: Path) -> FrozenSet[str]:
    mentioned = set()
    for path in _swept_files(root):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue
        for name in _ENV_NAME_RE.findall(text):
            # "REPRO_CHAOS_*"-style wildcard prose leaves a trailing
            # underscore — a family reference, not a variable.
            if not name.endswith("_"):
                mentioned.add(name)
    return frozenset(mentioned)


def undocumented_names(root: Path) -> List[str]:
    """``REPRO_*`` names used in the source trees but absent from
    :data:`ENV_VARS` (sorted)."""
    return sorted(_mentioned_names(root) - env_var_names())


def stale_names(root: Path) -> List[str]:
    """Documented names no longer mentioned anywhere (sorted)."""
    return sorted(env_var_names() - _mentioned_names(root))
