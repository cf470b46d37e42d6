"""Text rendering and persistence of evaluation results.

The evaluation harness produces structured results; this module renders them
as fixed-width text tables (the "rows/series the paper reports") and stores
them under a ``results/`` directory so a run leaves an inspectable artefact
behind.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Optional, Sequence


def format_table(rows: Iterable[Sequence], headers: Sequence[str]) -> str:
    """Render rows as a fixed-width text table."""
    header_cells = [str(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in header_cells]
    for row in text_rows:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def render(row: Sequence[str]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))

    lines = [render(header_cells), render(["-" * width for width in widths])]
    lines.extend(render(row) for row in text_rows)
    return "\n".join(lines)


def results_directory(base: Optional[str] = None) -> Path:
    """The directory evaluation artefacts are written to (created on demand).

    Defaults to ``<cwd>/results``; override with the ``REPRO_RESULTS_DIR``
    environment variable or the ``base`` argument.
    """
    if base is None:
        base = os.environ.get("REPRO_RESULTS_DIR", "results")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def save_text(name: str, content: str, base: Optional[str] = None) -> Path:
    """Write a text artefact under the results directory and return its path."""
    if not name:
        raise ValueError("artefact name must not be empty")
    path = results_directory(base) / name
    path.write_text(content + ("\n" if not content.endswith("\n") else ""))
    return path


def format_float(value: float, digits: int = 2) -> str:
    """Format a float with a fixed number of decimals (helper for tables)."""
    return f"{value:.{digits}f}"
