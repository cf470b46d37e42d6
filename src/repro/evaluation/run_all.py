"""Regenerate every table and figure and rewrite EXPERIMENTS.md.

Run as ``python -m repro.evaluation.run_all`` (add ``--quick`` for a reduced
sweep).  The artefacts come from the figure registry
(:mod:`repro.figures`): every generator-backed entry renders its text under
``results/`` — the same bytes ``repro figures check`` gates on — and
contributes its (paper claim, measured) row to the EXPERIMENTS.md summary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro import telemetry
from repro.evaluation.report import save_text


def _experiments_markdown(sections: List[Tuple[str, str, str]], quick: bool) -> str:
    """Render the EXPERIMENTS.md content from (id, headline, details) sections."""
    mode = "quick sweep" if quick else "full paper sweep"
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python -m repro.evaluation.run_all`"
        f" ({mode}); per-experiment artefacts are written under `results/`.",
        "",
        "The ground truth here is the *simulated* testbed of docs/ARCHITECTURE.md",
        "(the paper used physical devices), so absolute values differ from the",
        "paper; the comparisons below check that the *shape* and the headline",
        "relationships hold: the proposed model tracks the ground truth within a",
        "few percent, and it is more accurate than both FACT and LEAF.",
        "",
        "| Experiment | Paper reports | This reproduction |",
        "|---|---|---|",
    ]
    for identifier, paper, measured in sections:
        lines.append(f"| {identifier} | {paper} | {measured} |")
    lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Regenerate all evaluation artefacts; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="use the reduced sweep (fast smoke run)"
    )
    parser.add_argument(
        "--output", default="EXPERIMENTS.md", help="path of the summary markdown file"
    )
    args = parser.parse_args(argv)

    from repro.figures import FIGURES, FigureInputs

    inputs = FigureInputs(quick=args.quick)
    sections: List[Tuple[str, str, str]] = []
    # The span doubles as the wall-time source: ``elapsed_s`` ticks even on
    # the default null registry, so no hand-rolled timer is needed.
    with telemetry.get().span("evaluation.run_all", quick=int(args.quick)) as span:
        for spec in FIGURES.values():
            if spec.source != "generator":
                continue
            built = spec.builder(inputs)
            save_text(spec.artifact, built.text)
            if built.section is not None:
                sections.append(built.section)

        content = _experiments_markdown(sections, args.quick)
        Path(args.output).write_text(content)
    print(content)
    print(
        f"[run_all] wrote {args.output} and results/ artefacts "
        f"in {span.elapsed_s:.1f} s"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
