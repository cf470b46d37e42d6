"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.evaluation.metrics` — error and accuracy metrics used in
  Section VIII (mean error %, normalized accuracy),
* :mod:`repro.evaluation.sweeps` — model-vs-ground-truth sweep comparisons,
* :mod:`repro.evaluation.figures` — one generator per figure
  (Fig. 4(a)-(f), Fig. 5(a)-(b)),
* :mod:`repro.evaluation.tables` — Table I and Table II reproduction,
* :mod:`repro.evaluation.ablations` — ablation studies of the modelling
  decisions called out in docs/ARCHITECTURE.md,
* :mod:`repro.evaluation.report` — text rendering and result persistence,
* :mod:`repro.evaluation.run_all` — one entry point regenerating everything
  and rewriting EXPERIMENTS.md (``python -m repro.evaluation.run_all``).
"""

from repro import _lazy_exports

#: Exported name -> defining module, imported on first access.
_LAZY = {
    "mean_absolute_percentage_error": "repro.evaluation.metrics",
    "mean_error_percent": "repro.evaluation.metrics",
    "normalized_accuracy": "repro.evaluation.metrics",
    "SweepComparison": "repro.evaluation.sweeps",
    "SweepSeries": "repro.evaluation.sweeps",
    "run_sweep_comparison": "repro.evaluation.sweeps",
    "AoIFigure": "repro.evaluation.figures",
    "ComparisonFigure": "repro.evaluation.figures",
    "ValidationFigure": "repro.evaluation.figures",
    "figure_4a": "repro.evaluation.figures",
    "figure_4b": "repro.evaluation.figures",
    "figure_4c": "repro.evaluation.figures",
    "figure_4d": "repro.evaluation.figures",
    "figure_4e": "repro.evaluation.figures",
    "figure_4f": "repro.evaluation.figures",
    "figure_5a": "repro.evaluation.figures",
    "figure_5b": "repro.evaluation.figures",
    "table_1": "repro.evaluation.tables",
    "table_2": "repro.evaluation.tables",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)

__all__ = [
    "AoIFigure",
    "ComparisonFigure",
    "SweepComparison",
    "SweepSeries",
    "ValidationFigure",
    "figure_4a",
    "figure_4b",
    "figure_4c",
    "figure_4d",
    "figure_4e",
    "figure_4f",
    "figure_5a",
    "figure_5b",
    "mean_absolute_percentage_error",
    "mean_error_percent",
    "normalized_accuracy",
    "run_sweep_comparison",
    "table_1",
    "table_2",
]
