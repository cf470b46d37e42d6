"""Figures walkthrough: tables, dashboards, snapshot diffing.

``repro.figures`` renders the repo's persisted artifacts — run manifests,
telemetry snapshots, the committed ``results/`` text figures.  This
walkthrough:

1. flattens the committed baseline run manifest into a stdlib-only
   :class:`~repro.figures.Table` and pivots it into the fleet dashboard;
2. builds one registry figure and saves its text + CSV + Vega-Lite triple
   — the same builders ``python -m repro figures build --all`` runs, and
   the same renders ``figures check`` gates byte-identically in CI;
3. profiles the same tiny workload twice and structurally diffs the two
   telemetry snapshots: identical *work* (counters, span call counts),
   wall-time drift reported but never failing.

Run with ``python examples/figures_report.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import telemetry
from repro.adaptive import GreedyBatchSweep, make_trace
from repro.experiments import RunManifest
from repro.figures import FigureInputs, build_figure, diff_snapshots, manifest_table

REPO_ROOT = Path(__file__).resolve().parents[1]
MANIFEST_DIR = REPO_ROOT / "results" / "manifests"
QUICK = bool(os.environ.get("REPRO_EXAMPLE_QUICK"))


def profiled_adapt_run(epochs: int):
    """One instrumented adaptive run; returns its telemetry snapshot."""
    from repro.adaptive import AdaptiveRuntime

    registry = telemetry.enable()
    try:
        AdaptiveRuntime(trace=make_trace("burst", epochs, seed=0), device="XR1").run(
            GreedyBatchSweep()
        )
    finally:
        telemetry.disable()
    return registry.snapshot()


def main() -> None:
    # -- 1. manifest -> Table -> pivot ------------------------------------
    manifest = RunManifest.load(MANIFEST_DIR / "baseline.json")
    table = manifest_table(manifest)
    print(f"=== baseline manifest, long form ({len(table)} metric rows) ===")
    fleet_rows = table.where(lambda row: row["kind"] == "fleet")
    wide = fleet_rows.pivot("scenario", "metric", "value")
    print(f"fleet scenarios: {[row['scenario'] for row in wide.rows]}")
    print(f"fleet metrics:   {[c for c in wide.columns if c != 'scenario']}")

    # -- 2. one registry figure, saved as text + CSV + Vega-Lite ----------
    inputs = FigureInputs(quick=True, manifest_path=MANIFEST_DIR / "baseline.json")
    built = build_figure("fleet_dashboard", inputs)
    paths = built.save(Path("figures_out"))
    print(f"\n=== built '{built.name}' ===")
    print(built.text)
    print("wrote " + ", ".join(str(path) for path in paths))

    # -- 3. telemetry diff: same work, different wall clock ----------------
    epochs = 10 if QUICK else 30
    diff = diff_snapshots(
        profiled_adapt_run(epochs), profiled_adapt_run(epochs), "run_a", "run_b"
    )
    print("\n=== telemetry diff of two identical runs ===")
    print(diff.to_text())
    assert diff.max_counter_delta == 0.0, "identical runs must do identical work"


if __name__ == "__main__":
    main()
