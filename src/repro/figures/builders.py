"""Builders for every registered figure.

Three families:

* **Ported paper artifacts** (source ``"generator"``): re-run the seeded
  evaluation generators (:mod:`repro.evaluation`) and render the exact
  committed text — ``repro figures check`` gates on byte-identity — while
  adding the CSV/Vega-Lite sidecars the text files never had.
* **Dashboards** (sources ``"manifest"``/``"history"``): read persisted
  JSON (the baseline run manifest, the manifest directory) and summarize
  the fleet / adaptive / co-sim / fault subsystems.
* **Telemetry diff** (source ``"snapshots"``): structural comparison of
  two snapshot files via :mod:`repro.figures.diffs`.

Importing this module populates :data:`repro.figures.registry.FIGURES`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.figures.registry import (
    BuiltFigure,
    FigureInputs,
    register,
    vega_lite_spec,
)
from repro.figures.tabular import Table, manifest_table

# ---------------------------------------------------------------------------
# Ported paper tables
# ---------------------------------------------------------------------------


def _table_builder(table) -> Tuple[Table, dict]:
    data = Table(
        table.headers,
        [dict(zip(table.headers, row)) for row in table.rows],
    )
    spec = {
        "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
        "description": table.title,
        "data": {"url": f"table_{table.table_id}.csv", "format": {"type": "csv"}},
        "mark": "text",
        "encoding": {"text": {"field": table.headers[0], "type": "nominal"}},
    }
    return data, spec


@register(
    "table_I",
    title="Table I: XR and edge device specifications",
    source="generator",
    artifact="table_I.txt",
    description="device catalog as printed in the paper",
)
def build_table_1(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.tables import table_1

    table = table_1()
    data, spec = _table_builder(table)
    return BuiltFigure(
        name="table_I",
        title=table.title,
        text=table.to_text(),
        table=data,
        spec=spec,
        section=(
            "Table I",
            "catalog as printed in the paper",
            f"{table.n_rows} rows reproduced (see results/table_I.txt)",
        ),
    )


@register(
    "table_II",
    title="Table II: CNN models used in this research",
    source="generator",
    artifact="table_II.txt",
    description="CNN catalog as printed in the paper",
)
def build_table_2(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.tables import table_2

    table = table_2()
    data, spec = _table_builder(table)
    return BuiltFigure(
        name="table_II",
        title=table.title,
        text=table.to_text(),
        table=data,
        spec=spec,
        section=(
            "Table II",
            "catalog as printed in the paper",
            f"{table.n_rows} rows reproduced (see results/table_II.txt)",
        ),
    )


#: Regression name -> paper-reported train R^2 (Eq. 3 / 21 / 10 / 12).
_PAPER_R2 = (
    ("compute_resource", 0.870),
    ("mean_power", 0.863),
    ("encoding_latency", 0.790),
    ("cnn_complexity", 0.844),
)


@register(
    "regression_quality",
    title="Regression fit quality (train R^2)",
    source="generator",
    artifact="regression_quality.txt",
    description="calibration-campaign R^2 vs the paper's reported fits",
)
def build_regression_quality(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.report import format_table

    r2 = inputs.context.coefficients.r_squared
    rows = [
        (name, f"{paper:.3f}", f"{r2.get(name, float('nan')):.3f}")
        for name, paper in _PAPER_R2
    ]
    text = "Regression fit quality (train R^2)\n" + format_table(
        rows, headers=("regression", "paper", "reproduction")
    )
    data = Table(
        ("regression", "paper", "reproduction"),
        [
            {"regression": name, "paper": paper, "reproduction": r2.get(name)}
            for name, paper in _PAPER_R2
        ],
    )
    spec = vega_lite_spec(
        "regression_quality",
        "Regression fit quality (train R^2)",
        "bar",
        {
            "x": {"field": "regression", "type": "nominal"},
            "y": {"field": "reproduction", "type": "quantitative", "title": "train R^2"},
        },
    )
    measured = "{:.2f} / {:.2f} / {:.2f} / {:.2f} (synthetic campaign)".format(
        *(r2.get(name, float("nan")) for name, _ in _PAPER_R2)
    )
    return BuiltFigure(
        name="regression_quality",
        title="Regression fit quality (train R^2)",
        text=text,
        table=data,
        spec=spec,
        section=("Regression R^2 (Eq. 3 / 21 / 10 / 12)", "0.87 / 0.863 / 0.79 / 0.844", measured),
    )


# ---------------------------------------------------------------------------
# Fig. 4(a)-(d): validation panels
# ---------------------------------------------------------------------------


def _validation_builder(name: str, figure) -> BuiltFigure:
    unit = "ms" if figure.comparison.metric == "latency" else "mJ"
    rows = [
        {
            "cpu_freq_ghz": cpu_freq,
            "frame_side_px": frame_side,
            "ground_truth": truth,
            "model": model,
            "error_percent": abs(model - truth) / truth * 100.0,
        }
        for cpu_freq, frame_side, truth, model in figure.comparison.rows()
    ]
    data = Table(
        ("cpu_freq_ghz", "frame_side_px", "ground_truth", "model", "error_percent"), rows
    )
    spec = vega_lite_spec(
        name,
        figure.title,
        {"type": "line", "point": True},
        {
            "x": {"field": "frame_side_px", "type": "quantitative", "title": "frame size (px^2)"},
            "y": {"field": "model", "type": "quantitative", "title": f"model ({unit})"},
            "color": {"field": "cpu_freq_ghz", "type": "nominal", "title": "CPU (GHz)"},
        },
    )
    return BuiltFigure(
        name=name,
        title=figure.title,
        text=figure.to_text(),
        table=data,
        spec=spec,
        section=(
            f"Fig. {figure.figure_id}",
            f"mean error {figure.paper_mean_error_percent:.2f}%",
            f"mean error {figure.mean_error_percent:.2f}%",
        ),
    )


def _register_validation(name: str, generator, title: str) -> None:
    @register(
        name,
        title=title,
        source="generator",
        artifact=f"{name}.txt",
        description=title,
    )
    def build(inputs: FigureInputs, _generator=generator, _name=name) -> BuiltFigure:
        return _validation_builder(_name, _generator(context=inputs.context))


def _register_validations() -> None:
    from repro.evaluation.figures import figure_4a, figure_4b, figure_4c, figure_4d

    _register_validation(
        "figure_4a", figure_4a, "Fig. 4(a): end-to-end latency, local inference"
    )
    _register_validation(
        "figure_4b", figure_4b, "Fig. 4(b): end-to-end latency, remote inference"
    )
    _register_validation(
        "figure_4c", figure_4c, "Fig. 4(c): end-to-end energy, local inference"
    )
    _register_validation(
        "figure_4d", figure_4d, "Fig. 4(d): end-to-end energy, remote inference"
    )


_register_validations()


# ---------------------------------------------------------------------------
# Fig. 4(e)/(f): AoI panels
# ---------------------------------------------------------------------------


def _aoi_builder(name: str, figure, section: Tuple[str, str, str]) -> BuiltFigure:
    rows: List[Dict[str, object]] = []
    for analytical, emulated in zip(figure.analytical, figure.emulated):
        n = min(analytical.n_updates, emulated.n_updates)
        for index in range(n):
            rows.append(
                {
                    "sensor_hz": analytical.generation_frequency_hz,
                    "time_ms": analytical.times_ms[index],
                    "gt_aoi_ms": emulated.aoi_ms[index],
                    "model_aoi_ms": analytical.aoi_ms[index],
                    "model_roi": analytical.roi[index],
                }
            )
    data = Table(("sensor_hz", "time_ms", "gt_aoi_ms", "model_aoi_ms", "model_roi"), rows)
    spec = vega_lite_spec(
        name,
        figure.title,
        {"type": "line", "interpolate": "step-after"},
        {
            "x": {"field": "time_ms", "type": "quantitative", "title": "time (ms)"},
            "y": {"field": "model_aoi_ms", "type": "quantitative", "title": "AoI (ms)"},
            "color": {"field": "sensor_hz", "type": "nominal", "title": "sensor (Hz)"},
        },
    )
    return BuiltFigure(
        name=name, title=figure.title, text=figure.to_text(), table=data, spec=spec, section=section
    )


@register(
    "figure_4e",
    title="Fig. 4(e): AoI vs time across sensor frequencies",
    source="generator",
    artifact="figure_4e.txt",
    description="analytical vs emulated AoI timelines",
)
def build_figure_4e(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.figures import figure_4e

    figure = figure_4e()
    return _aoi_builder(
        "figure_4e",
        figure,
        (
            "Fig. 4e",
            "AoI grows for sensors slower than the requirement",
            f"analytical vs emulated AoI error {figure.mean_error_percent():.2f}%",
        ),
    )


@register(
    "figure_4f",
    title="Fig. 4(f): AoI staircase and RoI for a 100 Hz sensor",
    source="generator",
    artifact="figure_4f.txt",
    description="AoI/RoI staircase against a 200 Hz requirement",
)
def build_figure_4f(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.figures import figure_4f

    figure = figure_4f()
    staircase = ", ".join(f"{value:.0f}" for value in figure.analytical[0].aoi_ms[:3])
    roi = ", ".join(f"{value:.2f}" for value in figure.analytical[0].roi[:3])
    return _aoi_builder(
        "figure_4f",
        figure,
        (
            "Fig. 4f",
            "AoI 10/15/20 ms with RoI 0.5/0.33/0.25 (100 Hz sensor)",
            f"AoI staircase {staircase} ms; RoI {roi}",
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 5(a)/(b): comparison panels
# ---------------------------------------------------------------------------


def _comparison_builder(name: str, figure) -> BuiltFigure:
    rows: List[Dict[str, object]] = []
    for index, frame_side in enumerate(figure.frame_sides_px):
        rows.append(
            {"frame_side_px": frame_side, "model": "Ground truth", "accuracy_percent": 100.0}
        )
        for model_name in ("Proposed", "FACT", "LEAF"):
            rows.append(
                {
                    "frame_side_px": frame_side,
                    "model": model_name,
                    "accuracy_percent": figure.accuracy_by_model[model_name][index],
                }
            )
    data = Table(("frame_side_px", "model", "accuracy_percent"), rows)
    spec = vega_lite_spec(
        name,
        figure.title,
        {"type": "line", "point": True},
        {
            "x": {"field": "frame_side_px", "type": "quantitative", "title": "frame size (px^2)"},
            "y": {
                "field": "accuracy_percent",
                "type": "quantitative",
                "title": "normalized accuracy (%)",
                "scale": {"zero": False},
            },
            "color": {"field": "model", "type": "nominal"},
        },
    )
    return BuiltFigure(
        name=name,
        title=figure.title,
        text=figure.to_text(),
        table=data,
        spec=spec,
        section=(
            f"Fig. {figure.figure_id}",
            f"accuracy gain vs FACT {figure.paper_gain_vs_fact:.2f}%, "
            f"vs LEAF {figure.paper_gain_vs_leaf:.2f}%",
            f"gain vs FACT {figure.gain_vs_fact:.2f}%, vs LEAF {figure.gain_vs_leaf:.2f}%",
        ),
    )


@register(
    "figure_5a",
    title="Fig. 5(a): latency accuracy vs FACT and LEAF",
    source="generator",
    artifact="figure_5a.txt",
    description="normalized latency accuracy against the baselines",
)
def build_figure_5a(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.figures import figure_5a

    return _comparison_builder("figure_5a", figure_5a(context=inputs.context))


@register(
    "figure_5b",
    title="Fig. 5(b): energy accuracy vs FACT and LEAF",
    source="generator",
    artifact="figure_5b.txt",
    description="normalized energy accuracy against the baselines",
)
def build_figure_5b(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.figures import figure_5b

    return _comparison_builder("figure_5b", figure_5b(context=inputs.context))


# ---------------------------------------------------------------------------
# Ablations and extensions
# ---------------------------------------------------------------------------


def _named_table_builder(name: str, result, kind: str, section_kind: str) -> BuiltFigure:
    data = Table(result.headers, [dict(zip(result.headers, row)) for row in result.rows])
    spec = {
        "$schema": "https://vega.github.io/schema/vega-lite/v5.json",
        "description": f"{kind}: {result.name}",
        "data": {"url": f"{name}.csv", "format": {"type": "csv"}},
        "mark": "bar",
        "encoding": {
            "x": {"field": result.headers[0], "type": "nominal"},
            "y": {"field": result.headers[-1], "type": "nominal"},
        },
    }
    return BuiltFigure(
        name=name,
        title=f"{kind}: {result.name}",
        text=result.to_text(),
        table=data,
        spec=spec,
        section=(f"{section_kind}: {result.name}", "-", result.headline),
    )


def _register_ablation(name: str, make, title: str) -> None:
    @register(name, title=title, source="generator", artifact=f"{name}.txt", description=title)
    def build(inputs: FigureInputs, _make=make, _name=name) -> BuiltFigure:
        return _named_table_builder(_name, _make(inputs), "Ablation", "Ablation")


def _register_extension(name: str, make, title: str) -> None:
    @register(name, title=title, source="generator", artifact=f"{name}.txt", description=title)
    def build(inputs: FigureInputs, _make=make, _name=name) -> BuiltFigure:
        return _named_table_builder(_name, _make(inputs), "Extension experiment", "Extension")


def _register_studies() -> None:
    from repro.evaluation import ablations, extensions

    _register_ablation(
        "ablation_complexity_mode",
        lambda inputs: ablations.ablation_complexity_mode(),
        "Ablation: CNN complexity placement (Eq. 11/13 vs proportional)",
    )
    _register_ablation(
        "ablation_memory_term",
        lambda inputs: ablations.ablation_memory_term(),
        "Ablation: memory-bandwidth term",
    )
    _register_ablation(
        "ablation_coefficient_source",
        lambda inputs: ablations.ablation_coefficient_source(quick=inputs.quick),
        "Ablation: published vs re-calibrated coefficients",
    )
    _register_ablation(
        "ablation_buffer_model",
        lambda inputs: ablations.ablation_buffer_model(),
        "Ablation: M/M/1 vs M/D/1 input buffer",
    )
    _register_extension(
        "extension_mobility",
        lambda inputs: extensions.mobility_extension(),
        "Extension: latency/energy vs device speed with handoffs",
    )
    _register_extension(
        "extension_pathloss",
        lambda inputs: extensions.pathloss_extension(),
        "Extension: path-loss environments",
    )
    _register_extension(
        "extension_multi_edge",
        lambda inputs: extensions.multi_edge_extension(),
        "Extension: multi-edge placement",
    )
    _register_extension(
        "extension_session",
        lambda inputs: extensions.session_extension(
            n_frames=120 if inputs.quick else 200, seed=3
        ),
        "Extension: frame-by-frame session simulation",
    )
    _register_extension(
        "extension_adaptation",
        lambda inputs: extensions.adaptation_extension(
            n_epochs=60 if inputs.quick else 150, seed=3
        ),
        "Extension: runtime adaptation policies",
    )


_register_studies()


# ---------------------------------------------------------------------------
# Dashboards over the baseline manifest
# ---------------------------------------------------------------------------


def _manifest_dashboard(
    name: str,
    title: str,
    inputs: FigureInputs,
    kinds: Tuple[str, ...],
    metrics: Tuple[str, ...],
    *,
    require: Optional[str] = None,
    y_field: str = "",
    y_title: str = "",
) -> BuiltFigure:
    from repro.evaluation.report import format_table

    manifest = inputs.manifest
    flat = manifest_table(manifest)
    names: List[str] = []
    for result in manifest.scenarios:
        if result.kind not in kinds:
            continue
        if require is not None and require not in result.metrics:
            continue
        names.append(result.name)
    wide = flat.where(lambda row: row["scenario"] in names and row["metric"] in metrics).pivot(
        "scenario", "metric", "value"
    )
    # Keep a deterministic metric column order regardless of row order.
    columns = ("scenario", *[metric for metric in metrics if metric in wide.columns])
    wide = Table(columns, wide.rows) if wide else Table(columns)

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    text_rows = [[fmt(row[column]) for column in columns] for row in wide.rows]
    header = f"{title}\n(source: results/manifests, suite {manifest.suite!r}, git {str(manifest.git_sha or 'unknown')[:12]})"
    text = header + "\n" + format_table(text_rows, headers=columns)
    spec = vega_lite_spec(
        name,
        title,
        "bar",
        {
            "x": {"field": "scenario", "type": "nominal"},
            "y": {"field": y_field or metrics[0], "type": "quantitative", "title": y_title or None},
        },
    )
    return BuiltFigure(name=name, title=title, text=text, table=wide, spec=spec)


@register(
    "fleet_dashboard",
    title="Fleet scale-out: tail latency and SLO pressure per scenario",
    source="manifest",
    description="p50/p95/p99 latency, utilization and SLO violations for fleet scenarios",
)
def build_fleet_dashboard(inputs: FigureInputs) -> BuiltFigure:
    return _manifest_dashboard(
        "fleet_dashboard",
        "Fleet scale-out: tail latency and SLO pressure per scenario",
        inputs,
        kinds=("fleet",),
        metrics=(
            "n_users",
            "p50_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "max_edge_utilization",
            "slo_violations",
        ),
        y_field="p95_latency_ms",
        y_title="p95 latency (ms)",
    )


@register(
    "adaptive_dashboard",
    title="Adaptive control: deadline miss-rate vs controller",
    source="manifest",
    description="miss-rate, quality and switch counts per adapt scenario",
)
def build_adaptive_dashboard(inputs: FigureInputs) -> BuiltFigure:
    return _manifest_dashboard(
        "adaptive_dashboard",
        "Adaptive control: deadline miss-rate vs controller",
        inputs,
        kinds=("adapt",),
        metrics=(
            "deadline_miss_rate",
            "static_deadline_miss_rate",
            "mean_quality",
            "switch_count",
            "p95_latency_ms",
        ),
        y_field="deadline_miss_rate",
        y_title="deadline miss rate",
    )


@register(
    "cosim_dashboard",
    title="Device/edge co-simulation: convergence rate per scenario",
    source="manifest",
    description="convergence, unconverged epochs and fleet tail latency per cosim scenario",
)
def build_cosim_dashboard(inputs: FigureInputs) -> BuiltFigure:
    return _manifest_dashboard(
        "cosim_dashboard",
        "Device/edge co-simulation: convergence rate per scenario",
        inputs,
        kinds=("cosim",),
        metrics=(
            "n_users",
            "convergence_rate",
            "n_unconverged_epochs",
            "deadline_miss_rate",
            "fleet_p95_latency_ms",
        ),
        y_field="convergence_rate",
        y_title="convergence rate",
    )


@register(
    "faults_dashboard",
    title="Fault injection: availability and time-to-recover over fault windows",
    source="manifest",
    description="availability, TTR and miss-rate inside fault windows, any scenario kind",
)
def build_faults_dashboard(inputs: FigureInputs) -> BuiltFigure:
    return _manifest_dashboard(
        "faults_dashboard",
        "Fault injection: availability and time-to-recover over fault windows",
        inputs,
        kinds=("fleet", "adapt", "cosim"),
        metrics=(
            "availability",
            "fault_epoch_fraction",
            "mean_time_to_recover_epochs",
            "fault_miss_rate",
            "deadline_miss_rate",
        ),
        require="availability",
        y_field="availability",
        y_title="availability",
    )


# ---------------------------------------------------------------------------
# Run history
# ---------------------------------------------------------------------------


@register(
    "run_history",
    title="Run history: per-metric trajectory across archived manifests",
    source="history",
    description="first/last/delta per (scenario, metric) over the manifest directory",
)
def build_run_history(inputs: FigureInputs) -> BuiltFigure:
    from repro.evaluation.report import format_table

    history = inputs.history
    rows: List[Dict[str, object]] = []
    for scenario, metric in history.metrics():
        points = [p for p in history.series(scenario, metric) if p.value is not None]
        if not points:
            continue
        first, last = points[0], points[-1]
        rows.append(
            {
                "scenario": scenario,
                "metric": metric,
                "n_runs": len(points),
                "first": first.value,
                "last": last.value,
                "delta": last.value - first.value,
                "first_sha": (first.git_sha or "")[:12] or None,
                "last_sha": (last.git_sha or "")[:12] or None,
            }
        )
    columns = ("scenario", "metric", "n_runs", "first", "last", "delta", "first_sha", "last_sha")
    data = Table(columns, rows)

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    title = "Run history: per-metric trajectory across archived manifests"
    text_rows = [[fmt(row[column]) for column in columns] for row in data.rows]
    text = (
        f"{title}\n({history.n_runs} run(s) indexed)\n"
        + format_table(text_rows, headers=columns)
    )
    spec = vega_lite_spec(
        "run_history",
        title,
        {"type": "line", "point": True},
        {
            "x": {"field": "metric", "type": "nominal"},
            "y": {"field": "delta", "type": "quantitative", "title": "last - first"},
            "color": {"field": "scenario", "type": "nominal"},
        },
    )
    return BuiltFigure(name="run_history", title=title, text=text, table=data, spec=spec)


# ---------------------------------------------------------------------------
# Telemetry diff
# ---------------------------------------------------------------------------


@register(
    "telemetry_diff",
    title="Telemetry diff: structural comparison of two snapshots",
    source="snapshots",
    description="counter/span/histogram deltas between two snapshot files",
)
def build_telemetry_diff(inputs: FigureInputs) -> BuiltFigure:
    from repro.figures.diffs import diff_snapshots

    snapshot_a, snapshot_b, label_a, label_b = inputs.snapshots()
    diff = diff_snapshots(snapshot_a, snapshot_b, label_a=label_a, label_b=label_b)
    spec = vega_lite_spec(
        "telemetry_diff",
        "Telemetry diff: structural comparison of two snapshots",
        "bar",
        {
            "x": {"field": "delta", "type": "quantitative"},
            "y": {"field": "name", "type": "nominal"},
            "color": {"field": "section", "type": "nominal"},
        },
    )
    return BuiltFigure(
        name="telemetry_diff",
        title="Telemetry diff: structural comparison of two snapshots",
        text=diff.to_text(),
        table=diff.to_table(),
        spec=spec,
    )
