"""The per-layer metrics: names, units, and how a traced pass yields them.

Self time is reported as a share (``%``) of the traced pass's wall time, so a
layer a workload never enters reads 0 % rather than a constant zero-second
time; the absolute seconds are ``share / 100 * trace.wall_s``.  Counts are
exact and machine-independent; :data:`EXACT_COUNTERS` names the ones the
work-counter snapshot compares between runs.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("batch.evaluate_points.calls", "count"),
    ("batch.evaluate_points.points", "count"),
    ("batch.evaluate_points.self_pct", "%"),
    ("batch.evaluate_points.points_per_s", "1/s"),
    ("batch.evaluate_grid.calls", "count"),
    ("batch.evaluate_grid.points", "count"),
    ("batch.evaluate_grid.self_pct", "%"),
    ("core.analyze.calls", "count"),
    ("core.analyze.self_pct", "%"),
    ("adaptive.prewarm.calls", "count"),
    ("adaptive.prewarm.keys", "count"),
    ("adaptive.prewarm.self_pct", "%"),
    ("adaptive.prewarm.evals_per_s", "1/s"),
    ("adaptive.sweep.calls", "count"),
    ("adaptive.sweep.live", "count"),
    ("adaptive.sweep.hit_ratio", "ratio"),
    ("adaptive.sweep.self_pct", "%"),
    ("adaptive.decide.calls", "count"),
    ("adaptive.decide.self_pct", "%"),
    ("adaptive.run.calls", "count"),
    ("adaptive.run.self_pct", "%"),
    ("cosim.init.self_pct", "%"),
    ("cosim.run.self_pct", "%"),
    ("cosim.best_response_iterations", "count"),
    ("cosim.epochs_converged", "count"),
    ("cosim.epochs_oscillating", "count"),
    ("cosim.iterations_per_epoch", "iter/epoch"),
    ("cosim.converged_frac", "ratio"),
    ("fleet.analyze.calls", "count"),
    ("fleet.analyze.self_pct", "%"),
    ("fleet.edge_wait.calls", "count"),
    ("exec.map_tasks_pct", "%"),
    ("exec.tasks", "count"),
    ("exec.child_cpu_pct", "%"),
    ("exec.retries", "count"),
    ("experiments.scenarios", "count"),
    ("experiments.scenarios_failed", "count"),
    ("experiments.run.self_pct", "%"),
    ("trace.other_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

UNITS: Dict[str, str] = dict(PER_LAYER)

#: Deterministic work counts; any difference between two runs of the same
#: code and seed is a benchmark failure.  ``exec.retries`` is left out: a
#: worker lost to the machine is an event, not a property of the code.
EXACT_COUNTERS: Tuple[str, ...] = tuple(
    name for name, unit in PER_LAYER if unit == "count" and name != "exec.retries"
)

#: Traced span name -> metric prefix of its ``self_pct`` / ``calls``.
_SPANS = (
    "batch.evaluate_points",
    "batch.evaluate_grid",
    "core.analyze",
    "adaptive.prewarm",
    "adaptive.sweep",
    "adaptive.decide",
    "adaptive.run",
    "cosim.init",
    "cosim.run",
    "fleet.analyze",
    "fleet.edge_wait",
    "experiments.run",
)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def per_layer_metrics(
    layer_pass: tuple, exec_pass: tuple, untraced_wall_s: float
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-layer metrics and the exact counter snapshot of a traced run.

    Args:
        layer_pass: ``(tracer, report, wall_s, cpu_s)`` of the pass whose
            layers run in-process (the serial-backend pass of a sharded
            workload).
        exec_pass: the same tuple for the pass on the workload's own
            backend; gives the ``exec.*`` metrics and the tracing overhead.
        untraced_wall_s: wall time of the untraced run of the same seed.
    """
    tracer, _, wall_s, _ = layer_pass
    counters = tracer.snapshot["counters"]
    metrics: Dict[str, float] = {}
    for span in _SPANS:
        calls_name = f"{span}.calls"
        if calls_name in UNITS:
            metrics[calls_name] = tracer.calls[span]
        pct_name = f"{span}.self_pct"
        if pct_name in UNITS:
            metrics[pct_name] = 100.0 * tracer.self_s[span] / wall_s
    metrics["trace.other_pct"] = 100.0 - sum(
        100.0 * tracer.self_s[span] / wall_s for span in tracer.self_s
    )

    points = tracer.counts["batch.evaluate_points.points"]
    metrics["batch.evaluate_points.points"] = points
    metrics["batch.evaluate_points.points_per_s"] = _rate(
        points, tracer.self_s["batch.evaluate_points"]
    )
    metrics["batch.evaluate_grid.points"] = tracer.counts["batch.evaluate_grid.points"]
    metrics["adaptive.prewarm.keys"] = tracer.counts["adaptive.prewarm.keys"]
    metrics["adaptive.prewarm.evals_per_s"] = _rate(
        tracer.counts["adaptive.prewarm.evals"], tracer.total_s["adaptive.prewarm"]
    )
    sweeps = tracer.calls["adaptive.sweep"]
    live = tracer.counts["adaptive.sweep.live"]
    metrics["adaptive.sweep.live"] = live
    metrics["adaptive.sweep.hit_ratio"] = 1.0 - live / sweeps if sweeps else 0.0

    epochs = counters.get("cosim.epochs", 0)
    iterations = counters.get("cosim.best_response_iterations", 0)
    metrics["cosim.best_response_iterations"] = iterations
    metrics["cosim.epochs_converged"] = counters.get("cosim.epochs_converged", 0)
    metrics["cosim.epochs_oscillating"] = counters.get("cosim.epochs_oscillating", 0)
    metrics["cosim.iterations_per_epoch"] = iterations / epochs if epochs else 0.0
    # Equals the cosim report's convergence_rate (over shards x epochs).
    converged = counters.get("cosim.epochs_converged", 0)
    metrics["cosim.converged_frac"] = converged / epochs if epochs else 0.0

    scenarios = counters.get("experiments.scenarios", 0)
    metrics["experiments.scenarios"] = scenarios
    metrics["experiments.scenarios_failed"] = scenarios - counters.get(
        "experiments.scenarios_ok", 0
    )

    exec_tracer, _, exec_wall_s, exec_cpu_s = exec_pass
    exec_counters = exec_tracer.snapshot["counters"]
    metrics["exec.map_tasks_pct"] = 100.0 * exec_tracer.total_s["exec.map_tasks"] / exec_wall_s
    metrics["exec.tasks"] = exec_counters.get("exec.tasks", 0)
    metrics["exec.child_cpu_pct"] = (
        100.0 * exec_tracer.child_cpu_s / exec_cpu_s if exec_cpu_s > 0.0 else 0.0
    )
    metrics["exec.retries"] = sum(
        value
        for name, value in exec_counters.items()
        if name.startswith(("exec.retry.", "exec.fallback."))
        or name == "exec.serial_reruns"
    )
    metrics["trace.wall_s"] = exec_wall_s
    metrics["trace.overhead_s"] = exec_wall_s - untraced_wall_s

    snapshot = {name: int(metrics[name]) for name in EXACT_COUNTERS}
    return {name: metrics[name] for name in UNITS}, snapshot
