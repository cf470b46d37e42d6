"""Command-line interface of the XR performance analysis framework.

Installed as ``python -m repro``.  Subcommands:

* ``analyze``  — per-frame latency/energy/AoI report for one configuration,
* ``sweep``    — frame-size x CPU-frequency sweep of the analytical model,
* ``offload``  — rank local / remote / split inference placements,
* ``aoi``      — AoI/RoI timelines for a set of sensor frequencies,
* ``session``  — session-level analysis (tails, battery life, thermals),
* ``fleet``    — multi-user fleet analysis and SLO capacity planning,
* ``adapt``    — trace-driven runtime adaptation: replay a channel/load
  scenario and compare controllers against the best static operating point,
* ``cosim``    — closed-loop co-simulation: every fleet user runs an
  adaptive controller while contention and edge queueing feed back from the
  fleet's own placement decisions each epoch,
* ``experiments`` — declarative scenario suites: ``list`` the bundled
  specs, ``run`` them into a manifest under ``results/manifests/``, and
  ``check`` a manifest against a committed baseline (the CI regression
  gate),
* ``figures``  — the figure registry: ``list`` the builders, ``build``
  text/CSV/Vega-Lite artifact triples under ``results/figures/``, and
  ``check`` that every committed ``results/*.txt`` artifact re-renders
  byte-identically (the CI drift gate),
* ``docs``     — generated documentation: ``build`` renders ``docs/CLI.md``
  from the live argparse tree (plus the ``REPRO_*`` env-var registry), and
  ``check`` fails on any byte drift (the CI ``docs-drift`` gate),
* ``lint``     — the invariant lint engine (:mod:`repro.analysis`): REP001
  determinism, REP002 round-trip completeness, REP003 pool safety, REP004
  telemetry naming, REP005 scenario-spec validity, REP006 export
  consistency, REP007 docstring coverage; supports ``--json`` reports,
  per-rule selection, inline ``# repro: noqa[RULE]`` suppressions and a
  committed findings baseline,
* ``tables``   — print the Table I / Table II reproductions,
* ``validate`` — quick model-vs-simulated-testbed validation (Fig. 4 style).

``profile`` runs scenarios of a suite with telemetry on; ``profile --diff
A B`` structurally compares two saved telemetry snapshots (span trees,
counters, histogram percentiles) instead of profiling.

The ``fleet``, ``adapt``, ``cosim`` and ``faults run`` subcommands map their
flags onto a :class:`~repro.experiments.ScenarioSpec` and build the workload
through :mod:`repro.experiments.runner`, as a scenario would.  A
:class:`~repro.exceptions.ReproError` prints one ``error:`` line and exits 2.

Every subcommand prints plain text tables.  Files are written only by
``experiments run`` (its manifest), ``figures build`` (artifact triples),
``docs build`` (``docs/CLI.md``), ``lint --write-baseline`` and the
``--json`` / ``--telemetry`` options, each to the path it names;
``validate`` and the ``check`` actions write nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence, Tuple

from repro import telemetry
from repro._version import __version__
from repro.adaptive.controllers import CONTROLLERS
from repro.adaptive.runtime import OBJECTIVES
from repro.adaptive.traces import TRACE_GENERATORS
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.workload import SweepConfig, WorkloadConfig
from repro.core.framework import XRPerformanceModel
from repro.core.session import SessionAnalyzer
from repro.devices.catalog import DEVICE_CATALOG, EDGE_CATALOG
from repro.evaluation.report import format_table
from repro.exceptions import ReproError
from repro.fleet.admission import ADMISSION_POLICIES


def _add_backend_argument(parser: argparse.ArgumentParser, noun: str) -> None:
    from repro.exec import backend_names

    parser.add_argument(
        "--backend",
        choices=backend_names(),
        default=None,
        help=f"execution backend for {noun} "
        "(default: REPRO_EXEC_BACKEND, then 'process')",
    )


def _add_device_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device",
        default="XR1",
        choices=sorted(DEVICE_CATALOG),
        help="XR device from the Table I catalog",
    )
    parser.add_argument(
        "--edge",
        default="EDGE-AGX",
        choices=sorted(EDGE_CATALOG),
        help="edge server from the Table I catalog",
    )


def _add_operating_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--frame-side", type=float, default=500.0, help="frame size (pixel^2 sweep unit)")
    parser.add_argument("--cpu-freq", type=float, default=2.0, help="CPU clock in GHz")
    parser.add_argument("--fps", type=float, default=30.0, help="capture frame rate")
    parser.add_argument(
        "--mode",
        default="local",
        choices=[mode.value for mode in ExecutionMode],
        help="where the inference task executes",
    )
    parser.add_argument("--throughput", type=float, default=200.0, help="wireless throughput in Mbps")


def _operating_point(args: argparse.Namespace) -> Tuple[dict, dict]:
    """The ``ApplicationConfig`` and ``NetworkConfig`` fields the
    operating-point flags set."""
    app = {
        "frame_side_px": args.frame_side,
        "cpu_freq_ghz": args.cpu_freq,
        "frame_rate_fps": args.fps,
    }
    return app, {"throughput_mbps": args.throughput}


def _build_model(args: argparse.Namespace) -> XRPerformanceModel:
    app, network = _operating_point(args)
    return XRPerformanceModel(
        device=args.device,
        edge=args.edge,
        app=ApplicationConfig(**app).with_mode(ExecutionMode(args.mode)),
        network=NetworkConfig(**network),
    )


def _workload_spec(
    args: argparse.Namespace,
    kind: str,
    *,
    app: Optional[dict] = None,
    network: Optional[dict] = None,
    faults: Optional[dict] = None,
    **params,
):
    """The :class:`~repro.experiments.ScenarioSpec` a workload subcommand's
    flags describe.

    A subcommand without ``--mode`` or ``--seed`` keeps the spec's default,
    and params left at None are omitted, so the runner's defaults apply.
    """
    from repro.experiments import ScenarioSpec

    return ScenarioSpec(
        name=args.command,
        kind=kind,
        device=args.device,
        edge=args.edge,
        app=app or {},
        network=network or {},
        faults=faults or {},
        params={key: value for key, value in params.items() if value is not None},
        **{key: getattr(args, key) for key in ("mode", "seed") if key in args},
    )


def _fault_table(args: argparse.Namespace) -> dict:
    """The ``[scenario.faults]`` table the schedule flags describe."""
    table = {"schedule": args.schedule}
    for key in ("start_epoch", "duration_epochs", "edge_index"):
        if getattr(args, key) is not None:
            table[key] = getattr(args, key)
    return table


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    model = _build_model(args)
    report = model.analyze()
    print(report.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = _build_model(args)
    sweep = SweepConfig.paper_default()
    results = model.sweep(
        frame_sides_px=sweep.frame_sides_px,
        cpu_freqs_ghz=sweep.cpu_freqs_ghz,
        mode=ExecutionMode(args.mode),
    )
    rows = [
        (
            f"{cpu:.0f}",
            f"{side:.0f}",
            f"{report.total_latency_ms:.1f}",
            f"{report.total_energy_mj:.1f}",
        )
        for (cpu, side), report in sorted(results.items())
    ]
    print(f"Analytical sweep on {args.device} ({args.mode} inference)")
    print(
        format_table(
            rows, headers=("CPU (GHz)", "frame size", "latency (ms)", "energy (mJ)")
        )
    )
    return 0


def _cmd_offload(args: argparse.Namespace) -> int:
    model = _build_model(args)
    planner = model.offloading_planner(objective=args.objective)
    decisions = planner.rank(model.app, model.network, n_edge_servers=args.edge_servers)
    print(f"Placement ranking for {args.device} (objective: {args.objective})")
    for rank, decision in enumerate(decisions, start=1):
        print(f"  {rank}. {decision.describe()}")
    return 0


def _cmd_aoi(args: argparse.Namespace) -> int:
    frequencies = tuple(args.frequencies)
    workload = WorkloadConfig(
        sensor_frequencies_hz=frequencies,
        sensor_distances_m=tuple([args.distance] * len(frequencies)),
        required_update_period_ms=args.required_period,
        horizon_ms=args.horizon,
    )
    model = XRPerformanceModel(device=args.device, edge=args.edge)
    rows = []
    for timeline in model.aoi_timelines(workload):
        rows.append(
            (
                f"{timeline.generation_frequency_hz:.0f}",
                f"{timeline.aoi_ms[0]:.1f}" if timeline.n_updates else "-",
                f"{timeline.final_aoi_ms:.1f}",
                f"{timeline.roi[-1]:.2f}" if timeline.n_updates else "-",
                "yes" if timeline.is_fresh else "no",
            )
        )
    print(
        f"AoI over {args.horizon:.0f} ms, one update required every "
        f"{args.required_period:.1f} ms"
    )
    print(
        format_table(
            rows,
            headers=("sensor (Hz)", "first AoI (ms)", "final AoI (ms)", "final RoI", "fresh?"),
        )
    )
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    model = _build_model(args)
    analyzer = SessionAnalyzer(model, use_simulation=not args.analytical, seed=args.seed)
    report = analyzer.analyze_session(n_frames=args.frames)
    print(f"Session analysis on {args.device} ({args.frames} frames, {args.mode} inference)")
    print(report.summary())
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.experiments.runner import fleet_report

    app, network = _operating_point(args)
    report, plan = fleet_report(
        _workload_spec(
            args,
            "fleet",
            app=app,
            network=network,
            users=args.users,
            n_edges=args.edge_servers,
            policy=args.policy,
            slo_ms=args.slo_ms,
            mixed_devices=args.mixed_devices,
            plan_capacity=not args.no_capacity,
            include_aoi=True,
        )
    )
    print(
        f"Fleet analysis — {args.users} users on {args.device}"
        f"{' (mixed)' if args.mixed_devices else ''}, "
        f"{args.edge_servers}x {args.edge}, policy: {args.policy}"
    )
    print(report.summary())
    if plan is not None:
        print()
        # The plan measures raw infrastructure capacity: a homogeneous
        # fleet with everyone offloading, regardless of --policy or
        # --mixed-devices above.
        print(
            f"[homogeneous {args.device} fleet, all users offloading] "
            + plan.summary()
        )
    return 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.experiments.runner import adaptive_runtime

    runtime = adaptive_runtime(
        _workload_spec(
            args,
            "adapt",
            trace=args.trace,
            epochs=args.epochs,
            epoch_ms=args.epoch_ms,
            deadline_ms=args.deadline_ms,
            objective=args.objective,
            include_aoi=True,
        )
    )
    trace = runtime.trace
    names = CONTROLLERS if args.controller == "all" else (args.controller,)

    reports = [runtime.static_report()]
    reports.extend(runtime.run(CONTROLLERS[name]()) for name in names)
    rows = [
        (
            report.controller,
            f"{report.deadline_miss_rate * 100.0:.1f}%",
            f"{report.p95_latency_ms:.0f}",
            f"{report.p99_latency_ms:.0f}",
            f"{report.mean_quality:.3f}",
            f"{report.total_energy_j:.0f}",
            f"{report.switch_count}",
        )
        for report in reports
    ]
    print(
        f"Adaptive runtime on {args.device} / {args.edge} — trace '{trace.name}' "
        f"({trace.n_epochs} epochs x {trace.epoch_ms:.0f} ms, seed {args.seed}), "
        f"deadline {args.deadline_ms:.0f} ms, objective '{args.objective}'"
    )
    print(
        format_table(
            rows,
            headers=(
                "controller",
                "miss rate",
                "p95 (ms)",
                "p99 (ms)",
                "quality",
                "energy (J)",
                "switches",
            ),
        )
    )
    print(
        f"\n(first row: best static operating point of the "
        f"{len(runtime.candidates)}-candidate grid, pinned for the whole trace)"
    )
    return 0


def _cmd_cosim(args: argparse.Namespace) -> int:
    from repro.experiments.runner import cosim_report

    spec = _workload_spec(
        args,
        "cosim",
        users=args.users,
        trace=args.trace,
        epochs=args.epochs,
        epoch_ms=args.epoch_ms,
        controller=args.controller,
        n_edges=args.edge_servers,
        shards=args.shards,
        deadline_ms=args.deadline_ms,
        objective=args.objective,
        max_iterations=args.max_iterations,
        damping=args.damping,
    )
    report = cosim_report(spec, backend=args.backend)
    print(
        f"Closed-loop co-simulation — {args.users} users on {args.device}, "
        f"{args.edge_servers}x {args.edge}"
        f"{f' per cell x {args.shards} cells' if args.shards > 1 else ''}, "
        f"controller '{args.controller}', trace '{args.trace}' "
        f"({args.epochs} epochs x {args.epoch_ms:.0f} ms, seed {args.seed})"
    )
    print(report.summary())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.diff:
        from repro.figures import diff_snapshot_files

        diff = diff_snapshot_files(args.diff[0], args.diff[1])
        print(diff.to_text())
        return 0 if diff.max_counter_delta == 0.0 else 1
    from repro.experiments import ExperimentRunner

    suite = _resolve_suite(args.suite)
    registry = telemetry.enable()
    try:
        manifest = ExperimentRunner(suite, manifest_dir=None).run(
            select=args.select, write=False
        )
    finally:
        telemetry.disable()
    snapshot = registry.snapshot()
    if args.json:
        telemetry.save_snapshot(snapshot, args.json)
    print(f"Telemetry profile — {len(manifest.scenarios)} of {len(suite)} {suite.name} scenarios")
    print()
    print(telemetry.format_profile(snapshot, telemetry.cache_report()))
    if args.json:
        print(f"\nwrote {args.json}")
    return 0


def _resolve_suite(suite_arg: str):
    from repro.experiments import bundled_suite, load_suite

    if suite_arg == "bundled":
        return bundled_suite()
    return load_suite(suite_arg)


def _cmd_experiments_list(args: argparse.Namespace) -> int:
    suite = _resolve_suite(args.suite)
    rows = [
        (
            spec.name,
            spec.kind,
            spec.device,
            spec.edge,
            str(len(spec.expected)),
            spec.description,
        )
        for spec in suite
    ]
    print(f"Suite '{suite.name}' — {len(suite)} scenarios, spec hash {suite.spec_hash()[:12]}")
    print(
        format_table(
            rows,
            headers=("scenario", "kind", "device", "edge", "expected", "description"),
        )
    )
    return 0


def _print_manifest(manifest) -> None:
    rows = [
        (
            result.name,
            result.kind,
            result.status,
            f"{result.wall_time_s:.2f}",
            str(len(result.metrics)),
        )
        for result in manifest.scenarios
    ]
    print(
        f"Suite '{manifest.suite}' — repro {manifest.repro_version}, "
        f"commit {(manifest.git_sha or 'unknown')[:12]}, "
        f"spec hash {manifest.spec_hash[:12]}"
    )
    print(format_table(rows, headers=("scenario", "kind", "status", "wall (s)", "metrics")))
    for result in manifest.scenarios:
        for check in result.checks:
            print(f"  check failed — {result.name}: {check}")
        if result.error:
            print(f"  error — {result.name}: {result.error}")


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentRunner

    suite = _resolve_suite(args.suite)
    runner = ExperimentRunner(suite)
    manifest = runner.run(
        select=args.select,
        processes=args.processes,
        write=False,
        task_timeout_s=args.task_timeout_s,
        backend=args.backend,
    )
    out = args.out if args.out else runner.manifest_path()
    manifest.save(out)
    _print_manifest(manifest)
    print(f"\nwrote {out} in {manifest.total_wall_time_s:.1f} s")
    return 0 if manifest.passed else 1


def _cmd_experiments_check(args: argparse.Namespace) -> int:
    from repro.experiments import (
        DEFAULT_GATE_RTOL,
        ExperimentRunner,
        RunManifest,
        compare_manifests,
        git_sha,
    )

    baseline = RunManifest.load(args.baseline)
    if args.manifest:
        manifest = RunManifest.load(args.manifest)
        source = args.manifest
        head = git_sha()
        if head and manifest.git_sha and manifest.git_sha != head:
            print(
                f"warning: manifest {args.manifest} was recorded at commit "
                f"{manifest.git_sha[:12]} but HEAD is {head[:12]}; the gate "
                f"may be checking stale results — re-run "
                f"'repro experiments run' or drop --manifest",
                file=sys.stderr,
            )
    else:
        # The default is a fresh serial run, so the gate always reflects
        # the code being checked rather than whatever manifest happens to
        # be on disk.
        suite = _resolve_suite(args.suite)
        manifest = ExperimentRunner(suite).run(write=False)
        source = f"fresh run of suite '{suite.name}'"
    report = compare_manifests(
        manifest,
        baseline,
        default_rtol=args.rtol if args.rtol is not None else DEFAULT_GATE_RTOL,
        ignore_spec_hash=args.ignore_spec_hash,
    )
    print(f"Comparing {source} against {args.baseline}")
    print(report.summary())
    if not manifest.passed:
        _print_manifest(manifest)
        return 1
    return 0 if report.passed else 1


def _fault_timeline(schedule, n_epochs: int, n_edges: int) -> str:
    """One character per epoch: '.' clean, 'X' dead edge(s), 'b' brownout,
    '~' link fault, 's' straggler."""
    chars = []
    for epoch in range(n_epochs):
        state = schedule.state_at(epoch, n_edges)
        if state.n_edges_alive < n_edges:
            chars.append("X")
        elif state.availability < 1.0:
            chars.append("b")
        elif state.has_link_fault:
            chars.append("~")
        elif state.any_fault:
            chars.append("s")
        else:
            chars.append(".")
    return "".join(chars)


def _cmd_faults_list(args: argparse.Namespace) -> int:
    from repro.faults import FAULT_GENERATORS, FAULT_KINDS, make_schedule

    del args
    rows = []
    for name in sorted(FAULT_GENERATORS):
        schedule = make_schedule(name)
        doc = (FAULT_GENERATORS[name].__doc__ or "").strip().splitlines()[0]
        rows.append((name, str(len(schedule.events)), str(schedule.last_epoch), doc))
    print(f"Bundled fault schedules — event kinds: {', '.join(FAULT_KINDS)}")
    print(format_table(rows, headers=("schedule", "events", "last epoch", "description")))
    return 0


def _cmd_faults_describe(args: argparse.Namespace) -> int:
    from repro.faults import build_schedule

    schedule = build_schedule(_fault_table(args))
    print(schedule.describe())
    n_epochs = args.epochs if args.epochs is not None else schedule.last_epoch + 4
    timeline = _fault_timeline(schedule, n_epochs, args.edge_servers)
    print(
        f"\ntimeline over {n_epochs} epochs x {args.edge_servers} edge(s) "
        f"('.'=clean 'X'=outage 'b'=brownout '~'=link 's'=straggler):"
    )
    print(f"  {timeline}")
    return 0


def _cmd_faults_run(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.runner import (
        adaptive_runtime,
        cosim_report,
        fault_epoch,
        fleet_report,
    )
    from repro.faults import build_schedule

    faults = _fault_table(args)
    schedule = build_schedule(faults)
    epochs = 40 if args.epochs is None else args.epochs
    payload = {"workload": args.workload, "schedule": schedule.to_dict()}
    if args.workload == "cosim":
        spec = _workload_spec(
            args,
            "cosim",
            faults=faults,
            users=args.users,
            trace=args.trace,
            epochs=epochs,
            controller=args.controller,
            n_edges=args.edge_servers,
            shards=args.shards,
            deadline_ms=args.deadline_ms,
        )
        report = cosim_report(spec, backend=args.backend)
        print(report.summary())
        payload["report"] = report.to_dict()
    elif args.workload == "adapt":
        spec = _workload_spec(
            args,
            "adapt",
            faults=faults,
            trace=args.trace,
            epochs=epochs,
            deadline_ms=args.deadline_ms,
        )
        runtime = adaptive_runtime(spec)
        report = runtime.run(CONTROLLERS[args.controller]())
        outcome = runtime.fault_report(report)
        print(report.summary())
        print(outcome.summary())
        payload["report"] = report.to_dict()
        payload["faults"] = outcome.to_dict()
    else:  # fleet
        spec = _workload_spec(
            args,
            "fleet",
            faults=faults,
            users=args.users,
            n_edges=args.edge_servers,
            slo_ms=args.deadline_ms,
            fault_epoch=args.fault_epoch,
        )
        report, _ = fleet_report(spec)
        print(
            f"Fleet under fault schedule {schedule.name!r} at epoch "
            f"{fault_epoch(spec, schedule)} ({report.n_edges_alive}/"
            f"{args.edge_servers} edges alive):\n"
        )
        print(report.summary())
        payload["report"] = {
            "availability": report.availability,
            "n_edges_alive": report.n_edges_alive,
            "fault_forced_local": report.fault_forced_local,
            "p50_latency_ms": report.p50_latency_ms,
            "p95_latency_ms": report.p95_latency_ms,
            "p99_latency_ms": report.p99_latency_ms,
            "slo_violations": report.slo_violations,
            "edge_utilizations": list(report.edge_utilizations),
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def _figure_inputs(args: argparse.Namespace):
    from repro.figures import FigureInputs

    snapshots = getattr(args, "snapshot", None)
    return FigureInputs(
        quick=getattr(args, "quick", False),
        manifest_path=args.manifest,
        history_dir=args.history,
        snapshot_paths=tuple(snapshots) if snapshots else None,
    )


def _cmd_figures_list(args: argparse.Namespace) -> int:
    from repro.figures import FIGURES

    del args
    rows = [
        (spec.name, spec.source, spec.artifact or "-", spec.description)
        for spec in FIGURES.values()
    ]
    print(f"Registered figures — {len(rows)} builders")
    print(format_table(rows, headers=("name", "source", "gated artifact", "description")))
    return 0


def _cmd_figures_build(args: argparse.Namespace) -> int:
    from repro.figures import FIGURES, build_all

    names = None
    if not args.all:
        if not args.names:
            print(
                "error: name one or more figures or pass --all "
                f"(known: {', '.join(FIGURES)})",
                file=sys.stderr,
            )
            return 2
        names = args.names
    inputs = _figure_inputs(args)
    built = build_all(inputs, names=names)
    for figure in built:
        paths = figure.save(args.out)
        print(f"built {figure.name}: " + ", ".join(str(path) for path in paths))
    skipped = len(FIGURES) - len(built) if args.all else 0
    if skipped:
        print(
            f"({skipped} snapshot-sourced figure(s) skipped; pass "
            "--snapshot A --snapshot B to build them)"
        )
    return 0


def _cmd_figures_check(args: argparse.Namespace) -> int:
    from repro.figures import check_figures

    # Byte-identity needs the full (non-quick) generator parameters; the
    # committed artifacts were rendered with them.
    inputs = _figure_inputs(args)
    outcomes = check_figures(inputs, results_dir=args.results)
    rows = [(outcome.name, outcome.artifact, outcome.status) for outcome in outcomes]
    print(f"Figure drift check against {args.results or 'results/'}")
    print(format_table(rows, headers=("figure", "artifact", "status")))
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        print(
            f"\n{len(failed)} artifact(s) drifted or missing — regenerate with "
            "'repro figures build --all' and commit the refreshed files if "
            "the change is intentional"
        )
        return 1
    print(f"\nall {len(outcomes)} committed artifacts reproduce byte-identically")
    return 0


def _cmd_docs_build(args: argparse.Namespace) -> int:
    from repro.docs import build_docs

    for path in build_docs(args.dir):
        print(f"built {path}")
    return 0


def _cmd_docs_check(args: argparse.Namespace) -> int:
    from repro.docs import check_docs

    outcomes = check_docs(args.dir, root=args.root)
    rows = [(o.name, o.status, o.detail) for o in outcomes]
    print(f"Docs drift check against {args.dir}/")
    print(format_table(rows, headers=("artifact", "status", "detail")))
    failed = [o for o in outcomes if not o.ok]
    if failed:
        print(
            f"\n{len(failed)} artifact(s) drifted, missing, or out of sync "
            "with the env-var registry — regenerate with 'repro docs build' "
            "(and update repro.docs.envvars.ENV_VARS) and commit the result"
        )
        return 1
    print(f"\nall {len(outcomes)} documentation artifact(s) are current")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULE_REGISTRY, LintEngine, save_report

    if args.list:
        rows = [
            (rule_id, RULE_REGISTRY[rule_id].description)
            for rule_id in sorted(RULE_REGISTRY)
        ]
        print(f"Registered lint rules — {len(rows)}")
        print(format_table(rows, headers=("rule", "checks")))
        return 0
    engine = LintEngine(rules=args.rule, baseline_path=args.baseline)
    if args.write_baseline:
        report = engine.write_baseline(args.paths)
        print(
            f"wrote {args.baseline} grandfathering {len(report.diagnostics)} "
            f"finding(s); justify each entry or fix it"
        )
        return 0
    report = engine.run(args.paths)
    if args.json:
        save_report(report, args.json)
    print(report.to_text())
    if args.json:
        print(f"wrote {args.json}")
    return report.exit_code


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.evaluation.tables import table_1, table_2

    del args
    print(table_1().to_text())
    print()
    print(table_2().to_text())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.evaluation.figures import FigureContext, figure_4a, figure_4b, figure_4c, figure_4d

    context = FigureContext(quick=args.quick)
    print("Model-vs-simulated-testbed validation (Fig. 4 reproduction)")
    rows = []
    for generator in (figure_4a, figure_4b, figure_4c, figure_4d):
        figure = generator(context=context)
        rows.append(
            (
                f"Fig. {figure.figure_id}",
                f"{figure.paper_mean_error_percent:.2f}%",
                f"{figure.mean_error_percent:.2f}%",
            )
        )
    print(format_table(rows, headers=("panel", "paper mean error", "reproduction mean error")))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Performance analysis modeling framework for XR applications "
        "in edge-assisted wireless networks (ICDCS 2024 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="per-frame latency/energy/AoI report")
    _add_device_arguments(analyze)
    _add_operating_point_arguments(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    sweep = subparsers.add_parser("sweep", help="frame-size x CPU-frequency sweep")
    _add_device_arguments(sweep)
    _add_operating_point_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    offload = subparsers.add_parser("offload", help="rank inference placements")
    _add_device_arguments(offload)
    _add_operating_point_arguments(offload)
    offload.add_argument(
        "--objective", default="latency", choices=("latency", "energy", "weighted")
    )
    offload.add_argument("--edge-servers", type=int, default=1)
    offload.set_defaults(handler=_cmd_offload)

    aoi = subparsers.add_parser("aoi", help="AoI/RoI timelines for sensor frequencies")
    _add_device_arguments(aoi)
    aoi.add_argument(
        "--frequencies",
        type=float,
        nargs="+",
        default=[200.0, 100.0, 66.67],
        help="sensor information-generation frequencies in Hz",
    )
    aoi.add_argument("--required-period", type=float, default=5.0)
    aoi.add_argument("--horizon", type=float, default=90.0)
    aoi.add_argument("--distance", type=float, default=15.0)
    aoi.set_defaults(handler=_cmd_aoi)

    session = subparsers.add_parser("session", help="session-level analysis")
    _add_device_arguments(session)
    _add_operating_point_arguments(session)
    session.add_argument("--frames", type=int, default=300)
    session.add_argument("--seed", type=int, default=0)
    session.add_argument(
        "--analytical",
        action="store_true",
        help="use the deterministic analytical model instead of simulated frames",
    )
    session.set_defaults(handler=_cmd_session)

    fleet = subparsers.add_parser(
        "fleet", help="multi-user fleet analysis and SLO capacity planning"
    )
    _add_device_arguments(fleet)
    _add_operating_point_arguments(fleet)
    fleet.set_defaults(mode="remote")  # offloading is the interesting fleet case
    fleet.add_argument("--users", type=int, default=64, help="fleet size")
    fleet.add_argument(
        "--slo-ms",
        type=float,
        default=800.0,
        help="p95 motion-to-photon latency budget per user",
    )
    fleet.add_argument(
        "--policy",
        default="greedy",
        choices=tuple(ADMISSION_POLICIES),
        help="admission/placement policy",
    )
    fleet.add_argument("--edge-servers", type=int, default=1)
    fleet.add_argument(
        "--mixed-devices",
        nargs="+",
        metavar="DEVICE",
        help="cycle users through these devices instead of --device",
    )
    fleet.add_argument(
        "--no-capacity",
        action="store_true",
        help="skip the SLO capacity plan",
    )
    fleet.set_defaults(handler=_cmd_fleet)

    adapt = subparsers.add_parser(
        "adapt", help="trace-driven runtime adaptation of operating points"
    )
    _add_device_arguments(adapt)
    adapt.add_argument(
        "--trace",
        default="burst",
        choices=tuple(TRACE_GENERATORS),
        help="bundled condition-trace scenario to replay",
    )
    adapt.add_argument("--epochs", type=int, default=400, help="control epochs")
    adapt.add_argument(
        "--epoch-ms", type=float, default=100.0, help="control epoch length"
    )
    adapt.add_argument("--seed", type=int, default=0, help="trace seed")
    adapt.add_argument(
        "--deadline-ms",
        type=float,
        default=700.0,
        help="per-frame end-to-end latency budget",
    )
    adapt.add_argument(
        "--objective",
        default="quality",
        choices=OBJECTIVES,
        help="what to optimise among deadline-feasible candidates",
    )
    adapt.add_argument(
        "--controller",
        default="all",
        choices=("all", *CONTROLLERS),
        help="controller(s) to run against the best static reference",
    )
    adapt.set_defaults(handler=_cmd_adapt)

    cosim = subparsers.add_parser(
        "cosim",
        help="closed-loop co-simulation of an adaptive multi-user fleet",
    )
    _add_device_arguments(cosim)
    cosim.add_argument("--users", type=int, default=64, help="fleet size")
    cosim.add_argument(
        "--trace",
        default="burst",
        choices=tuple(TRACE_GENERATORS),
        help="exogenous (per-user) condition-trace scenario",
    )
    cosim.add_argument("--epochs", type=int, default=200, help="control epochs")
    cosim.add_argument(
        "--epoch-ms", type=float, default=100.0, help="control epoch length"
    )
    cosim.add_argument("--seed", type=int, default=0, help="trace seed")
    cosim.add_argument(
        "--deadline-ms",
        type=float,
        default=700.0,
        help="per-frame end-to-end latency budget",
    )
    cosim.add_argument(
        "--objective",
        default="quality",
        choices=OBJECTIVES,
        help="what to optimise among deadline-feasible candidates",
    )
    cosim.add_argument(
        "--controller",
        default="hysteresis",
        choices=tuple(CONTROLLERS),
        help="adaptive controller every user runs",
    )
    cosim.add_argument("--edge-servers", type=int, default=1)
    cosim.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent cells the fleet is split into (pooled shard fan-out)",
    )
    _add_backend_argument(cosim, "the shard fan-out")
    cosim.add_argument(
        "--max-iterations",
        type=int,
        default=8,
        help="per-epoch best-response iteration budget",
    )
    cosim.add_argument(
        "--damping",
        type=float,
        default=0.5,
        help="relaxation factor on the endogenous conditions between iterations",
    )
    cosim.set_defaults(handler=_cmd_cosim)

    def _add_suite_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--suite",
            default="bundled",
            help="'bundled' or a path to a .toml/.json scenario file or directory",
        )

    profile = subparsers.add_parser(
        "profile",
        help="run scenarios of a suite with telemetry enabled and print their "
        "span tree, counters and cache report",
    )
    _add_suite_argument(profile)
    profile.add_argument(
        "--select",
        nargs="+",
        metavar="SCENARIO",
        help="profile only these scenarios (default: the whole suite)",
    )
    profile.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        help="structurally diff two saved telemetry snapshots instead of "
        "profiling; exits non-zero when the snapshots disagree on any "
        "counter or span call-count",
    )
    profile.add_argument(
        "--json", metavar="PATH", help="also write the telemetry snapshot as JSON"
    )
    profile.set_defaults(handler=_cmd_profile)

    experiments = subparsers.add_parser(
        "experiments",
        help="declarative scenario suites: list/run manifests and regression-gate "
        "them against committed baselines",
    )
    actions = experiments.add_subparsers(dest="action", required=True)

    exp_list = actions.add_parser("list", help="print the suite's scenario table")
    _add_suite_argument(exp_list)
    exp_list.set_defaults(handler=_cmd_experiments_list)

    exp_run = actions.add_parser(
        "run", help="run a suite and write its manifest under results/manifests/"
    )
    _add_suite_argument(exp_run)
    exp_run.add_argument(
        "--select",
        nargs="+",
        metavar="SCENARIO",
        help="run only these scenarios (suite order preserved)",
    )
    exp_run.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker processes for independent scenarios (0 = serial reference path)",
    )
    exp_run.add_argument(
        "--out",
        metavar="PATH",
        help="manifest output path (default: results/manifests/<suite>.json)",
    )
    exp_run.add_argument(
        "--task-timeout-s",
        type=float,
        default=None,
        help="per-scenario wall-clock budget for pooled runs; a scenario "
        "whose worker exceeds it is re-run serially (default: "
        "REPRO_EXEC_TIMEOUT_S, unbounded when unset)",
    )
    _add_backend_argument(exp_run, "pooled scenario runs")
    exp_run.add_argument(
        "--telemetry",
        metavar="PATH",
        help="run with telemetry enabled and write the snapshot as JSON "
        "(the manifest also embeds it; metric payloads are unaffected)",
    )
    exp_run.set_defaults(handler=_cmd_experiments_run)

    exp_check = actions.add_parser(
        "check",
        help="regression-gate a manifest (or a fresh run) against a baseline manifest",
    )
    _add_suite_argument(exp_check)
    exp_check.add_argument(
        "--baseline",
        default="results/manifests/baseline.json",
        help="committed baseline manifest to gate against",
    )
    exp_check.add_argument(
        "--manifest",
        default=None,
        help="gate this previously-written manifest instead of running the "
        "suite fresh (a stale-commit warning is printed if its git SHA "
        "differs from HEAD)",
    )
    exp_check.add_argument(
        "--rtol",
        type=float,
        default=None,
        help="gate-wide relative tolerance (default: 1e-6; per-metric "
        "tolerances committed with the baseline always win)",
    )
    exp_check.add_argument(
        "--ignore-spec-hash",
        action="store_true",
        help="compare metrics even when the scenario suite changed",
    )
    exp_check.set_defaults(handler=_cmd_experiments_check)

    faults = subparsers.add_parser(
        "faults",
        help="deterministic fault injection: list/describe bundled schedules "
        "and replay workloads under them",
    )
    fault_actions = faults.add_subparsers(dest="action", required=True)

    flt_list = fault_actions.add_parser("list", help="print the bundled fault schedules")
    flt_list.set_defaults(handler=_cmd_faults_list)

    def _add_schedule_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--schedule",
            required=True,
            help="bundled schedule name (see 'repro faults list')",
        )
        parser.add_argument(
            "--start-epoch", type=int, default=None, help="override the fault start epoch"
        )
        parser.add_argument(
            "--duration-epochs", type=int, default=None, help="override the fault duration"
        )
        parser.add_argument(
            "--edge-index", type=int, default=None, help="override the faulted edge"
        )

    flt_describe = fault_actions.add_parser(
        "describe", help="print a schedule's events and per-epoch timeline"
    )
    _add_schedule_arguments(flt_describe)
    flt_describe.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="timeline length (default: last fault epoch + 4)",
    )
    flt_describe.add_argument(
        "--edge-servers", type=int, default=2, help="edge pool size for the timeline"
    )
    flt_describe.set_defaults(handler=_cmd_faults_describe)

    flt_run = fault_actions.add_parser(
        "run", help="replay a cosim/adapt/fleet workload under a fault schedule"
    )
    _add_schedule_arguments(flt_run)
    flt_run.add_argument(
        "--workload",
        choices=("cosim", "adapt", "fleet"),
        default="cosim",
        help="which subsystem to drive (default: cosim)",
    )
    _add_device_arguments(flt_run)
    flt_run.add_argument("--users", type=int, default=4, help="fleet size (cosim/fleet)")
    flt_run.add_argument(
        "--epochs", type=int, default=None, help="trace length (default: 40)"
    )
    flt_run.add_argument(
        "--trace",
        choices=tuple(TRACE_GENERATORS),
        default="step",
        help="condition trace generator (cosim/adapt)",
    )
    flt_run.add_argument(
        "--controller",
        choices=tuple(CONTROLLERS),
        default="hysteresis",
        help="adaptation controller (cosim/adapt)",
    )
    flt_run.add_argument("--seed", type=int, default=11, help="trace RNG seed")
    flt_run.add_argument(
        "--edge-servers", type=int, default=2, help="edge servers in the pool"
    )
    flt_run.add_argument(
        "--shards", type=int, default=1, help="independent cells (cosim only)"
    )
    _add_backend_argument(flt_run, "the cosim shard fan-out")
    flt_run.add_argument(
        "--deadline-ms", type=float, default=700.0, help="per-frame latency budget"
    )
    flt_run.add_argument(
        "--fault-epoch",
        type=int,
        default=None,
        help="epoch to sample the schedule at (fleet only; default: first fault epoch)",
    )
    flt_run.add_argument(
        "--json", metavar="PATH", help="write the structured report as JSON"
    )
    flt_run.set_defaults(handler=_cmd_faults_run)

    figures = subparsers.add_parser(
        "figures",
        help="figure registry: list builders, build text/CSV/Vega-Lite "
        "artifacts, or check committed results/ artifacts for drift",
    )
    figure_actions = figures.add_subparsers(dest="action", required=True)

    fig_list = figure_actions.add_parser("list", help="print the registered figure builders")
    fig_list.set_defaults(handler=_cmd_figures_list)

    def _add_figure_input_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--manifest",
            default="results/manifests/baseline.json",
            help="run manifest feeding the dashboard figures",
        )
        parser.add_argument(
            "--history",
            default="results/manifests",
            help="manifest directory feeding the run-history figure",
        )
        parser.add_argument(
            "--snapshot",
            action="append",
            metavar="PATH",
            help="telemetry snapshot for diff figures (pass twice: A then B)",
        )

    fig_build = figure_actions.add_parser(
        "build", help="build figures into text + CSV + Vega-Lite files"
    )
    fig_build.add_argument("names", nargs="*", help="figure names (see 'figures list')")
    fig_build.add_argument("--all", action="store_true", help="build every registered figure")
    fig_build.add_argument(
        "--out",
        default="results/figures",
        help="output directory (default: results/figures, git-ignored)",
    )
    fig_build.add_argument(
        "--quick",
        action="store_true",
        help="reduced generator sweeps (not byte-identical to committed artifacts)",
    )
    _add_figure_input_arguments(fig_build)
    fig_build.set_defaults(handler=_cmd_figures_build)

    fig_check = figure_actions.add_parser(
        "check",
        help="re-render every committed results/ text artifact through the "
        "registry and fail on any byte difference",
    )
    fig_check.add_argument(
        "--results",
        default=None,
        help="directory holding the committed artifacts (default: results/)",
    )
    _add_figure_input_arguments(fig_check)
    fig_check.set_defaults(handler=_cmd_figures_check)

    docs = subparsers.add_parser(
        "docs",
        help="generated documentation: build docs/CLI.md from the live "
        "argparse tree, or drift-check it (the CI docs-drift gate)",
    )
    docs_actions = docs.add_subparsers(dest="action", required=True)
    docs_build = docs_actions.add_parser(
        "build",
        help="render the generated docs pages (CLI reference + env-var "
        "table) into the docs directory",
    )
    docs_build.add_argument(
        "--dir",
        default="docs",
        help="directory the generated pages are written to",
    )
    docs_build.set_defaults(handler=_cmd_docs_build)
    docs_check = docs_actions.add_parser(
        "check",
        help="re-render every generated docs page and fail on any byte "
        "difference; also cross-checks the REPRO_* env-var registry "
        "against the source trees",
    )
    docs_check.add_argument(
        "--dir",
        default="docs",
        help="directory holding the committed generated pages",
    )
    docs_check.add_argument(
        "--root",
        default=None,
        help="repository root for the REPRO_* source sweep "
        "(default: the parent of --dir)",
    )
    docs_check.set_defaults(handler=_cmd_docs_check)

    lint = subparsers.add_parser(
        "lint",
        help="invariant lint: determinism, round-trips, pool safety, "
        "telemetry naming, spec validity, export consistency",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests examples, "
        "whichever exist)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        metavar="REPNNN",
        help="run only this rule (repeatable; default: all registered rules)",
    )
    lint.add_argument(
        "--baseline",
        default="lint-baseline.json",
        metavar="PATH",
        help="committed baseline of grandfathered findings "
        "(default: lint-baseline.json; a missing file is an empty baseline)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather every current finding into --baseline and exit 0",
    )
    lint.add_argument(
        "--json", metavar="PATH", help="also write the findings as a JSON report"
    )
    lint.add_argument(
        "--list", action="store_true", help="print the registered rules and exit"
    )
    lint.set_defaults(handler=_cmd_lint)

    tables = subparsers.add_parser("tables", help="print the Table I / II reproductions")
    tables.set_defaults(handler=_cmd_tables)

    validate = subparsers.add_parser(
        "validate", help="quick model-vs-simulated-testbed validation"
    )
    validate.add_argument("--quick", action="store_true", help="use the reduced sweep")
    validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.exceptions.ReproError` raised by a subcommand (invalid
    input, an unknown scenario) prints one ``error:`` line to stderr and
    exits 2, like an argparse usage error.  A reader that closes stdout
    early ends the command with exit 1 and no traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    telemetry_path = getattr(args, "telemetry", None)
    try:
        if not telemetry_path:
            code = args.handler(args)
        else:
            # --telemetry PATH: run the subcommand against a fresh recording
            # registry and persist its snapshot, whatever the exit path.
            registry = telemetry.enable()
            try:
                code = args.handler(args)
            finally:
                telemetry.disable()
                telemetry.save_snapshot(registry.snapshot(), telemetry_path)
            print(f"wrote telemetry snapshot {telemetry_path}")
        # Flush here, so a reader that closed the pipe early
        # (``repro tables | head -1``) fails inside this try, not at exit.
        sys.stdout.flush()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush cannot raise a second time (the SIGPIPE recipe of the
        # Python ``signal`` docs), and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
