"""The CLI's workload subcommands against the construction they replaced.

``fleet``, ``adapt``, ``cosim`` and ``faults run`` map their flags onto a
:class:`~repro.experiments.ScenarioSpec` and build the workload through the
experiment runner.  The ``reference_*`` functions below are a frozen copy of
the construction each subcommand used to do by hand.  Every flag vector must
produce the same reports, in the same order, as that copy: each entry point
the workload calls (``FleetAnalyzer.analyze``, ``plan_capacity``,
``AdaptiveRuntime.run``, ``run_cosim``) is recorded on both sides and the
records are compared as ``repr`` of ``to_dict()`` (``repr`` of the report
where it has no ``to_dict``).  ``faults run`` must also write the same
``--json`` payload, byte for byte.

The references import inside the function, as the handlers did, so that
they call the recorded entry points too.
"""

import argparse
import json
import shlex

import pytest

from repro import adaptive, cosim, fleet
from repro.adaptive.controllers import CONTROLLERS
from repro.cli import build_parser, main
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.fleet.admission import ADMISSION_POLICIES

FLEET_ARGVS = (
    "fleet --users 16",
    "fleet --users 4 --no-capacity",
    "fleet --users 512 --mixed-devices XR1 XR2 XR6 --edge-servers 2 --policy round-robin",
    "fleet --users 8 --mode local --fps 15 --throughput 80 --no-capacity --policy energy",
    "fleet --users 40 --device XR6 --edge EDGE-TX2 --frame-side 300 --cpu-freq 1.5 "
    "--slo-ms 500 --edge-servers 3",
)

ADAPT_ARGVS = (
    "adapt --epochs 50",
    "adapt --epochs 60 --trace drift --seed 3 --controller ewma --objective energy",
    "adapt --epochs 40 --trace mobility --device XR2 --deadline-ms 500 --epoch-ms 50",
    "adapt --epochs 30 --edge EDGE-TX2 --device XR7 --controller greedy",
)

COSIM_ARGVS = (
    "cosim --users 16 --epochs 30 --edge-servers 2",
    "cosim --users 40 --epochs 20 --shards 2 --backend serial --controller greedy "
    "--trace step --seed 11",
    "cosim --users 12 --epochs 25 --controller ewma --trace drift --epoch-ms 50 "
    "--max-iterations 4 --objective energy --deadline-ms 600",
    "cosim --users 9 --epochs 15 --device XR3 --edge EDGE-TX2 --edge-servers 3",
)

FAULTS_ARGVS = (
    "faults run --schedule edge-outage",
    "faults run --schedule edge-outage --start-epoch 10 --duration-epochs 6",
    "faults run --schedule brownout --users 6 --controller greedy",
    "faults run --schedule straggler --users 20 --shards 2 --backend serial --epochs 30",
    "faults run --workload adapt --schedule edge-outage",
    "faults run --workload adapt --schedule link-flap --trace burst --seed 2 --epochs 60",
    "faults run --workload fleet --schedule edge-outage --users 12",
    "faults run --workload fleet --schedule brownout --users 12 --fault-epoch 12",
    "faults run --workload fleet --schedule edge-outage --users 12 --edge-index 1 "
    "--edge-servers 3",
)


# ---------------------------------------------------------------------------
# The construction the handlers used before they went through the runner
# ---------------------------------------------------------------------------


def reference_fleet(args: argparse.Namespace) -> None:
    from repro.fleet import FleetAnalyzer, homogeneous, mixed_devices, plan_capacity

    app = ApplicationConfig(
        frame_side_px=args.frame_side, cpu_freq_ghz=args.cpu_freq, frame_rate_fps=args.fps
    ).with_mode(ExecutionMode(args.mode))
    network = NetworkConfig(throughput_mbps=args.throughput)
    if args.mixed_devices:
        population = mixed_devices(args.users, devices=tuple(args.mixed_devices), app=app)
    else:
        population = homogeneous(args.users, device=args.device, app=app)
    FleetAnalyzer(
        population,
        edge=args.edge,
        n_edges=args.edge_servers,
        network=network,
        policy=ADMISSION_POLICIES[args.policy](args.slo_ms),
        slo_ms=args.slo_ms,
    ).analyze()
    if not args.no_capacity:
        plan_capacity(
            device=args.device,
            edge=args.edge,
            slo_ms=args.slo_ms,
            app=app,
            network=network,
            n_edges=args.edge_servers,
        )


def reference_adapt(args: argparse.Namespace) -> None:
    from repro.adaptive import AdaptiveRuntime, make_trace

    trace = make_trace(args.trace, args.epochs, epoch_ms=args.epoch_ms, seed=args.seed)
    runtime = AdaptiveRuntime(
        trace=trace,
        device=args.device,
        edge=args.edge,
        deadline_ms=args.deadline_ms,
        objective=args.objective,
    )
    names = CONTROLLERS if args.controller == "all" else (args.controller,)
    runtime.static_report()
    for name in names:
        runtime.run(CONTROLLERS[name]())


def reference_cosim(args: argparse.Namespace) -> None:
    from repro.adaptive import make_trace
    from repro.cosim import run_cosim
    from repro.fleet import homogeneous

    trace = make_trace(args.trace, args.epochs, epoch_ms=args.epoch_ms, seed=args.seed)
    run_cosim(
        homogeneous(args.users, device=args.device),
        CONTROLLERS[args.controller](),
        trace,
        n_shards=args.shards,
        backend=args.backend,
        edge=args.edge,
        n_edges=args.edge_servers,
        deadline_ms=args.deadline_ms,
        objective=args.objective,
        include_aoi=False,
        max_iterations=args.max_iterations,
    )


def reference_faults_run(args: argparse.Namespace):
    """Returns ``(--json payload, fleet header or None)``."""
    from repro.faults import make_schedule

    overrides = {
        key: getattr(args, key)
        for key in ("start_epoch", "duration_epochs", "edge_index")
        if getattr(args, key) is not None
    }
    schedule = make_schedule(args.schedule, **overrides)
    payload = {"workload": args.workload, "schedule": schedule.to_dict()}
    header = None
    if args.workload == "cosim":
        from repro.adaptive import make_trace
        from repro.cosim import run_cosim
        from repro.fleet import homogeneous

        trace = make_trace(args.trace, args.epochs or 40, seed=args.seed)
        report = run_cosim(
            homogeneous(args.users, device=args.device),
            CONTROLLERS[args.controller](),
            trace,
            n_shards=args.shards,
            backend=args.backend,
            edge=args.edge,
            n_edges=args.edge_servers,
            deadline_ms=args.deadline_ms,
            include_aoi=False,
            faults=schedule,
        )
        payload["report"] = report.to_dict()
    elif args.workload == "adapt":
        from repro.adaptive import AdaptiveRuntime, make_trace

        trace = make_trace(args.trace, args.epochs or 40, seed=args.seed)
        runtime = AdaptiveRuntime(
            trace=trace,
            device=args.device,
            edge=args.edge,
            deadline_ms=args.deadline_ms,
            include_aoi=False,
            faults=schedule,
        )
        report = runtime.run(CONTROLLERS[args.controller]())
        payload["report"] = report.to_dict()
        payload["faults"] = runtime.fault_report(report).to_dict()
    else:
        from repro.fleet import FleetAnalyzer, GreedySLOAdmission, homogeneous

        fault_epoch = (
            args.fault_epoch
            if args.fault_epoch is not None
            else min(event.start_epoch for event in schedule.events)
        )
        state = schedule.state_at(fault_epoch, args.edge_servers)
        report = FleetAnalyzer(
            homogeneous(args.users, device=args.device),
            edge=args.edge,
            n_edges=args.edge_servers,
            policy=GreedySLOAdmission(slo_ms=args.deadline_ms),
            slo_ms=args.deadline_ms,
            include_aoi=False,
            fault_state=state,
        ).analyze()
        header = (
            f"Fleet under fault schedule {schedule.name!r} at epoch "
            f"{fault_epoch} ({state.n_edges_alive}/{args.edge_servers} edges alive):"
        )
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n", header


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


def _fingerprint(result) -> str:
    to_dict = getattr(result, "to_dict", None)
    return repr(to_dict()) if to_dict is not None else repr(result)


@pytest.fixture
def record(monkeypatch):
    """Patch the workload entry points; returns the list they append to."""
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(f"{name}: {_fingerprint(result)}")
            return result

        monkeypatch.setattr(owner, name, recorded)

    spy(fleet.FleetAnalyzer, "analyze")
    spy(fleet, "plan_capacity")
    spy(adaptive.AdaptiveRuntime, "run")
    spy(cosim, "run_cosim")
    return calls


def _parse(command: str):
    argv = shlex.split(command)
    return argv, build_parser().parse_args(argv)


REFERENCES = {"fleet": reference_fleet, "adapt": reference_adapt, "cosim": reference_cosim}


@pytest.mark.parametrize("command", FLEET_ARGVS + ADAPT_ARGVS + COSIM_ARGVS)
def test_workload_matches_reference(command, record):
    argv, args = _parse(command)
    REFERENCES[args.command](args)
    expected = list(record)
    assert expected, "the reference recorded no report"
    record.clear()
    assert main(argv) == 0
    assert record == expected


@pytest.mark.parametrize("command", FAULTS_ARGVS)
def test_faults_run_matches_reference(command, record, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv, args = _parse(command)
    argv += ["--json", str(path)]
    payload, header = reference_faults_run(args)
    expected = list(record)
    record.clear()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert record == expected
    assert path.read_text() == payload
    if header is not None:
        assert out.splitlines()[0] == header


# ---------------------------------------------------------------------------
# Bad input: one error line, exit 2
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [
        "faults run --schedule edge-outage --epochs 0",
        "cosim --users 4 --epochs 5 --seed -1",
        "cosim --users 0",
        "fleet --users 4 --slo-ms nan --no-capacity",
        "adapt --epochs 0",
        "faults run --schedule edge-outage --users 0",
        "adapt --epochs 20 --epoch-ms nan",
    ],
)
def test_bad_input_prints_one_error_line(command, capsys):
    assert main(shlex.split(command)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
