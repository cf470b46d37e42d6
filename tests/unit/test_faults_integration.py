"""Integration tests: fault schedules threaded through the stack.

Pins the PR's contracts:

* a fault-free run with the fault machinery loaded is bit-identical to the
  pre-fault engine (the no-fault scale factors are exactly 1.0);
* cosim, fleet and adaptive runs visibly react to outages/brownouts and
  report availability + time-to-recover;
* a sharded run whose worker is chaos-killed recovers per-shard and merges
  to a report bit-identical to the all-serial run;
* the experiments layer loads ``[scenario.faults]`` sections, surfaces the
  recovery metrics, and the hardened scenario pool survives worker crashes;
* the ``repro faults`` CLI lists, describes and replays schedules.
"""

import json
import math

import pytest

from repro import telemetry
from repro.adaptive import (
    AdaptiveRuntime,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
    make_trace,
    step_trace,
)
from repro.cli import main
from repro.cosim import CoSimulation, run_cosim
from repro.exceptions import ConfigurationError
from repro.exec import CHAOS_KILL_ENV
from repro.experiments import ExperimentRunner, bundled_suite
from repro.experiments.spec import ScenarioSpec
from repro.faults import EpochFaultState, FaultSchedule, make_schedule
from repro.fleet import FleetAnalyzer, GreedySLOAdmission, homogeneous


@pytest.fixture(autouse=True)
def _null_registry():
    telemetry.disable()
    yield
    telemetry.disable()


def _outage(start=10, duration=6, edge=0):
    return make_schedule(
        "edge-outage", start_epoch=start, duration_epochs=duration, edge_index=edge
    )


def _cosim(faults=None, controller=None, users=4, epochs=40, n_shards=1):
    return run_cosim(
        homogeneous(users, device="XR1"),
        controller if controller is not None else HysteresisThreshold(),
        step_trace(epochs, seed=11),
        n_shards=n_shards,
        n_edges=2,
        include_aoi=False,
        faults=faults,
    )


class TestCosimFaults:
    def test_no_fault_run_is_bit_identical_to_pre_fault_engine(self):
        assert _cosim().to_dict() == _cosim(faults=None).to_dict()

    def test_outage_misses_exactly_inside_the_window(self):
        report = _cosim(faults=_outage())
        miss = report.miss_fraction
        assert all(miss[e] == 1.0 for e in range(10, 16))
        assert all(miss[e] == 0.0 for e in list(range(0, 10)) + list(range(16, 40)))
        assert report.faults is not None
        assert report.faults.fault_miss_rate == 1.0
        assert report.faults.clear_miss_rate == 0.0
        assert report.availability == pytest.approx(1.0 - 6 / 40 * 0.5)
        assert report.mean_time_to_recover_epochs == 0.0
        assert all(window.recovered for window in report.faults.windows)

    def test_epoch_availability_series_tracks_the_schedule(self):
        report = _cosim(faults=_outage())
        assert len(report.epoch_availability) == 40
        assert report.epoch_availability[12] == 0.5
        assert report.epoch_availability[0] == 1.0

    def test_predictive_controller_dodges_the_fault(self):
        # EwmaPredictive steers to on-device points and never misses, while
        # hysteresis (above) misses every fault epoch: controllers visibly
        # react to the same schedule differently.
        from repro.adaptive import EwmaPredictive

        report = _cosim(faults=_outage(), controller=EwmaPredictive())
        assert report.deadline_miss_rate == 0.0
        assert report.faults.fault_miss_rate == 0.0

    def test_all_edges_dead_saturates_offloaders(self):
        schedule = FaultSchedule(
            name="blackout",
            events=(
                make_schedule("edge-outage", start_epoch=5, duration_epochs=2, edge_index=0).events[0],
                make_schedule("edge-outage", start_epoch=5, duration_epochs=2, edge_index=1).events[0],
            ),
        )
        report = _cosim(faults=schedule)
        assert all(report.miss_fraction[e] == 1.0 for e in (5, 6))

    def test_fault_summary_line_present(self):
        report = _cosim(faults=_outage())
        assert "faults[edge-outage]" in report.summary()

    def test_report_round_trips_with_faults(self):
        report = _cosim(faults=_outage())
        payload = report.to_dict()
        assert payload["faults"]["schedule_name"] == "edge-outage"
        assert json.loads(json.dumps(payload)) == payload

    def test_schedule_must_fit_the_edge_pool(self):
        with pytest.raises(ConfigurationError):
            CoSimulation(
                homogeneous(4, device="XR1"),
                HysteresisThreshold(),
                step_trace(10, seed=0),
                n_edges=1,
                include_aoi=False,
                faults=_outage(edge=1),
            )


class TestShardedFaultRecovery:
    def test_sharded_report_matches_serial_shards(self):
        sharded = _cosim(faults=_outage(), users=8, n_shards=2)
        assert sharded.availability == pytest.approx(1.0 - 6 / 40 * 0.5)
        assert sharded.fault_miss_rate == 1.0
        assert sharded.mean_time_to_recover_epochs == 0.0

    def test_killed_worker_recovers_bit_identically(self, monkeypatch):
        # The acceptance pin: kill one shard's worker mid-run; the hardened
        # pool re-runs that shard serially and the merged report is
        # bit-identical to the undisturbed run.
        clean = _cosim(faults=_outage(), users=8, n_shards=2)
        monkeypatch.setenv(CHAOS_KILL_ENV, "0")
        registry = telemetry.enable()
        chaos = _cosim(faults=_outage(), users=8, n_shards=2)
        counters = registry.snapshot()["counters"]
        assert counters.get("exec.retry.broken_pool", 0) >= 1
        assert counters["exec.serial_reruns"] >= 1
        telemetry.disable()
        assert chaos.to_dict() == clean.to_dict()

    def test_n_shards_validated_at_the_boundary(self):
        with pytest.raises(ConfigurationError):
            _cosim(n_shards=0)
        with pytest.raises(ConfigurationError):
            _cosim(n_shards=-1)


class TestFleetFaults:
    def _analyze(self, fault_state, users=12, n_edges=2):
        return FleetAnalyzer(
            homogeneous(users, device="XR1"),
            n_edges=n_edges,
            policy=GreedySLOAdmission(slo_ms=800.0),
            slo_ms=800.0,
            include_aoi=False,
            fault_state=fault_state,
        ).analyze()

    def test_outage_reroutes_to_surviving_edge(self):
        state = _outage(start=0).state_at(0, 2)
        report = self._analyze(state)
        assert report.n_edges_alive == 1
        assert report.availability == 0.5
        assert report.edge_utilizations[0] == 0.0
        offloaded = [o for o in report.outcomes if o.offloaded]
        assert offloaded and all(o.edge_index == 1 for o in offloaded)

    def test_all_dead_forces_local(self):
        schedule = FaultSchedule(
            name="blackout",
            events=(
                _outage(start=0, edge=0).events[0],
                _outage(start=0, edge=1).events[0],
            ),
        )
        report = self._analyze(schedule.state_at(0, 2))
        assert report.n_edges_alive == 0
        assert all(not o.offloaded for o in report.outcomes)
        assert report.fault_forced_local > 0
        assert "forced local" in report.summary()

    def test_brownout_caps_admission_on_scaled_load(self):
        # Both edges at half capacity serve every frame twice as slowly.  The
        # greedy policy must cap the scaled busy fraction, so it admits one
        # user per edge instead of two that would saturate it.
        report = self._analyze(EpochFaultState(0, 2, (0.5, 0.5), (1.0, 1.0)))
        assert report.n_offloaded == 2
        assert report.edge_utilizations == pytest.approx((0.8674, 0.8674), abs=1e-4)
        assert all(math.isfinite(o.latency_ms) for o in report.outcomes)
        assert report.slo_violations == 0
        assert report.p95_latency_ms == pytest.approx(740.34, abs=0.01)

    def test_no_fault_state_matches_pre_fault_analyzer(self):
        base = self._analyze(None)
        assert base.availability == 1.0
        assert base.n_edges_alive is None
        assert "Faults:" not in base.summary()

    def test_fault_state_pool_size_must_match(self):
        state = _outage(start=0).state_at(0, 2)
        with pytest.raises(ConfigurationError):
            self._analyze(state, n_edges=3)


class TestAdaptiveFaults:
    def _runtime(self, faults=None, epochs=30):
        return AdaptiveRuntime(
            trace=step_trace(epochs, seed=7), include_aoi=False, faults=faults
        )

    def test_no_fault_run_is_bit_identical(self):
        base = self._runtime().run(GreedyBatchSweep())
        again = self._runtime(faults=None).run(GreedyBatchSweep())
        assert base.to_dict() == again.to_dict()

    def test_greedy_steers_on_device_during_outage(self):
        schedule = make_schedule("edge-outage", start_epoch=8, duration_epochs=6)
        runtime = self._runtime(faults=schedule)
        report = runtime.run(GreedyBatchSweep())
        assert report.deadline_miss_rate == 0.0
        outcome = runtime.fault_report(report)
        assert outcome.availability == pytest.approx(1.0 - 6 / 30)
        assert outcome.fault_miss_rate == 0.0
        assert all(window.recovered for window in outcome.windows)

    def test_pinned_offloader_misses_during_outage(self):
        schedule = make_schedule("edge-outage", start_epoch=8, duration_epochs=6)
        runtime = self._runtime(faults=schedule)
        offload_index = next(
            i for i, f in enumerate(runtime._offload_fraction) if f > 0
        )
        report = runtime.run(StaticBaseline(offload_index))
        missed = [latency > report.deadline_ms for latency in report.latency_ms]
        assert all(missed[8:14])

    def test_fault_report_none_without_schedule(self):
        runtime = self._runtime()
        assert runtime.fault_report(runtime.run(GreedyBatchSweep())) is None

    def test_schedule_must_target_the_single_edge(self):
        with pytest.raises(ConfigurationError):
            self._runtime(faults=_outage(edge=1))


class TestSingleUserFaultDegeneracy:
    """A one-user co-simulation under faults is the adaptive runtime.

    XR1 pinned to ``StaticBaseline(1)``, the first remote candidate of
    ``default_candidates(device="XR1")``, on one edge.
    """

    def _both(self, schedule):
        trace = make_trace("step", 30, seed=0)
        runtime = AdaptiveRuntime(
            trace=trace, device="XR1", include_aoi=False, faults=schedule
        ).run(StaticBaseline(1))
        cosim = CoSimulation(
            homogeneous(1, device="XR1"),
            StaticBaseline(1),
            trace,
            n_edges=1,
            include_aoi=False,
            faults=schedule,
        ).run()
        return runtime, cosim.class_reports[0]

    def test_outage_agrees(self):
        runtime, cosim = self._both(make_schedule("edge-outage"))
        assert cosim == runtime

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "AdaptiveRuntime inflates an offloading candidate by its offloaded "
            "share, while the co-simulation scales only the other tenants' queue "
            "and tenant_wait_ms returns inf once the sole tenant's scaled load "
            "reaches 1: a 0.5 brownout reads 1317.54 vs 658.77 ms in all 10 "
            "faulted epochs, a straggler 1976.44 ms vs inf in 5"
        ),
    )
    @pytest.mark.parametrize(
        "schedule",
        (
            make_schedule(
                "brownout", start_epoch=5, duration_epochs=10, capacity_factor=0.5
            ),
            make_schedule("straggler"),
        ),
        ids=("brownout", "straggler"),
    )
    def test_inflating_faults_agree(self, schedule):
        runtime, cosim = self._both(schedule)
        assert cosim.latency_ms == runtime.latency_ms


def _fault_spec(**overrides):
    payload = {
        "name": "t_cosim_outage",
        "kind": "cosim",
        "seed": 11,
        "params": {
            "trace": "step",
            "epochs": 40,
            "users": 4,
            "controller": "hysteresis",
            "n_edges": 2,
            "include_aoi": False,
        },
        "faults": {
            "schedule": "edge-outage",
            "start_epoch": 10,
            "duration_epochs": 6,
            "edge_index": 0,
        },
    }
    payload.update(overrides)
    return payload


class TestExperimentsFaults:
    def test_bundled_suite_carries_fault_scenarios(self):
        names = {spec.name for spec in bundled_suite()}
        for name in (
            "faults_cosim_outage",
            "faults_cosim_brownout",
            "faults_adapt_outage",
            "faults_fleet_outage",
        ):
            assert name in names

    def test_bundled_fault_scenarios_pass_their_pins(self):
        suite = bundled_suite()
        names = [s.name for s in suite if s.name.startswith("faults_")]
        manifest = ExperimentRunner(suite, manifest_dir=None).run(
            select=names, write=False
        )
        assert manifest.passed
        outage = manifest.result_for("faults_cosim_outage")
        assert outage.metrics["availability"] == 0.925
        assert outage.metrics["fault_miss_rate"] == 0.0
        assert outage.metrics["mean_time_to_recover_epochs"] == 0.0

    def test_spec_round_trips_with_faults(self):
        spec = ScenarioSpec.from_dict(_fault_spec())
        assert ScenarioSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()
        assert spec.build_faults().name == "edge-outage"

    def test_faults_rejected_for_static_kinds(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(
                _fault_spec(kind="analyze", params={}, name="t_bad")
            )

    def test_bad_schedule_reference_fails_at_load_time(self):
        payload = _fault_spec()
        payload["faults"] = {"schedule": "cosmic-rays"}
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(payload)

    def test_negative_processes_rejected(self):
        runner = ExperimentRunner(bundled_suite(), manifest_dir=None)
        with pytest.raises(ConfigurationError):
            runner.run(processes=-1, write=False)

    def test_pooled_run_survives_killed_worker(self, monkeypatch):
        suite = bundled_suite()
        names = [s.name for s in suite if s.kind == "analyze"][:2]
        runner = ExperimentRunner(suite, manifest_dir=None)
        serial = runner.run(select=names, write=False)
        monkeypatch.setenv(CHAOS_KILL_ENV, "0")
        registry = telemetry.enable()
        pooled = runner.run(select=names, processes=2, write=False)
        counters = registry.snapshot()["counters"]
        assert counters["exec.serial_reruns"] >= 1
        telemetry.disable()
        assert pooled.metric_payload() == serial.metric_payload()


class TestFaultsCli:
    def test_list_prints_every_bundled_schedule(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("edge-outage", "brownout", "link-flap", "straggler"):
            assert name in out

    def test_describe_renders_timeline(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "describe",
                    "--schedule",
                    "edge-outage",
                    "--start-epoch",
                    "2",
                    "--duration-epochs",
                    "3",
                    "--epochs",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "..XXX..." in out

    def test_run_cosim_writes_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "faults",
                    "run",
                    "--schedule",
                    "edge-outage",
                    "--start-epoch",
                    "10",
                    "--duration-epochs",
                    "6",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        assert "faults[edge-outage]" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["workload"] == "cosim"
        assert payload["schedule"]["name"] == "edge-outage"
        assert payload["report"]["faults"]["fault_miss_rate"] == 1.0

    def test_run_fleet_workload(self, capsys):
        assert (
            main(
                [
                    "faults",
                    "run",
                    "--workload",
                    "fleet",
                    "--schedule",
                    "edge-outage",
                    "--users",
                    "12",
                ]
            )
            == 0
        )
        assert "1/2 edges alive" in capsys.readouterr().out
