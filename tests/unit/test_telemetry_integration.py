"""Integration tests: telemetry instrumentation across the subsystems.

Pins the PR's two contracts:

* instrumented runs record the right counters/spans (cosim convergence
  accounting, fleet analyses, shard-snapshot merging), and
* enabling telemetry never perturbs the deterministic surfaces — manifests'
  ``metric_payload()`` and stripped snapshots are bit-identical with the
  layer on or off.
"""

import json

import pytest

from repro import telemetry
from repro.adaptive import AdaptiveRuntime, GreedyBatchSweep, HysteresisThreshold, burst_trace
from repro.cosim import run_cosim
from repro.experiments import ExperimentRunner, RunManifest, bundled_suite
from repro.fleet import FleetAnalyzer, GreedySLOAdmission, homogeneous


@pytest.fixture(autouse=True)
def _null_registry():
    telemetry.disable()
    yield
    telemetry.disable()


def _small_cosim(n_shards=1, users=8, epochs=12):
    return run_cosim(
        homogeneous(users, device="XR1"),
        HysteresisThreshold(),
        burst_trace(epochs, seed=3),
        n_shards=n_shards,
        n_edges=2,
        include_aoi=False,
    )


class TestCosimCounters:
    def test_convergence_accounting_adds_up(self):
        registry = telemetry.enable()
        report = _small_cosim()
        counters = registry.snapshot()["counters"]
        epochs = report.n_epochs
        assert counters["cosim.epochs"] == epochs
        assert (
            counters.get("cosim.epochs_converged", 0)
            + counters.get("cosim.epochs_unconverged", 0)
            == epochs
        )
        assert counters.get("cosim.epochs_oscillating", 0) <= counters.get(
            "cosim.epochs_unconverged", 0
        )
        assert counters.get("cosim.epochs_converged", 0) == sum(report.converged)
        assert counters["cosim.best_response_iterations"] == sum(report.iterations)

    def test_iterations_histogram_covers_every_epoch(self):
        registry = telemetry.enable()
        report = _small_cosim()
        histogram = registry.snapshot()["histograms"]["cosim.iterations_per_epoch"]
        assert histogram["count"] == report.n_epochs
        assert histogram["max"] == max(report.iterations)

    def test_run_span_carries_geometry(self):
        registry = telemetry.enable()
        _small_cosim(users=8, epochs=12)
        node = registry.snapshot()["spans"]["cosim.run"]
        assert node["count"] == 1
        assert node["counters"]["users"] == 8
        assert node["counters"]["epochs"] == 12

    def test_disabled_runs_record_nothing(self):
        _small_cosim()
        assert telemetry.get().snapshot()["counters"] == {}

    def test_convergence_rate_property_matches_flags(self):
        report = _small_cosim()
        assert report.convergence_rate == sum(report.converged) / report.n_epochs


class TestShardedSnapshotMerge:
    def test_shard_epochs_merge_into_the_parent_registry(self):
        registry = telemetry.enable()
        report = _small_cosim(n_shards=2, users=8, epochs=12)
        snapshot = registry.snapshot()
        # Two shards of 6 users each, 12 epochs per shard.
        assert snapshot["counters"]["cosim.epochs"] == 24
        assert snapshot["spans"]["cosim.run"]["count"] == 2
        sharded = snapshot["spans"]["cosim.run_sharded"]
        assert sharded["count"] == 1
        assert sharded["children"]["cosim.merge_shards"]["count"] == 1
        assert report.n_shards == 2

    def test_sharded_convergence_rate_spans_all_shards(self):
        report = _small_cosim(n_shards=2, users=8, epochs=12)
        flags = [flag for shard in report.shards for flag in shard.converged]
        assert report.convergence_rate == sum(flags) / len(flags)

    def test_sharded_counters_match_serial_counters(self):
        registry = telemetry.enable()
        _small_cosim(n_shards=2, users=8, epochs=12)
        sharded = registry.snapshot()["counters"]
        registry = telemetry.enable()
        for shard_users in (4, 4):
            run_cosim(
                homogeneous(shard_users, device="XR1"),
                HysteresisThreshold(),
                burst_trace(12, seed=3),
                n_edges=2,
                include_aoi=False,
            )
        serial = registry.snapshot()["counters"]
        # Shard populations are round-robin halves of the same homogeneous
        # fleet, so per-shard dynamics equal the 4-user serial runs.  The
        # sharded run additionally books its pool tasks under exec.*.
        assert sharded.pop("exec.tasks") == 2
        assert sharded == serial


class TestFleetAndAdaptiveTelemetry:
    def test_fleet_analysis_records_its_span(self):
        registry = telemetry.enable()
        FleetAnalyzer(
            homogeneous(12, device="XR1"),
            policy=GreedySLOAdmission(slo_ms=800.0),
            slo_ms=800.0,
            include_aoi=False,
        ).analyze()
        snapshot = registry.snapshot()
        assert snapshot["spans"]["fleet.analyze"]["count"] == 1
        assert snapshot["gauges"] == {}

    def test_adaptive_counters_and_prewarm_span(self):
        registry = telemetry.enable()
        runtime = AdaptiveRuntime(trace=burst_trace(20, seed=0), device="XR1")
        report = runtime.run(GreedyBatchSweep())
        snapshot = registry.snapshot()
        assert snapshot["counters"]["adaptive.epochs"] == 20
        assert snapshot["counters"]["adaptive.switches"] == report.switch_count
        prewarm = snapshot["spans"]["adaptive.prewarm"]
        assert prewarm["count"] == 1
        assert prewarm["counters"]["distinct_keys"] > 0
        batch = prewarm["children"]["batch.evaluate_conditions"]
        assert batch["count"] == 1
        candidates = runtime.context.n_candidates
        assert batch["counters"]["conditions"] == prewarm["counters"]["distinct_keys"]
        assert batch["counters"]["points"] == batch["counters"]["conditions"] * candidates
        assert 1 <= batch["counters"]["groups"] < candidates


def _suite_and_scenarios():
    suite = bundled_suite()
    names = [spec.name for spec in suite if spec.kind == "analyze"][:2]
    assert names, "bundled suite should carry analyze scenarios"
    return suite, names


class TestManifestTelemetry:
    def test_enabled_run_embeds_a_snapshot_and_round_trips(self, tmp_path):
        suite, names = _suite_and_scenarios()
        telemetry.enable()
        manifest = ExperimentRunner(suite, manifest_dir=None).run(
            select=names, write=False
        )
        assert manifest.telemetry is not None
        spans = manifest.telemetry["spans"]["experiments.run"]
        assert spans["counters"]["scenarios"] == len(names)
        for name in names:
            assert f"experiments.scenario.{name}" in spans["children"]
        path = manifest.save(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.telemetry == manifest.telemetry
        assert loaded.metric_payload() == manifest.metric_payload()

    def test_disabled_run_has_no_telemetry_section(self):
        suite, names = _suite_and_scenarios()
        manifest = ExperimentRunner(suite, manifest_dir=None).run(
            select=names, write=False
        )
        assert manifest.telemetry is None
        assert "telemetry" not in manifest.to_dict()

    def test_metric_payload_identical_with_and_without_telemetry(self):
        suite, names = _suite_and_scenarios()
        disabled = ExperimentRunner(suite, manifest_dir=None).run(
            select=names, write=False
        )
        telemetry.enable()
        enabled = ExperimentRunner(suite, manifest_dir=None).run(
            select=names, write=False
        )
        assert json.dumps(enabled.metric_payload(), sort_keys=True) == json.dumps(
            disabled.metric_payload(), sort_keys=True
        )

    def test_two_enabled_runs_agree_modulo_timing(self):
        suite, names = _suite_and_scenarios()
        snapshots = []
        for _ in range(2):
            registry = telemetry.enable()
            ExperimentRunner(suite, manifest_dir=None).run(select=names, write=False)
            snapshots.append(registry.snapshot())
            telemetry.disable()
        assert telemetry.strip_timing(snapshots[0]) == telemetry.strip_timing(
            snapshots[1]
        )

    def test_pooled_run_merges_worker_snapshots(self):
        suite, names = _suite_and_scenarios()
        registry = telemetry.enable()
        manifest = ExperimentRunner(suite, manifest_dir=None).run(
            select=names, processes=2, write=False
        )
        snapshot = registry.snapshot()
        run_node = snapshot["spans"]["experiments.run"]
        for name in names:
            # Worker spans merge to the registry root, beside experiments.run.
            assert (
                f"experiments.scenario.{name}" in snapshot["spans"]
                or f"experiments.scenario.{name}" in run_node["children"]
            )
        assert snapshot["counters"]["experiments.scenarios"] == len(names)
        assert manifest.telemetry is not None

    def test_cosim_scenarios_gate_convergence_rate(self):
        suite = bundled_suite()
        for name in ("cosim_burst_hysteresis", "cosim_step_sharded"):
            spec = next(spec for spec in suite if spec.name == name)
            assert "convergence_rate" in spec.expected
