"""Unit tests for the manifest regression gate."""

import math

from repro.experiments import (
    RunManifest,
    ScenarioResult,
    compare_manifests,
    metrics_close,
)


def _manifest(metrics, tolerances=None, status="ok", spec_hash="h", name="scn"):
    return RunManifest(
        suite="s",
        spec_hash=spec_hash,
        scenarios=(
            ScenarioResult(
                name=name,
                kind="analyze",
                status=status,
                metrics=dict(metrics),
                tolerances=dict(tolerances or {}),
            ),
        ),
    )


class TestMetricsClose:
    def test_relative_tolerance_boundary_is_inclusive(self):
        # |c - b| == rtol * |b| exactly (plus the tiny atol slack) passes...
        assert metrics_close(101.0, 100.0, rtol=0.01)
        # ...and one part in 1e9 beyond it fails.
        assert not metrics_close(101.0000001, 100.0, rtol=0.01)

    def test_zero_baseline_needs_absolute_agreement(self):
        assert metrics_close(0.0, 0.0, rtol=1e-6)
        assert not metrics_close(1e-3, 0.0, rtol=1e-6)

    def test_nan_pairs(self):
        assert metrics_close(math.nan, math.nan, rtol=0.0)
        assert not metrics_close(math.nan, 1.0, rtol=1e9)
        assert not metrics_close(1.0, math.nan, rtol=1e9)

    def test_inf_pairs(self):
        assert metrics_close(math.inf, math.inf, rtol=0.0)
        assert not metrics_close(math.inf, -math.inf, rtol=1e9)
        assert not metrics_close(math.inf, 1.0, rtol=1e9)


class TestCompareManifests:
    def test_identical_manifests_pass(self):
        current = _manifest({"latency": 100.0, "count": 3})
        report = compare_manifests(current, _manifest({"latency": 100.0, "count": 3}))
        assert report.passed
        assert report.n_compared == 2
        assert "PASS" in report.summary()

    def test_drift_beyond_tolerance_fails_with_named_metric(self):
        report = compare_manifests(
            _manifest({"latency": 120.0}), _manifest({"latency": 100.0})
        )
        assert not report.passed
        (drift,) = report.drifts
        assert drift.scenario == "scn"
        assert drift.metric == "latency"
        assert drift.reason == "drift"
        assert "scn/latency" in report.summary()

    def test_drift_is_two_sided(self):
        # A model output that moved is drift even when it moved the "good"
        # way: lower latency than the baseline is a changed answer too.
        report = compare_manifests(_manifest({"latency": 80.0}), _manifest({"latency": 100.0}))
        assert not report.passed
        (drift,) = report.drifts
        assert drift.reason == "drift"
        assert (drift.current, drift.baseline) == (80.0, 100.0)

    def test_tolerance_boundary_passes_just_beyond_fails(self):
        baseline = _manifest({"latency": 100.0}, tolerances={"latency": 0.05})
        assert compare_manifests(_manifest({"latency": 105.0}), baseline).passed
        assert not compare_manifests(_manifest({"latency": 105.001}), baseline).passed

    def test_baseline_tolerance_beats_current_and_default(self):
        baseline = _manifest({"latency": 100.0}, tolerances={"latency": 0.5})
        current = _manifest({"latency": 130.0}, tolerances={"latency": 1e-9})
        assert compare_manifests(current, baseline).passed

    def test_missing_metric_fails(self):
        report = compare_manifests(
            _manifest({"other": 1.0}), _manifest({"latency": 100.0, "other": 1.0})
        )
        assert not report.passed
        (drift,) = report.drifts
        assert drift.reason == "missing-metric"
        assert "latency" in report.summary()

    def test_missing_scenario_fails(self):
        current = _manifest({"latency": 100.0}, name="present")
        baseline = _manifest({"latency": 100.0}, name="gone")
        report = compare_manifests(current, baseline, ignore_spec_hash=True)
        assert not report.passed
        assert report.drifts[0].reason == "missing-scenario"

    def test_nan_baseline_matches_only_nan(self):
        baseline = _manifest({"p95": math.nan})
        assert compare_manifests(_manifest({"p95": math.nan}), baseline).passed
        report = compare_manifests(_manifest({"p95": 12.0}), baseline)
        assert not report.passed
        assert report.drifts[0].reason == "drift"

    def test_none_baseline_requires_none(self):
        baseline = _manifest({"aoi": None})
        assert compare_manifests(_manifest({"aoi": None}), baseline).passed
        assert not compare_manifests(_manifest({"aoi": 3.0}), baseline).passed

    def test_spec_hash_mismatch_fails_unless_ignored(self):
        current = _manifest({"latency": 100.0}, spec_hash="new")
        baseline = _manifest({"latency": 100.0}, spec_hash="old")
        report = compare_manifests(current, baseline)
        assert not report.passed
        assert report.drifts[0].reason == "spec-hash"
        assert "regenerate the baseline" in report.summary()
        assert compare_manifests(current, baseline, ignore_spec_hash=True).passed

    def test_error_status_fails_even_with_matching_metrics(self):
        current = _manifest({"latency": 100.0}, status="error")
        report = compare_manifests(current, _manifest({"latency": 100.0}))
        assert not report.passed
        assert report.drifts[0].reason == "status"

    def test_error_baseline_cannot_silently_gate_nothing(self):
        # A baseline regenerated from a failed run (empty metrics) must be
        # rejected, not quietly compared against zero metrics.
        baseline = _manifest({}, status="error")
        report = compare_manifests(_manifest({"latency": 100.0}), baseline)
        assert not report.passed
        assert report.drifts[0].reason == "baseline-status"
        assert "regenerate the baseline" in report.summary()

    def test_new_metrics_are_informational_not_drift(self):
        current = _manifest({"latency": 100.0, "brand_new": 7.0})
        report = compare_manifests(current, _manifest({"latency": 100.0}))
        assert report.passed
        assert report.n_new_metrics == 1
