"""Unit tests for repro.figures.diffs: snapshot alignment and deltas."""

import pytest

from repro.figures.diffs import diff_snapshot_files, diff_snapshots
from repro.telemetry import Telemetry, save_snapshot


def _workload(extra_frames=0, extra_span=False):
    registry = Telemetry()
    registry.add("frames", 10 + extra_frames)
    registry.gauge("depth", 3.0)
    registry.record("lat_ms", 4.0)
    registry.record("lat_ms", 8.0)
    with registry.span("pipeline", points=5):
        with registry.span("encode"):
            pass
    if extra_span:
        with registry.span("extra"):
            pass
    return registry.snapshot()


class TestIdenticalSnapshots:
    def test_zero_work_delta_and_verdict(self):
        snapshot = _workload()
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.max_counter_delta == 0.0
        text = diff.to_text()
        assert "verdict: identical work" in text
        assert "0 changed" in text


class TestDivergedSnapshots:
    def test_counter_divergence_is_flagged(self):
        diff = diff_snapshots(_workload(), _workload(extra_frames=5))
        assert diff.max_counter_delta == 5.0
        assert "WORK DIVERGED" in diff.to_text()

    def test_span_present_on_one_side_counts_as_work_delta(self):
        diff = diff_snapshots(_workload(), _workload(extra_span=True))
        paths = [span.path for span in diff.spans]
        assert "extra" in paths
        assert diff.max_counter_delta >= 1.0

    def test_nested_spans_align_by_path(self):
        diff = diff_snapshots(_workload(), _workload())
        paths = {span.path for span in diff.spans}
        assert "pipeline" in paths and "pipeline/encode" in paths

    def test_span_counters_align_by_name(self):
        diff = diff_snapshots(_workload(), _workload())
        pipeline = next(span for span in diff.spans if span.path == "pipeline")
        assert [entry.name for entry in pipeline.counters] == ["points"]
        assert pipeline.counters[0].delta == 0.0

    def test_histogram_count_and_percentile_shifts(self):
        snapshot_a = _workload()
        registry = Telemetry()
        registry.add("frames", 10)
        registry.gauge("depth", 3.0)
        registry.record("lat_ms", 4.0)
        with registry.span("pipeline", points=5):
            with registry.span("encode"):
                pass
        snapshot_b = registry.snapshot()
        diff = diff_snapshots(snapshot_a, snapshot_b)
        histogram = diff.histograms[0]
        assert histogram.name == "lat_ms"
        assert histogram.count_delta == -1
        # Histograms are timing, not work: they never trip the verdict.
        assert diff.max_counter_delta == 0.0

    def test_missing_counter_counts_full_magnitude(self):
        diff = diff_snapshots({"counters": {"only_a": 3.0}}, {"counters": {}})
        assert diff.max_counter_delta == 3.0
        diff = diff_snapshots({"counters": {}}, {"counters": {"only_b": 2.0}})
        assert diff.max_counter_delta == 2.0


class TestSnapshotFiles:
    def test_diff_snapshot_files_labels_and_result(self, tmp_path):
        snapshot = _workload()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_snapshot(snapshot, path_a)
        save_snapshot(snapshot, path_b)
        diff = diff_snapshot_files(path_a, path_b)
        assert diff.label_a == "a.json" and diff.label_b == "b.json"
        assert diff.max_counter_delta == 0.0

    def test_diff_rejects_wrong_schema_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": "99.0", "counters": {}}')
        good = tmp_path / "good.json"
        save_snapshot(_workload(), good)
        with pytest.raises(ValueError):
            diff_snapshot_files(path, good)
