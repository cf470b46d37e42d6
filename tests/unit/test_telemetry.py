"""Unit tests for the repro.telemetry core: histograms, registry, spans."""

import json
import time

import pytest

from repro import telemetry
from repro.telemetry import (
    NULL_TELEMETRY,
    SPAN_TIMING_FIELDS,
    TELEMETRY_SCHEMA_VERSION,
    StreamingHistogram,
    Telemetry,
    cache_report,
    format_profile,
    merge_snapshots,
    strip_timing,
)


@pytest.fixture(autouse=True)
def _null_registry():
    """Every test starts and ends on the no-op singleton."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestStreamingHistogram:
    def test_exact_count_sum_min_max(self):
        histogram = StreamingHistogram()
        for value in (3.0, 8.0, 1.5, 20.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(32.5)
        assert histogram.min == 1.5
        assert histogram.max == 20.0
        assert histogram.mean == pytest.approx(32.5 / 4)

    def test_quantiles_within_sketch_error(self):
        histogram = StreamingHistogram()
        values = [float(v) for v in range(1, 1001)]
        for value in values:
            histogram.record(value)
        # Log-bucketed sketch: ~4.4% relative error per bucket.
        assert histogram.quantile(0.50) == pytest.approx(500.0, rel=0.05)
        assert histogram.quantile(0.95) == pytest.approx(950.0, rel=0.05)
        assert histogram.quantile(0.99) == pytest.approx(990.0, rel=0.05)

    def test_quantile_clamped_to_exact_extremes(self):
        histogram = StreamingHistogram()
        histogram.record(7.0)
        assert histogram.quantile(0.0) == 7.0
        assert histogram.quantile(1.0) == 7.0

    def test_zero_and_negative_values_use_zero_bucket(self):
        histogram = StreamingHistogram()
        histogram.record(0.0)
        histogram.record(-1.0)
        histogram.record(4.0)
        assert histogram.zero_count == 2
        assert histogram.count == 3
        assert histogram.min == -1.0

    def test_merge_equals_recording_everything(self):
        left, right, reference = (
            StreamingHistogram(),
            StreamingHistogram(),
            StreamingHistogram(),
        )
        a = [1.0, 5.0, 9.0, 100.0]
        b = [2.0, 5.0, 0.0, 33.3]
        for value in a:
            left.record(value)
            reference.record(value)
        for value in b:
            right.record(value)
            reference.record(value)
        left.merge(right)
        assert left.to_dict() == reference.to_dict()

    def test_merge_is_associative(self):
        def build(values):
            histogram = StreamingHistogram()
            for value in values:
                histogram.record(value)
            return histogram

        chunks = ([1.0, 2.0], [4.0, 8.0, 16.0], [0.5, 64.0])
        ab_then_c = build(chunks[0])
        ab_then_c.merge(build(chunks[1]))
        ab_then_c.merge(build(chunks[2]))
        bc = build(chunks[1])
        bc.merge(build(chunks[2]))
        a_then_bc = build(chunks[0])
        a_then_bc.merge(bc)
        assert ab_then_c.to_dict() == a_then_bc.to_dict()

    def test_dict_round_trip(self):
        histogram = StreamingHistogram()
        for value in (0.25, 3.0, 3.0, 700.0):
            histogram.record(value)
        clone = StreamingHistogram.from_dict(
            json.loads(json.dumps(histogram.to_dict()))
        )
        assert clone.to_dict() == histogram.to_dict()


class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = Telemetry()
        registry.add("hits")
        registry.add("hits", 4)
        registry.gauge("depth", 3.0)
        registry.gauge("depth", 7.0)
        registry.record("latency", 3.0)
        registry.record("latency", 8.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["hits"] == 5
        assert snapshot["gauges"]["depth"] == 7.0
        assert snapshot["histograms"]["latency"]["count"] == 2
        assert snapshot["schema_version"] == TELEMETRY_SCHEMA_VERSION

    def test_span_nesting_builds_a_tree(self):
        registry = Telemetry()
        with registry.span("outer", items=3):
            with registry.span("inner"):
                pass
            with registry.span("inner"):
                pass
        spans = registry.snapshot()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer"]["counters"] == {"items": 3}
        assert spans["outer"]["children"]["inner"]["count"] == 2

    def test_span_annotate_folds_numeric_attrs(self):
        registry = Telemetry()
        with registry.span("work") as sp:
            sp.annotate(groups=4)
        with registry.span("work") as sp:
            sp.annotate(groups=2, label="ignored-not-numeric")
        node = registry.snapshot()["spans"]["work"]
        assert node["counters"] == {"groups": 6}

    def test_span_pops_on_exception(self):
        registry = Telemetry()
        with pytest.raises(ValueError):
            with registry.span("fails"):
                raise ValueError("boom")
        with registry.span("after"):
            pass
        spans = registry.snapshot()["spans"]
        # The failed span exited cleanly: "after" is a sibling, not a child.
        assert set(spans) == {"fails", "after"}

    def test_null_span_still_measures_elapsed(self):
        with NULL_TELEMETRY.span("anything") as sp:
            time.sleep(0.001)
        assert sp.elapsed_s > 0.0
        assert NULL_TELEMETRY.snapshot()["spans"] == {}

    def test_enable_disable_swap_the_active_registry(self):
        assert telemetry.get() is NULL_TELEMETRY
        registry = telemetry.enable()
        assert telemetry.get() is registry
        telemetry.get().add("seen")
        telemetry.disable()
        assert telemetry.get() is NULL_TELEMETRY
        assert registry.snapshot()["counters"]["seen"] == 1

    def test_snapshot_is_json_serializable(self):
        registry = Telemetry()
        with registry.span("s", n=1):
            registry.add("c")
            registry.record("h", 2.5)
        registry.gauge("g", 1.0)
        encoded = json.dumps(registry.snapshot())
        assert json.loads(encoded)["counters"]["c"] == 1

    def test_numpy_scalars_coerce_to_builtin_numbers(self):
        # Model code hands the registry np.int64 switch counts and
        # np.float64 sums; the snapshot must stay json.dumps-able.
        import numpy as np

        registry = Telemetry()
        registry.add("switches", np.int64(3))
        registry.gauge("level", np.float64(2.5))
        registry.record("latency", np.float64(7.0))
        with registry.span("work", items=np.int64(4)) as sp:
            sp.annotate(extra=np.float64(1.5))
        snapshot = registry.snapshot()
        json.dumps(snapshot)
        assert snapshot["counters"]["switches"] == 3
        assert type(snapshot["counters"]["switches"]) is int
        assert snapshot["spans"]["work"]["counters"] == {"items": 4, "extra": 1.5}

    def test_noop_overhead_stays_negligible(self):
        # 10k no-op records must be effectively free (generous cap: the
        # point is catching an accidentally-recording default, not a
        # micro-benchmark).
        start = time.perf_counter()
        for _ in range(10_000):
            NULL_TELEMETRY.add("counter")
            NULL_TELEMETRY.record("histogram", 1.0)
        assert time.perf_counter() - start < 0.5
        # Every compiled batch sweep opens one attributed span (~2 us against
        # a ~50 us sweep); 10k of them must stay as cheap.
        start = time.perf_counter()
        for _ in range(10_000):
            with NULL_TELEMETRY.span(
                "batch.evaluate_conditions", points=27, groups=3, conditions=1
            ):
                pass
        assert time.perf_counter() - start < 0.5


class TestSnapshotMergeAndStrip:
    def _snapshot(self):
        registry = Telemetry()
        with registry.span("run", users=2):
            with registry.span("epoch"):
                registry.add("epochs")
                registry.record("iterations", 3.0)
        return registry.snapshot()

    def test_strip_timing_removes_exactly_the_wall_fields(self):
        stripped = strip_timing(self._snapshot())
        node = stripped["spans"]["run"]
        for field in SPAN_TIMING_FIELDS:
            assert field not in node
            assert field not in node["children"]["epoch"]
        assert node["count"] == 1
        assert node["counters"] == {"users": 2}
        assert stripped["histograms"]["iterations"]["count"] == 1

    def test_two_runs_agree_modulo_timing(self):
        assert strip_timing(self._snapshot()) == strip_timing(self._snapshot())

    def test_merge_snapshot_doubles_counters_and_span_counts(self):
        snapshot = self._snapshot()
        registry = Telemetry()
        registry.merge_snapshot(snapshot)
        registry.merge_snapshot(snapshot)
        merged = registry.snapshot()
        assert merged["counters"]["epochs"] == 2
        assert merged["histograms"]["iterations"]["count"] == 2
        assert merged["spans"]["run"]["count"] == 2
        assert merged["spans"]["run"]["children"]["epoch"]["count"] == 2
        assert merged["spans"]["run"]["counters"] == {"users": 4}

    def test_merge_snapshots_is_associative_modulo_timing(self):
        parts = [self._snapshot() for _ in range(3)]
        left = merge_snapshots([merge_snapshots(parts[:2]), parts[2]])
        right = merge_snapshots([parts[0], merge_snapshots(parts[1:])])
        assert strip_timing(left) == strip_timing(right)

    def test_merge_rejects_unknown_schema(self):
        registry = Telemetry()
        with pytest.raises(ValueError, match="schema_version"):
            registry.merge_snapshot({"schema_version": 999})


class TestCacheReport:
    def test_reports_the_module_level_lru_surfaces(self):
        from repro.devices.catalog import get_device

        get_device("XR1")
        report = cache_report()
        assert set(report) == {
            "devices.catalog.get_device",
            "devices.catalog.get_edge_server",
            "cnn.zoo.get_cnn",
            "cnn.complexity.evaluate",
        }
        for entry in report.values():
            assert set(entry) == {"hits", "misses", "currsize", "maxsize"}
        assert report["devices.catalog.get_device"]["currsize"] >= 1


class TestFormatProfile:
    def test_renders_span_tree_counters_and_caches(self):
        registry = Telemetry()
        with registry.span("outer", n=2):
            with registry.span("inner"):
                pass
        registry.add("events", 3)
        registry.record("sizes", 10.0)
        text = format_profile(registry.snapshot(), cache_report())
        assert "span tree" in text
        assert "outer" in text and "  inner" in text
        assert "events" in text
        assert "sizes" in text
        assert "devices.catalog.get_device" in text

    def test_self_column_subtracts_child_totals(self):
        def node(total_ms, count=1, **children):
            entry = {"count": count, "total_ms": total_ms, "mean_ms": total_ms / count}
            if children:
                entry["children"] = children
            return entry

        snapshot = {
            "spans": {
                "outer": node(
                    10.0,
                    a=node(4.0, count=2, deep=node(1.5)),
                    b=node(7.0),
                ),
                "solo": node(2.0),
            }
        }
        lines = format_profile(snapshot).splitlines()
        header = lines[1]
        assert header.split()[:5] == ["span", "calls", "total", "self", "mean"]
        start, end = header.index("self"), header.index("mean")
        self_column = {line.split()[0]: line[start:end].strip() for line in lines[3:]}
        assert self_column == {
            "outer": "0 us",  # 10 - (4 + 7) clamps at zero
            "a": "2.5 ms",
            "deep": "1.5 ms",
            "b": "7.0 ms",
            "solo": "2.0 ms",
        }

    def test_empty_snapshot_renders_a_hint(self):
        assert "empty" in format_profile(NULL_TELEMETRY.snapshot())
