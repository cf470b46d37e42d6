"""Unit tests for the segment taxonomy and result containers."""

import pytest

from dataclasses import replace

from repro.batch import OperatingPoint, evaluate_points
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.framework import XRPerformanceModel
from repro.core.latency import XRLatencyModel
from repro.core.results import EnergyBreakdown, LatencyBreakdown
from repro.core.segments import (
    COMMON_SEGMENTS,
    COMPUTE_SEGMENTS,
    LOCAL_ONLY_SEGMENTS,
    RADIO_SEGMENTS,
    REMOTE_ONLY_SEGMENTS,
    Segment,
    billed_segments,
)
from repro.devices.catalog import DEVICE_CATALOG, EDGE_CATALOG, get_device, get_edge_server

#: Each execution mode with the (local path, remote path) it runs.
MODE_PATHS = [
    (ExecutionMode.LOCAL, True, False),
    (ExecutionMode.REMOTE, False, True),
    (ExecutionMode.SPLIT, True, True),
]


def _with_cooperation(app, billed):
    """``app`` with XR cooperation on, billed to the totals or not."""
    return replace(
        app, cooperation=replace(app.cooperation, enabled=True, include_in_totals=billed)
    )


class TestSegments:
    def test_eleven_segments(self):
        assert len(list(Segment)) == 11

    def test_local_and_remote_sets_disjoint(self):
        assert not LOCAL_ONLY_SEGMENTS & REMOTE_ONLY_SEGMENTS

    def test_local_path_bills_conversion_and_local_inference(self):
        local = billed_segments(local_path=True, remote_path=False, cooperation=False)
        assert local == COMMON_SEGMENTS | LOCAL_ONLY_SEGMENTS

    def test_remote_path_bills_encoding_transmission_and_remote_inference(self):
        remote = billed_segments(local_path=False, remote_path=True, cooperation=False)
        assert remote == COMMON_SEGMENTS | REMOTE_ONLY_SEGMENTS

    def test_split_bills_both_paths(self):
        split = billed_segments(local_path=True, remote_path=True, cooperation=False)
        assert split == COMMON_SEGMENTS | LOCAL_ONLY_SEGMENTS | REMOTE_ONLY_SEGMENTS

    def test_cooperation_optional(self):
        with_coop = billed_segments(local_path=True, remote_path=False, cooperation=True)
        without = billed_segments(local_path=True, remote_path=False, cooperation=False)
        assert with_coop == without | {Segment.COOPERATION}

    @pytest.mark.parametrize("mode, local_path, remote_path", MODE_PATHS)
    @pytest.mark.parametrize("billed_cooperation", [False, True])
    def test_end_to_end_bills_by_the_rule(
        self, mode, local_path, remote_path, billed_cooperation
    ):
        app = _with_cooperation(
            ApplicationConfig.object_detection_default().with_mode(mode), billed_cooperation
        )
        model = XRLatencyModel(
            device=get_device("XR1"),
            edge=get_edge_server("EDGE-AGX"),
            coefficients=CoefficientSet.paper(),
        )
        breakdown = model.end_to_end(app)
        assert breakdown.included_segments == billed_segments(
            local_path, remote_path, billed_cooperation
        )
        assert Segment.COOPERATION in breakdown.per_segment_ms

    @pytest.mark.parametrize("mode, local_path, remote_path", MODE_PATHS)
    @pytest.mark.parametrize("billed_cooperation", [False, True])
    def test_batch_engine_bills_by_the_rule(
        self, mode, local_path, remote_path, billed_cooperation
    ):
        app = _with_cooperation(
            ApplicationConfig.object_detection_default().with_mode(mode), billed_cooperation
        )
        point = OperatingPoint(app=app, network=NetworkConfig(), device="XR1", edge="EDGE-AGX")
        report = evaluate_points([point], include_aoi=False).report_at(0)
        rule = billed_segments(local_path, remote_path, billed_cooperation)
        assert report.latency.included_segments == rule
        assert report.energy.included_segments == rule
        assert Segment.COOPERATION in report.latency.per_segment_ms

    def test_radio_and_compute_sets_disjoint(self):
        assert not RADIO_SEGMENTS & COMPUTE_SEGMENTS

    def test_segment_string_value(self):
        assert str(Segment.FRAME_GENERATION) == "frame_generation"


class TestLatencyBreakdown:
    def _breakdown(self):
        per_segment = {
            Segment.FRAME_GENERATION: 100.0,
            Segment.RENDERING: 50.0,
            Segment.COOPERATION: 30.0,
        }
        return LatencyBreakdown(
            per_segment_ms=per_segment,
            included_segments=frozenset({Segment.FRAME_GENERATION, Segment.RENDERING}),
            mode=ExecutionMode.LOCAL,
            client_compute=3.0,
        )

    def test_total_only_counts_included(self):
        assert self._breakdown().total_ms == pytest.approx(150.0)

    def test_parallel_segments_still_reported(self):
        breakdown = self._breakdown()
        assert breakdown.segment_ms(Segment.COOPERATION) == pytest.approx(30.0)

    def test_missing_segment_reports_zero(self):
        assert self._breakdown().segment_ms(Segment.ENCODING) == 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown(
                per_segment_ms={Segment.RENDERING: -1.0},
                included_segments=frozenset({Segment.RENDERING}),
                mode=ExecutionMode.LOCAL,
                client_compute=1.0,
            )

    def test_summary_contains_rows(self):
        text = self._breakdown().summary()
        assert "frame_generation" in text
        assert "TOTAL" in text


class TestEnergyBreakdown:
    def _breakdown(self):
        per_segment = {Segment.FRAME_GENERATION: 200.0, Segment.RENDERING: 100.0}
        return EnergyBreakdown(
            per_segment_mj=per_segment,
            included_segments=frozenset(per_segment),
            thermal_mj=18.0,
            base_mj=50.0,
            mode=ExecutionMode.LOCAL,
            mean_power_w=2.0,
        )

    def test_total_includes_thermal_and_base(self):
        breakdown = self._breakdown()
        assert breakdown.total_mj == pytest.approx(200.0 + 100.0 + 18.0 + 50.0)
        assert breakdown.segment_total_mj == pytest.approx(300.0)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergyBreakdown(
                per_segment_mj={Segment.RENDERING: -5.0},
                included_segments=frozenset({Segment.RENDERING}),
                thermal_mj=0.0,
                base_mj=0.0,
                mode=ExecutionMode.LOCAL,
                mean_power_w=1.0,
            )

    def test_summary_mentions_base_energy(self):
        assert "E_base" in self._breakdown().summary()


class TestBillingAcrossTheCatalog:
    """The scalar model and the batch engine bill one rule for every pairing.

    The property-based parity test samples five devices and one edge server;
    this grid covers every Table I device with both edge servers.
    """

    @pytest.mark.parametrize("mode, local_path, remote_path", MODE_PATHS)
    @pytest.mark.parametrize("edge", sorted(EDGE_CATALOG))
    @pytest.mark.parametrize("device", sorted(DEVICE_CATALOG))
    def test_scalar_and_batch_bill_the_same_segments(
        self, device, edge, mode, local_path, remote_path
    ):
        app = ApplicationConfig.object_detection_default().with_mode(mode)
        network = NetworkConfig()
        scalar = XRPerformanceModel(device=device, edge=edge).analyze(
            app, network, include_aoi=False
        )
        batch = evaluate_points(
            [OperatingPoint(app=app, network=network, device=device, edge=edge)],
            include_aoi=False,
        ).report_at(0)
        rule = billed_segments(local_path, remote_path, cooperation=False)
        for report in (scalar, batch):
            assert report.latency.included_segments == rule
            assert report.energy.included_segments == rule
        assert batch.total_latency_ms == scalar.total_latency_ms
        assert batch.total_energy_mj == scalar.total_energy_mj
