"""Unit tests for the energy consumption model (Eqs. 19-21)."""

import pytest

from repro.config.application import ExecutionMode
from repro.core.energy import XREnergyModel
from repro.core.latency import XRLatencyModel
from repro.core.power import PowerModel
from repro.core.segments import COMPUTE_SEGMENTS, Segment


@pytest.fixture
def energy_model(device_spec, edge_spec):
    latency = XRLatencyModel(device=device_spec, edge=edge_spec)
    power = PowerModel(coefficients=latency.coefficients, device=device_spec)
    return XREnergyModel(latency_model=latency, power_model=power)


class TestSegmentEnergy:
    def test_energy_is_power_times_latency(self, energy_model, app, network):
        power = energy_model.power_model.segment_power_w(Segment.RENDERING, app, network)
        assert energy_model.segment_energy_mj(
            Segment.RENDERING, 100.0, app, network
        ) == pytest.approx(100.0 * power)

    def test_transmission_uses_radio_power(self, energy_model, remote_app, network):
        energy = energy_model.segment_energy_mj(Segment.TRANSMISSION, 10.0, remote_app, network)
        assert energy == pytest.approx(10.0 * network.radio_tx_power_w)


class TestEndToEnd:
    def test_total_includes_thermal_and_base(self, energy_model, app, network):
        breakdown = energy_model.end_to_end(app, network)
        assert breakdown.total_mj == pytest.approx(
            breakdown.segment_total_mj + breakdown.thermal_mj + breakdown.base_mj
        )
        assert breakdown.thermal_mj > 0.0
        assert breakdown.base_mj > 0.0

    def test_base_energy_consistent_with_latency(self, energy_model, app, network):
        latency = energy_model.latency_model.end_to_end(app, network)
        energy = energy_model.from_latency_breakdown(latency, app, network)
        assert energy.base_mj == pytest.approx(
            energy_model.power_model.base_power_w * latency.total_ms
        )

    def test_thermal_energy_matches_compute_fraction(self, energy_model, app, network):
        latency = energy_model.latency_model.end_to_end(app, network)
        energy = energy_model.from_latency_breakdown(latency, app, network)
        compute = sum(
            energy.per_segment_mj[segment]
            for segment in energy.included_segments
            if segment in COMPUTE_SEGMENTS
        )
        device = energy_model.power_model.device
        assert energy.thermal_mj == pytest.approx(device.thermal_fraction * compute)

    def test_same_segments_as_latency_breakdown(self, energy_model, remote_app, network):
        latency = energy_model.latency_model.end_to_end(remote_app, network)
        energy = energy_model.from_latency_breakdown(latency, remote_app, network)
        assert set(energy.per_segment_mj) == set(latency.per_segment_ms)
        assert energy.included_segments == latency.included_segments

    def test_energy_monotone_in_frame_size(self, energy_model, app, network):
        values = [
            energy_model.end_to_end(app.with_frame_side(side), network).total_mj
            for side in (300.0, 500.0, 700.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_energy_positive_in_both_modes(self, energy_model, app, remote_app, network):
        assert energy_model.end_to_end(app, network).total_mj > 0.0
        assert energy_model.end_to_end(remote_app, network).total_mj > 0.0

    def test_default_network_used_when_omitted(self, energy_model, app):
        assert energy_model.end_to_end(app).total_mj > 0.0

    def test_mode_recorded(self, energy_model, remote_app, network):
        assert energy_model.end_to_end(remote_app, network).mode is ExecutionMode.REMOTE

    def test_remote_inference_energy_cheaper_than_local_inference(
        self, energy_model, app, remote_app, network
    ):
        # Waiting for the edge server draws far less power than running the CNN locally.
        local = energy_model.end_to_end(app, network)
        remote = energy_model.end_to_end(remote_app, network)
        local_inference_power = local.per_segment_mj[Segment.LOCAL_INFERENCE] / max(
            energy_model.latency_model.local_inference_ms(app), 1e-9
        )
        remote_inference_power = remote.per_segment_mj[Segment.REMOTE_INFERENCE] / max(
            energy_model.latency_model.remote_inference_ms(remote_app), 1e-9
        )
        assert remote_inference_power < local_inference_power
