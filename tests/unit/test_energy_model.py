"""Unit tests for the energy consumption model (Eqs. 19-21)."""

import pytest

from repro.config.application import ExecutionMode
from repro.core.energy import XREnergyModel, frame_totals
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
        mean_power = energy_model.power_model.mean_power_for(app)
        power = energy_model.power_model.segment_power_w(Segment.RENDERING, mean_power, network)
        assert energy_model.segment_energy_mj(
            Segment.RENDERING, 100.0, mean_power, network
        ) == pytest.approx(100.0 * power)

    def test_transmission_uses_radio_power(self, energy_model, remote_app, network):
        mean_power = energy_model.power_model.mean_power_for(remote_app)
        energy = energy_model.segment_energy_mj(Segment.TRANSMISSION, 10.0, mean_power, network)
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
            energy_model.power_model.device.base_power_w * latency.total_ms
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
        latency = energy_model.latency_model
        local_inference_power = local.per_segment_mj[Segment.LOCAL_INFERENCE] / max(
            latency.end_to_end(app, network).segment_ms(Segment.LOCAL_INFERENCE), 1e-9
        )
        remote_inference_power = remote.per_segment_mj[Segment.REMOTE_INFERENCE] / max(
            latency.end_to_end(remote_app, network).segment_ms(Segment.REMOTE_INFERENCE),
            1e-9,
        )
        assert remote_inference_power < local_inference_power


class TestFrameTotals:
    """Eqs. (1) and (19) composed from per-segment values by ``frame_totals``."""

    LATENCY = {
        Segment.FRAME_GENERATION: 40.0,
        Segment.TRANSMISSION: 12.0,
        Segment.LOCAL_INFERENCE: 90.0,
    }
    ENERGY = {
        Segment.FRAME_GENERATION: 80.0,
        Segment.TRANSMISSION: 24.0,
        Segment.LOCAL_INFERENCE: 300.0,
    }

    def test_base_energy_scales_with_latency(self):
        totals = frame_totals(self.LATENCY, self.ENERGY, frozenset(self.LATENCY), 0.1, 0.5)
        assert totals.total_latency_ms == 142.0
        assert totals.base_mj == 0.5 * 142.0

    def test_thermal_energy_fraction_of_compute_energy_only(self):
        totals = frame_totals(self.LATENCY, self.ENERGY, frozenset(self.LATENCY), 0.1, 0.5)
        assert totals.thermal_mj == 0.1 * (80.0 + 300.0)
        assert totals.total_energy_mj == (80.0 + 24.0 + 300.0) + totals.thermal_mj + 71.0

    def test_unbilled_segments_add_nothing(self):
        billed = frozenset({Segment.FRAME_GENERATION, Segment.TRANSMISSION})
        totals = frame_totals(self.LATENCY, self.ENERGY, billed, 0.1, 0.5)
        assert totals.total_latency_ms == 52.0
        assert totals.thermal_mj == 0.1 * 80.0
        assert totals.total_energy_mj == 104.0 + 0.1 * 80.0 + 0.5 * 52.0

    def test_arrays_give_each_frame_its_float_totals(self, rng):
        latency = {segment: rng.uniform(1.0, 100.0, 16) for segment in self.LATENCY}
        energy = {segment: rng.uniform(1.0, 300.0, 16) for segment in self.ENERGY}
        billed = frozenset(self.LATENCY)
        on_arrays = frame_totals(latency, energy, billed, 0.07, 0.45)
        for i in range(16):
            on_floats = frame_totals(
                {segment: float(values[i]) for segment, values in latency.items()},
                {segment: float(values[i]) for segment, values in energy.items()},
                billed,
                0.07,
                0.45,
            )
            assert [float(total[i]) for total in on_arrays] == list(on_floats)
