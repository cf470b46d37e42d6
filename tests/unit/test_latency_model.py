"""Unit tests for the per-segment and end-to-end latency model (Eqs. 1-18)."""

import pytest

from repro import units
from repro.config.application import ExecutionMode
from repro.config.network import HandoffConfig, NetworkConfig
from repro.core.latency import INFERENCE_RESULT_SIZE_MB, XRLatencyModel
from repro.core.segments import Segment
from repro.exceptions import ConfigurationError, ModelDomainError


@pytest.fixture
def model(device_spec, edge_spec):
    return XRLatencyModel(device=device_spec, edge=edge_spec)


def encoding(model, app):
    """``L_en`` at the operating point's own client compute and Eq. (10) workload."""
    return model.encoding_ms(app, model.client_compute(app), model.encoding_numerator(app))


def remote_inference(model, app):
    """``L_rem`` at the operating point's own client and edge compute."""
    compute = model.client_compute(app)
    return model.remote_inference_ms(
        app, compute, model.edge_compute(compute), model.encoding_numerator(app)
    )


class TestSegmentModels:
    def test_frame_generation_eq2(self, model, app):
        compute = model.client_compute(app)
        expected = (
            app.frame_period_ms
            + app.frame_side_px / compute
            + app.raw_frame_size_mb / model.device.memory_bandwidth_gb_s
        )
        assert model.frame_generation_ms(app, compute) == pytest.approx(expected)

    def test_volumetric_eq4(self, model, app):
        compute = model.client_compute(app)
        expected = (
            app.virtual_scene_side_px / compute
            + app.virtual_scene_data_mb / model.device.memory_bandwidth_gb_s
        )
        assert model.volumetric_ms(app, compute) == pytest.approx(expected)

    def test_external_is_slowest_sensor_times_updates(self, model, app, network):
        slowest_period = max(sensor.generation_period_ms for sensor in network.sensors)
        value = model.external_information_ms(app, network)
        assert value >= app.sensor_updates_per_frame * slowest_period

    def test_external_zero_without_sensors(self, model, app):
        assert model.external_information_ms(app, NetworkConfig(sensors=())) == 0.0

    def test_conversion_smaller_than_encoding(self, model, app):
        conversion = model.conversion_ms(app, model.client_compute(app))
        assert conversion < encoding(model, app)

    def test_encoding_increases_with_frame_size(self, model, app):
        assert encoding(model, app.with_frame_side(700.0)) > encoding(
            model, app.with_frame_side(300.0)
        )

    def test_local_inference_zero_when_no_client_share(self, model, remote_app):
        compute = model.client_compute(remote_app)
        assert model.local_inference_ms(remote_app, compute) == 0.0

    def test_local_inference_positive_in_local_mode(self, model, app):
        assert model.local_inference_ms(app, model.client_compute(app)) > 0.0

    def test_decoding_is_fraction_of_encoding(self, model, remote_app):
        encoding_compute = (
            encoding(model, remote_app)
            - remote_app.raw_frame_size_mb / model.device.memory_bandwidth_gb_s
        )
        compute = model.client_compute(remote_app)
        decoding = model.decoding_ms(
            compute, model.edge_compute(compute), model.encoding_numerator(remote_app)
        )
        assert decoding < encoding_compute
        assert decoding == pytest.approx(
            encoding_compute * model.coefficients.decode_discount / 11.76, rel=1e-6
        )

    def test_remote_inference_zero_in_local_mode(self, model, app):
        assert remote_inference(model, app) == 0.0

    def test_remote_inference_requires_edge(self, device_spec, remote_app):
        model = XRLatencyModel(device=device_spec, edge=None)
        with pytest.raises(ModelDomainError):
            remote_inference(model, remote_app)

    def test_multi_edge_split_is_max_of_shares(self, model, app):
        import dataclasses

        split = dataclasses.replace(
            app,
            inference=dataclasses.replace(
                app.inference,
                mode=ExecutionMode.SPLIT,
                omega_client=0.2,
                edge_shares=(0.5, 0.3),
            ),
        )
        single_remote = app.with_mode(ExecutionMode.REMOTE)
        assert remote_inference(model, split) < remote_inference(model, single_remote)

    def test_transmission_eq16(self, model, remote_app, network):
        expected = units.transmission_latency_ms(
            remote_app.encoded_frame_size_mb, network.throughput_mbps
        ) + network.propagation_delay_ms(network.edge_distance_m)
        assert model.transmission_ms(remote_app, network) == pytest.approx(expected)

    def test_handoff_zero_when_disabled(self, model, remote_app, network):
        assert model.handoff_ms(remote_app, network) == 0.0

    def test_handoff_positive_when_enabled(self, model, remote_app):
        network = NetworkConfig(handoff=HandoffConfig(enabled=True, handoff_probability=0.2))
        assert model.handoff_ms(remote_app, network) == pytest.approx(0.2 * 150.0)

    def test_rendering_includes_buffering(self, model, app, network):
        rendering = model.rendering_ms(app, network, model.client_compute(app))
        assert rendering > model.buffering_ms(app, network)

    def test_result_transfer_local_vs_remote(self, model, app, network):
        local = model.result_transfer_ms(app, network, local=True)
        remote = model.result_transfer_ms(app, network, local=False)
        assert local < remote
        assert remote == pytest.approx(
            units.transmission_latency_ms(INFERENCE_RESULT_SIZE_MB, network.throughput_mbps)
            + network.propagation_delay_ms(network.edge_distance_m)
        )

    def test_cooperation_disabled_by_default(self, model, app, network):
        assert model.cooperation_ms(app, network) == 0.0


class TestEndToEnd:
    def test_total_is_sum_of_included_segments(self, model, app, network):
        breakdown = model.end_to_end(app, network)
        manual = sum(
            breakdown.per_segment_ms[segment] for segment in breakdown.included_segments
        )
        assert breakdown.total_ms == pytest.approx(manual)

    def test_local_mode_has_no_remote_segments(self, model, app, network):
        breakdown = model.end_to_end(app, network)
        assert Segment.ENCODING not in breakdown.per_segment_ms
        assert Segment.LOCAL_INFERENCE in breakdown.per_segment_ms
        assert breakdown.edge_compute is None

    def test_remote_mode_has_no_local_segments(self, model, remote_app, network):
        breakdown = model.end_to_end(remote_app, network)
        assert Segment.LOCAL_INFERENCE not in breakdown.per_segment_ms
        assert Segment.ENCODING in breakdown.per_segment_ms
        assert breakdown.edge_compute is not None

    def test_split_mode_contains_both_paths(self, model, app, network):
        import dataclasses

        split = dataclasses.replace(
            app,
            inference=dataclasses.replace(
                app.inference,
                mode=ExecutionMode.SPLIT,
                omega_client=0.5,
                edge_shares=(0.5,),
            ),
        )
        breakdown = model.end_to_end(split, network)
        assert Segment.LOCAL_INFERENCE in breakdown.included_segments
        assert Segment.REMOTE_INFERENCE in breakdown.included_segments

    def test_latency_monotone_in_frame_size(self, model, app, network):
        totals = [
            model.end_to_end(app.with_frame_side(side), network).total_ms
            for side in (300.0, 500.0, 700.0)
        ]
        assert totals[0] < totals[1] < totals[2]

    def test_cooperation_reported_but_not_totalled(self, model, app, network):
        import dataclasses

        from repro.config.application import CooperationConfig

        coop_app = dataclasses.replace(app, cooperation=CooperationConfig(enabled=True))
        breakdown = model.end_to_end(coop_app, network)
        assert Segment.COOPERATION in breakdown.per_segment_ms
        assert Segment.COOPERATION not in breakdown.included_segments

    def test_cooperation_in_totals_when_requested(self, model, app, network):
        import dataclasses

        from repro.config.application import CooperationConfig

        coop_app = dataclasses.replace(
            app, cooperation=CooperationConfig(enabled=True, include_in_totals=True)
        )
        breakdown = model.end_to_end(coop_app, network)
        assert Segment.COOPERATION in breakdown.included_segments

    def test_default_network_used_when_omitted(self, model, app):
        assert model.end_to_end(app).total_ms > 0.0

    def test_invalid_complexity_mode_rejected(self, device_spec, edge_spec):
        with pytest.raises(ConfigurationError):
            XRLatencyModel(device=device_spec, edge=edge_spec, complexity_mode="banana")

    def test_proportional_mode_penalises_complex_cnns(self, device_spec, edge_spec, app):
        import dataclasses

        paper_model = XRLatencyModel(device=device_spec, edge=edge_spec, complexity_mode="paper")
        proportional = XRLatencyModel(
            device=device_spec, edge=edge_spec, complexity_mode="proportional"
        )
        small = dataclasses.replace(
            app, inference=dataclasses.replace(app.inference, local_cnn="MobileNetv1_240 Quant")
        )
        big = dataclasses.replace(
            app, inference=dataclasses.replace(app.inference, local_cnn="NasNet Float")
        )
        # Paper mode: bigger CNN -> *smaller* latency (complexity in denominator).
        compute = paper_model.client_compute(app)
        assert paper_model.local_inference_ms(big, compute) < paper_model.local_inference_ms(
            small, compute
        )
        # Proportional mode: bigger CNN -> larger latency.
        assert proportional.local_inference_ms(big, compute) > proportional.local_inference_ms(
            small, compute
        )


class TestEndToEndDerivedValues:
    """``end_to_end`` derives Eq. (3), the Eq. (10) workload and the edge compute once."""

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda mode: mode.value)
    def test_each_segment_is_its_method_at_the_derived_values(self, model, app, network, mode):
        app = app.with_mode(mode)
        breakdown = model.end_to_end(app, network)
        compute = model.client_compute(app)
        expected = {
            Segment.FRAME_GENERATION: model.frame_generation_ms(app, compute),
            Segment.VOLUMETRIC: model.volumetric_ms(app, compute),
            Segment.EXTERNAL: model.external_information_ms(app, network),
            Segment.RENDERING: model.rendering_ms(app, network, compute),
        }
        if mode is not ExecutionMode.REMOTE:
            expected[Segment.CONVERSION] = model.conversion_ms(app, compute)
            expected[Segment.LOCAL_INFERENCE] = model.local_inference_ms(app, compute)
        if mode is not ExecutionMode.LOCAL:
            numerator = model.encoding_numerator(app)
            edge_compute = model.edge_compute(compute)
            expected[Segment.ENCODING] = model.encoding_ms(app, compute, numerator)
            expected[Segment.REMOTE_INFERENCE] = model.remote_inference_ms(
                app, compute, edge_compute, numerator
            )
            expected[Segment.TRANSMISSION] = model.transmission_ms(app, network)
            expected[Segment.HANDOFF] = model.handoff_ms(app, network)
        assert breakdown.per_segment_ms == expected

    @pytest.mark.parametrize(
        "mode", [ExecutionMode.REMOTE, ExecutionMode.SPLIT], ids=lambda mode: mode.value
    )
    def test_breakdown_carries_the_derived_computes(self, model, app, network, mode):
        app = app.with_mode(mode)
        breakdown = model.end_to_end(app, network)
        assert breakdown.client_compute == model.client_compute(app)
        assert breakdown.edge_compute == model.edge_compute(breakdown.client_compute)

    def test_remote_path_derives_each_value_once(self, model, remote_app, network, monkeypatch):
        calls = {"client_compute": 0, "encoding_numerator": 0, "edge_compute": 0}
        for name in calls:
            method = getattr(XRLatencyModel, name)

            def counted(self, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(XRLatencyModel, name, counted)
        model.end_to_end(remote_app, network)
        assert calls == {"client_compute": 1, "encoding_numerator": 1, "edge_compute": 1}
