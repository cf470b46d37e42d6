"""Unit tests for the application-pipeline configuration."""

import numpy as np
import pytest

from repro.batch import OperatingPoint, ParameterGrid, evaluate_grid, evaluate_points
from repro.config.application import (
    MAX_CLOCK_GHZ,
    MAX_SENSOR_UPDATES_PER_FRAME,
    MAX_SIDE_PX,
    MIN_FRAME_RATE_FPS,
    ApplicationConfig,
    CooperationConfig,
    EncoderConfig,
    ExecutionMode,
    InferenceConfig,
)
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.exceptions import ConfigurationError


class TestEncoderConfig:
    def test_defaults_are_valid(self):
        encoder = EncoderConfig()
        assert encoder.i_frame_interval == 30
        assert encoder.bitrate_mbps == pytest.approx(10.0)

    def test_quantization_range_enforced(self):
        with pytest.raises(ConfigurationError, match="quantization"):
            EncoderConfig(quantization=70)

    def test_encoded_frame_size_uses_compression_ratio(self):
        encoder = EncoderConfig(compression_ratio=10.0)
        assert encoder.encoded_frame_size_mb(500.0) == pytest.approx(0.375 / 10.0)

    def test_compression_ratio_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(compression_ratio=0.0)


class TestInferenceConfig:
    def test_local_default(self):
        inference = InferenceConfig()
        assert inference.mode is ExecutionMode.LOCAL
        assert inference.omega_client == pytest.approx(1.0)
        assert inference.n_edge_servers == 0

    def test_local_with_edge_shares_rejected(self):
        with pytest.raises(ConfigurationError):
            InferenceConfig(mode=ExecutionMode.LOCAL, edge_shares=(0.5,))

    def test_remote_defaults_to_single_full_edge_share(self):
        inference = InferenceConfig(mode=ExecutionMode.REMOTE)
        assert inference.edge_shares == (1.0,)
        assert inference.omega_client == pytest.approx(0.0)

    def test_split_shares_must_sum_to_total(self):
        with pytest.raises(ConfigurationError, match="must equal total_task"):
            InferenceConfig(
                mode=ExecutionMode.SPLIT, omega_client=0.5, edge_shares=(0.6,)
            )

    def test_split_with_consistent_shares(self):
        inference = InferenceConfig(
            mode=ExecutionMode.SPLIT, omega_client=0.4, edge_shares=(0.3, 0.3)
        )
        assert inference.n_edge_servers == 2

    @pytest.mark.parametrize(
        "omega_client, edge_shares",
        [(1.0, ()), (1.0, (0.0,)), (0.0, (1.0,)), (0.0, (0.5, 0.5))],
    )
    def test_split_that_offloads_nothing_or_everything_rejected(
        self, omega_client, edge_shares
    ):
        with pytest.raises(ConfigurationError, match="omega_client > 0 and an edge_shares"):
            InferenceConfig(
                mode=ExecutionMode.SPLIT, omega_client=omega_client, edge_shares=edge_shares
            )


class TestCooperationConfig:
    def test_disabled_by_default(self):
        cooperation = CooperationConfig()
        assert not cooperation.enabled
        assert not cooperation.include_in_totals

    def test_cannot_include_in_totals_while_disabled(self):
        with pytest.raises(ConfigurationError):
            CooperationConfig(enabled=False, include_in_totals=True)


class TestApplicationConfig:
    def test_frame_period_matches_rate(self, app):
        assert app.frame_period_ms == pytest.approx(1000.0 / app.frame_rate_fps)

    def test_raw_frame_size_is_yuv(self, app):
        assert app.raw_frame_size_mb == pytest.approx(0.375)

    def test_virtual_scene_data_includes_point_cloud(self, app):
        assert app.virtual_scene_data_mb > app.point_cloud_mb

    def test_encoded_frame_smaller_than_raw(self, app):
        assert app.encoded_frame_size_mb < app.raw_frame_size_mb

    def test_with_frame_side_returns_new_config(self, app):
        other = app.with_frame_side(700.0)
        assert other.frame_side_px == 700.0
        assert app.frame_side_px == 500.0

    def test_with_cpu_freq(self, app):
        assert app.with_cpu_freq(3.0).cpu_freq_ghz == pytest.approx(3.0)

    def test_with_mode_remote_moves_task_to_edge(self, app):
        remote = app.with_mode(ExecutionMode.REMOTE)
        assert remote.inference.mode is ExecutionMode.REMOTE
        assert remote.inference.omega_client == pytest.approx(0.0)
        assert sum(remote.inference.edge_shares) == pytest.approx(1.0)

    def test_with_mode_local_restores_client_task(self, app):
        local = app.with_mode(ExecutionMode.REMOTE).with_mode(ExecutionMode.LOCAL)
        assert local.inference.omega_client == pytest.approx(1.0)
        assert local.inference.edge_shares == ()

    def test_invalid_frame_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationConfig(frame_rate_fps=0.0)

    def test_frame_rate_must_stay_below_the_buffer_service_rate(self):
        # The frame stream alone would saturate the input buffer (Eq. 7), so
        # analyze() and evaluate_points would raise UnstableQueueError.
        assert ApplicationConfig(frame_rate_fps=599.0).buffer_service_rate_hz == 600.0
        for changes in ({"frame_rate_fps": 600.0}, {"buffer_service_rate_hz": 30.0}):
            with pytest.raises(
                ConfigurationError, match="frame_rate_fps .* buffer_service_rate_hz"
            ):
                ApplicationConfig(**changes)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("point_cloud_mb", float("nan")),
            ("point_cloud_mb", float("inf")),
            ("cpu_freq_ghz", float("inf")),
            ("gpu_freq_ghz", float("inf")),
            ("frame_side_px", float("inf")),
            ("virtual_scene_side_px", float("inf")),
            # Unchecked, analyze() divides by zero on this one,
            ("converted_frame_side_px", float("inf")),
            # and the M/M/1 buffer reports an unstable queue on this one.
            ("frame_rate_fps", float("inf")),
            # Finite but unbounded, analyze() divides by zero in the AoI
            # model on the next four, overflows the quadratic resource
            # regression on the two clocks,
            ("frame_side_px", 1e200),
            ("converted_frame_side_px", 1e200),
            ("virtual_scene_side_px", 1e200),
            ("frame_rate_fps", 5e-324),
            ("cpu_freq_ghz", 1e200),
            ("gpu_freq_ghz", 1e200),
            # and loops once per requested update in the AoI model here.
            ("sensor_updates_per_frame", 10**12),
        ],
    )
    def test_non_finite_size_or_clock_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ApplicationConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("frame_side_px", MAX_SIDE_PX),
            ("converted_frame_side_px", MAX_SIDE_PX),
            ("virtual_scene_side_px", MAX_SIDE_PX),
            ("frame_rate_fps", MIN_FRAME_RATE_FPS),
            ("cpu_freq_ghz", MAX_CLOCK_GHZ),
            ("gpu_freq_ghz", MAX_CLOCK_GHZ),
            ("sensor_updates_per_frame", MAX_SENSOR_UPDATES_PER_FRAME),
        ],
    )
    @pytest.mark.parametrize("mode", [ExecutionMode.LOCAL, ExecutionMode.REMOTE])
    def test_bounds_analyze_to_the_same_finite_totals_in_both_paths(self, field, value, mode):
        app = ApplicationConfig(**{field: value}).with_mode(mode)
        report = XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze(app)
        batch = evaluate_points([OperatingPoint(app=app)])
        assert np.isfinite([report.total_latency_ms, report.total_energy_mj]).all()
        assert batch.total_latency_ms[0] == pytest.approx(report.total_latency_ms, rel=1e-9)
        assert batch.total_energy_mj[0] == pytest.approx(report.total_energy_mj, rel=1e-9)

    @pytest.mark.parametrize(
        "axis, field, value",
        [
            ("frame_sides_px", "frame_side_px", 1e200),
            ("cpu_freqs_ghz", "cpu_freq_ghz", 1e200),
            ("gpu_freqs_ghz", "gpu_freq_ghz", float("nan")),
            ("throughputs_mbps", "throughput_mbps", 5e-324),
        ],
    )
    def test_grid_axes_reject_what_the_configuration_rejects(self, axis, field, value):
        # ApplicationConfig or NetworkConfig rejects each of these values too.
        with pytest.raises(ConfigurationError, match=field):
            evaluate_grid(ParameterGrid(**{axis: (value,)}))

    @pytest.mark.parametrize("value", [float("inf"), 2.5, 3.0, "3"])
    def test_non_integer_sensor_update_count_rejected(self, value):
        # Unchecked, a float count reaches range() in analyze() as a TypeError,
        # and a string one fails the sign check with a TypeError.
        with pytest.raises(ConfigurationError, match="sensor_updates_per_frame"):
            ApplicationConfig(sensor_updates_per_frame=value)

    def test_numpy_integer_sensor_update_count_accepted(self):
        app = ApplicationConfig(sensor_updates_per_frame=np.int64(2))
        assert app.sensor_updates_per_frame == 2

    def test_invalid_cpu_share_rejected(self):
        with pytest.raises(ConfigurationError):
            ApplicationConfig(cpu_share=1.5)

    def test_converted_frame_size_is_rgb(self, app):
        assert app.converted_frame_size_mb(300.0) == pytest.approx(
            300.0 * 300.0 * 3.0 / 1e6
        )

    def test_configs_are_hashable(self, app):
        assert hash(app) == hash(ApplicationConfig.object_detection_default())


class TestWithModeSplit:
    """``with_mode(SPLIT)`` builds the even split the placement candidates hold."""

    @pytest.mark.parametrize("mode", [ExecutionMode.LOCAL, ExecutionMode.REMOTE])
    def test_split_of_a_local_or_remote_app_is_the_even_split(self, mode):
        from repro.core.offloading import placement_candidates

        app = ApplicationConfig(frame_rate_fps=30.0).with_mode(mode)
        split = app.with_mode(ExecutionMode.SPLIT)
        assert split.inference.mode is ExecutionMode.SPLIT
        assert split.inference.omega_client == 0.5
        assert split.inference.edge_shares == (0.5,)
        assert split == placement_candidates(app)[2]
        assert split.with_mode(ExecutionMode.SPLIT) is split

    def test_a_valid_split_is_kept(self):
        app = ApplicationConfig(
            inference=InferenceConfig(
                mode=ExecutionMode.SPLIT, omega_client=0.2, edge_shares=(0.5, 0.3)
            )
        )
        assert app.with_mode(ExecutionMode.SPLIT) is app

    def test_split_offloads_part_of_the_inference(self):
        model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
        split = ApplicationConfig().with_mode(ExecutionMode.SPLIT)
        report = model.analyze(split)
        assert report.latency.edge_compute is not None
        assert report.latency.segment_ms(Segment.REMOTE_INFERENCE) > 0.0

    def test_fleet_and_cosim_of_split_users_run(self):
        from repro.adaptive import StaticBaseline, step_trace
        from repro.batch import OperatingPoint
        from repro.cosim import CoSimulation
        from repro.fleet import FleetAnalyzer, FleetPopulation, UserProfile

        split = ApplicationConfig().with_mode(ExecutionMode.SPLIT)
        population = FleetPopulation(
            users=tuple(UserProfile(name=f"u{i}", device="XR1", app=split) for i in range(3))
        )
        fleet = FleetAnalyzer(population).analyze()
        assert fleet.n_offloaded == 3
        assert np.isfinite(fleet.p95_latency_ms)
        candidate = OperatingPoint(app=split, device="XR1", edge="EDGE-AGX")
        report = CoSimulation(
            population, StaticBaseline(0), step_trace(4, seed=0), candidates=(candidate,)
        ).run()
        assert report.offload_fraction == (1.0,) * 4
