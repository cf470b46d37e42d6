"""Unit tests for the application-pipeline configuration."""

import numpy as np
import pytest

from repro.config.application import (
    ApplicationConfig,
    CooperationConfig,
    EncoderConfig,
    ExecutionMode,
    InferenceConfig,
)
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

    def test_omega_loc_indicator(self):
        assert ExecutionMode.LOCAL.omega_loc == 1
        assert ExecutionMode.REMOTE.omega_loc == 0
        assert ExecutionMode.SPLIT.omega_loc == 0


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
        ],
    )
    def test_non_finite_size_or_clock_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ApplicationConfig(**{field: value})

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
