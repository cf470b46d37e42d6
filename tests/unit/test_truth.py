"""Unit tests for the hidden testbed response surfaces."""

import pytest

from repro.exceptions import ModelDomainError
from repro.measurement.truth import DEVICE_FACTORS, SEGMENT_POWER_FACTORS


class TestComputeCapability:
    def test_increases_with_cpu_clock(self, truth):
        slow = truth.compute_capability(1.0, 0.8, 1.0)
        fast = truth.compute_capability(3.0, 0.8, 1.0)
        assert fast > slow

    def test_increases_with_gpu_clock(self, truth):
        slow = truth.compute_capability(2.0, 0.4, 0.0)
        fast = truth.compute_capability(2.0, 1.2, 0.0)
        assert fast > slow

    def test_share_blends_cpu_and_gpu(self, truth):
        cpu_only = truth.compute_capability(2.0, 0.8, 1.0)
        gpu_only = truth.compute_capability(2.0, 0.8, 0.0)
        blended = truth.compute_capability(2.0, 0.8, 0.5)
        assert min(cpu_only, gpu_only) < blended < max(cpu_only, gpu_only)

    def test_device_factor_applied(self, truth):
        nominal = truth.compute_capability(2.0, 0.8, 0.8)
        xr1 = truth.compute_capability(2.0, 0.8, 0.8, device_name="XR1")
        assert xr1 == pytest.approx(nominal * DEVICE_FACTORS["XR1"][0])

    def test_unknown_device_uses_nominal_surface(self, truth):
        assert truth.compute_capability(2.0, 0.8, 0.8, device_name="XR99") == pytest.approx(
            truth.compute_capability(2.0, 0.8, 0.8)
        )

    def test_invalid_share_rejected(self, truth):
        with pytest.raises(ModelDomainError):
            truth.compute_capability(2.0, 0.8, 1.5)


class TestPower:
    def test_power_increases_with_clock(self, truth):
        assert truth.mean_power_w(3.0, 0.8, 1.0) > truth.mean_power_w(1.0, 0.8, 1.0)

    def test_power_positive_over_sweep_domain(self, truth):
        for fc in (0.8, 1.0, 2.0, 3.2):
            for fg in (0.3, 0.8, 1.3):
                for share in (0.0, 0.5, 1.0):
                    assert truth.mean_power_w(fc, fg, share) > 0.0

    def test_segment_power_uses_factors(self, truth):
        mean = truth.mean_power_w(2.0, 0.8, 0.8)
        encoding = truth.segment_power_w("encoding", 2.0, 0.8, 0.8)
        inference = truth.segment_power_w("local_inference", 2.0, 0.8, 0.8)
        assert encoding == pytest.approx(SEGMENT_POWER_FACTORS["encoding"] * mean)
        assert inference > encoding

    def test_unknown_segment_rejected(self, truth):
        with pytest.raises(ModelDomainError):
            truth.segment_power_w("warp-drive", 2.0, 0.8, 0.8)


class TestEncodingAndDecoding:
    def test_encoding_increases_with_frame_size(self, truth):
        small = truth.encoding_numerator(30, 2, 10.0, 300.0, 30.0, 28)
        large = truth.encoding_numerator(30, 2, 10.0, 700.0, 30.0, 28)
        assert large > small

    def test_cnn_complexity_positive_for_all_zoo_models(self, truth):
        from repro.cnn.zoo import list_cnns

        for model in list_cnns():
            assert truth.cnn_complexity(model.depth, model.size_mb, model.depth_scale) > 0.0


class TestDeviceFactors:
    def test_every_catalog_device_has_factors(self):
        from repro.devices.catalog import DEVICE_CATALOG

        assert set(DEVICE_FACTORS) == set(DEVICE_CATALOG)

    def test_factors_are_moderate_perturbations(self):
        for compute, power in DEVICE_FACTORS.values():
            assert 0.8 < compute < 1.2
            assert 0.8 < power < 1.2
