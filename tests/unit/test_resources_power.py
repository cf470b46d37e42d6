"""Unit tests for the compute-resource model (Eq. 3) and power model (Eq. 21)."""

import numpy as np
import pytest

from repro.core.coefficients import CoefficientSet
from repro.core.power import PowerModel
from repro.core.resources import ComputeResourceModel
from repro.core.segments import Segment
from repro.devices.catalog import get_device, get_edge_server
from repro.exceptions import ModelDomainError
from repro.measurement.truth import SEGMENT_POWER_FACTORS


class TestComputeResourceModel:
    def test_matches_eq3_for_cpu_only(self, paper_coefficients):
        model = ComputeResourceModel(paper_coefficients)
        assert model.client_compute(2.0, 1.0, 1.0) == pytest.approx(13.56)

    def test_floor_clamps_pathological_points(self, paper_coefficients):
        model = ComputeResourceModel(paper_coefficients)
        # The paper's GPU polynomial dips near 0.7 GHz; the floor keeps it positive.
        assert model.client_compute(2.0, 0.7, 0.0) >= 0.5

    def test_client_compute_for_app(self, paper_coefficients, app):
        model = ComputeResourceModel(paper_coefficients)
        expected = model.client_compute(app.cpu_freq_ghz, app.gpu_freq_ghz, app.cpu_share)
        assert model.client_compute_for(app) == pytest.approx(expected)

    def test_edge_compute_uses_global_scale(self, paper_coefficients):
        model = ComputeResourceModel(paper_coefficients)
        assert model.edge_compute(2.0) == pytest.approx(2.0 * 11.76)

    def test_edge_compute_prefers_edge_spec_scale(self, paper_coefficients):
        model = ComputeResourceModel(paper_coefficients)
        tx2 = get_edge_server("EDGE-TX2")
        assert model.edge_compute(2.0, edge=tx2) == pytest.approx(2.0 * tx2.compute_scale_vs_client)

    def test_edge_compute_rejects_non_positive_client(self, paper_coefficients):
        with pytest.raises(ModelDomainError):
            ComputeResourceModel(paper_coefficients).edge_compute(0.0)


class TestPowerModel:
    def _model(self, coefficients=None):
        return PowerModel(
            coefficients=coefficients or CoefficientSet.paper(), device=get_device("XR1")
        )

    def test_eq21_value_at_3ghz_cpu_only(self):
        model = self._model()
        # -20.74 + 18.85*3 - 3.64*9 = 3.05 W
        assert model.mean_power_w(3.0, 1.0, 1.0) == pytest.approx(3.05, abs=0.01)

    def test_clamped_at_base_power_below_domain(self):
        model = self._model()
        # At 1 GHz the paper's polynomial is negative; the model clamps.
        assert model.mean_power_w(1.0, 1.0, 1.0) == pytest.approx(
            get_device("XR1").base_power_w
        )

    def test_segment_power_scales_mean_power(self, app):
        model = self._model()
        mean = model.mean_power_for(app)
        rendering = model.segment_power_w(Segment.RENDERING, mean)
        encoding = model.segment_power_w(Segment.ENCODING, mean)
        assert rendering > encoding
        assert rendering == pytest.approx(SEGMENT_POWER_FACTORS["rendering"] * mean)

    def test_radio_segments_use_network_power(self, app, network):
        model = self._model()
        mean = model.mean_power_for(app)
        assert model.segment_power_w(Segment.TRANSMISSION, mean, network) == pytest.approx(
            network.radio_tx_power_w
        )
        assert model.segment_power_w(Segment.HANDOFF, mean, network) == pytest.approx(
            network.handoff.power_w
        )

    def test_negative_inputs_rejected(self):
        model = self._model()
        with pytest.raises(ModelDomainError):
            model.mean_power_w(-1.0, 1.0, 0.5)
        with pytest.raises(ModelDomainError):
            model.mean_power_w(np.array([2.0, -1.0]), 1.0, 0.5)
        with pytest.raises(ModelDomainError):
            model.mean_power_w(2.0, 1.0, -0.5)
