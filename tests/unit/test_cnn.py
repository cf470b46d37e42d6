"""Unit tests for the CNN descriptor, zoo (Table II) and complexity model (Eq. 12)."""

import pytest

from repro.cnn.complexity import CNNComplexityModel, PAPER_COMPLEXITY_COEFFICIENTS
from repro.cnn.model import CNNModel
from repro.cnn.zoo import CNN_ZOO, get_cnn, list_cnns
from repro.exceptions import ModelDomainError, UnknownCNNError


class TestCNNModel:
    def test_valid_descriptor(self):
        model = CNNModel(name="tiny", depth=10, size_mb=1.5)
        assert model.tier == "lightweight"

    def test_invalid_tier_rejected(self):
        with pytest.raises(ValueError):
            CNNModel(name="x", depth=10, size_mb=1.0, tier="gpu")

    def test_non_positive_depth_rejected(self):
        with pytest.raises(Exception):
            CNNModel(name="x", depth=0, size_mb=1.0)

    def test_describe_mentions_quantization(self):
        quantized = CNNModel(name="q", depth=10, size_mb=1.0, quantized=True)
        assert "quantized" in quantized.describe()


class TestZoo:
    def test_contains_eleven_models(self):
        assert len(CNN_ZOO) == 11

    def test_table_two_values(self):
        mobilenet = get_cnn("MobileNetv2_300 Float")
        assert mobilenet.depth == 99
        assert mobilenet.size_mb == pytest.approx(24.2)
        yolov3 = get_cnn("YOLOv3")
        assert yolov3.depth == 106
        assert yolov3.size_mb == pytest.approx(210.0)
        assert yolov3.tier == "server"
        assert get_cnn("MobileNetv1_240 Float").depth == 31
        assert get_cnn("NasNet Float").depth == 663

    def test_yolov7_has_depth_scaling(self):
        assert get_cnn("YOLOv7").depth_scale == pytest.approx(1.5)

    def test_quantized_models_have_no_gpu_support(self):
        assert not get_cnn("MobileNetv1_240 Quant").gpu_support

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownCNNError):
            get_cnn("ResNet-152")

    def test_list_filter_by_tier(self):
        lightweight = list_cnns(tier="lightweight")
        server = list_cnns(tier="server")
        assert len(lightweight) + len(server) == len(CNN_ZOO)
        assert {model.name for model in server} == {"YOLOv3", "YOLOv7"}


class TestComplexityModel:
    def test_paper_coefficients(self):
        model = CNNComplexityModel.paper()
        coefficients = (
            model.intercept,
            model.depth_coefficient,
            model.size_coefficient,
            model.scale_coefficient,
        )
        assert coefficients == PAPER_COMPLEXITY_COEFFICIENTS
        assert model.r_squared == pytest.approx(0.844)

    def test_eq12_evaluation(self):
        model = CNNComplexityModel.paper()
        # C = 2.45 + 0.0025*99 + 0.03*24.2 + 0.0029*1.0
        expected = 2.45 + 0.0025 * 99 + 0.03 * 24.2 + 0.0029
        assert model.complexity(get_cnn("MobileNetv2_300 Float")) == pytest.approx(expected)

    def test_larger_models_are_more_complex(self):
        model = CNNComplexityModel.paper()
        assert model.complexity(get_cnn("YOLOv3")) > model.complexity(
            get_cnn("MobileNetv1_240 Quant")
        )

    def test_negative_parameters_rejected(self):
        with pytest.raises(ModelDomainError):
            CNNComplexityModel.paper().complexity_from_parameters(-1, 10.0)

    def test_from_coefficients_requires_four(self):
        with pytest.raises(ModelDomainError):
            CNNComplexityModel.from_coefficients([1.0, 2.0])

    def test_non_positive_complexity_detected(self):
        model = CNNComplexityModel.from_coefficients([-100.0, 0.0, 0.0, 0.0])
        with pytest.raises(ModelDomainError):
            model.complexity_from_parameters(10, 10.0)
