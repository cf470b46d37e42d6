"""Synthetic measurement campaign.

Replaces the paper's physical measurement campaign: operating points of the
Table I devices are sampled over the ranges the paper sweeps (CPU/GPU clocks,
CPU/GPU split, encoder settings, frame sizes and rates, the Table II CNNs),
the hidden testbed response surfaces of :mod:`repro.measurement.truth` are
evaluated at each point, and heteroscedastic (multiplicative Gaussian)
measurement noise is added.  The campaign then re-fits the paper's regression
forms with :class:`repro.measurement.regression.LinearRegression` and reports
train/test R^2 using the paper's device split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.cnn.zoo import list_cnns
from repro.devices.catalog import DEVICE_CATALOG, TEST_DEVICES, TRAIN_DEVICES
from repro.exceptions import ConfigurationError
from repro.measurement.datasets import MeasurementDataset, MeasurementSample, split_by_device
from repro.measurement.regression import LinearRegression, RegressionResult
from repro.measurement.truth import TestbedTruth


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of the synthetic measurement campaign.

    Attributes:
        n_samples: total number of measurement samples to generate.  The
            paper's campaign has 119,465 + 36,083 samples; the default here is
            smaller so that calibration stays fast, and tests can request
            the full size.
        devices: device names to measure (defaults to all Table I XR devices).
        seed: RNG seed.
        compute_noise: relative noise on the compute-capability measurements.
        power_noise: relative noise on the power measurements.
        encoding_noise: relative noise on the encoding-latency measurements.
        complexity_noise: relative noise on the CNN-complexity measurements.
        cpu_freq_range_ghz: sampled CPU clock range.
        gpu_freq_range_ghz: sampled GPU clock range.
    """

    n_samples: int = 6000
    devices: Tuple[str, ...] = tuple(sorted(DEVICE_CATALOG))
    seed: int = 2024
    compute_noise: float = 0.05
    power_noise: float = 0.08
    encoding_noise: float = 0.14
    complexity_noise: float = 0.20
    cpu_freq_range_ghz: Tuple[float, float] = (0.8, 3.2)
    gpu_freq_range_ghz: Tuple[float, float] = (0.3, 1.3)

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ConfigurationError(f"n_samples must be > 0, got {self.n_samples}")
        if not self.devices:
            raise ConfigurationError("at least one device is required")
        unknown = [name for name in self.devices if name not in DEVICE_CATALOG]
        if unknown:
            raise ConfigurationError(f"unknown devices in campaign config: {unknown}")
        for name in ("compute_noise", "power_noise", "encoding_noise", "complexity_noise"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1), got {value}")
        for name in ("cpu_freq_range_ghz", "gpu_freq_range_ghz"):
            low, high = getattr(self, name)
            if not 0.0 < low < high:
                raise ConfigurationError(f"{name} must satisfy 0 < low < high, got {low}, {high}")


@dataclass(frozen=True)
class CampaignFits:
    """The four regression fits produced by one campaign.

    Attributes map one-to-one to the paper's regressions: Eq. (3) compute
    resource, Eq. (21) mean power, Eq. (10) encoding latency, Eq. (12) CNN
    complexity.
    """

    resource: RegressionResult
    power: RegressionResult
    encoding: RegressionResult
    complexity: RegressionResult


class SyntheticCampaign:
    """Generates the synthetic measurement dataset and fits the regressions."""

    def __init__(
        self, config: CampaignConfig | None = None, truth: TestbedTruth | None = None
    ) -> None:
        self.config = config if config is not None else CampaignConfig()
        self.truth = truth if truth is not None else TestbedTruth()

    # -- dataset generation -----------------------------------------------------------

    def generate(self) -> MeasurementDataset:
        """Generate the full synthetic measurement dataset."""
        rng = np.random.default_rng(self.config.seed)
        cnns = list_cnns()
        samples = []
        for _ in range(self.config.n_samples):
            device = self.config.devices[rng.integers(0, len(self.config.devices))]
            cpu_freq = float(rng.uniform(*self.config.cpu_freq_range_ghz))
            gpu_freq = float(rng.uniform(*self.config.gpu_freq_range_ghz))
            cpu_share = float(rng.uniform(0.0, 1.0))
            i_frame = float(rng.choice([15, 30, 45, 60]))
            b_frames = float(rng.integers(0, 5))
            bitrate = float(rng.uniform(2.0, 40.0))
            frame_side = float(rng.uniform(240.0, 720.0))
            fps = float(rng.choice([15, 24, 30, 60]))
            quantization = float(rng.uniform(18.0, 40.0))
            cnn = cnns[rng.integers(0, len(cnns))]

            compute = self.truth.compute_capability(
                cpu_freq, gpu_freq, cpu_share, device_name=device
            )
            power = self.truth.mean_power_w(
                cpu_freq, gpu_freq, cpu_share, device_name=device
            )
            encoding_numerator = self.truth.encoding_numerator(
                i_frame, b_frames, bitrate, frame_side, fps, quantization
            )
            complexity = self.truth.cnn_complexity(
                cnn.depth, cnn.size_mb, cnn.depth_scale
            )

            samples.append(
                MeasurementSample(
                    device=device,
                    cpu_freq_ghz=cpu_freq,
                    gpu_freq_ghz=gpu_freq,
                    cpu_share=cpu_share,
                    i_frame_interval=i_frame,
                    b_frame_count=b_frames,
                    bitrate_mbps=bitrate,
                    frame_side_px=frame_side,
                    frame_rate_fps=fps,
                    quantization=quantization,
                    cnn_depth=float(cnn.depth),
                    cnn_size_mb=cnn.size_mb,
                    cnn_depth_scale=cnn.depth_scale,
                    measured_compute=self._noisy(compute, self.config.compute_noise, rng),
                    measured_power_w=self._noisy(power, self.config.power_noise, rng),
                    measured_encoding_numerator=self._noisy(
                        encoding_numerator, self.config.encoding_noise, rng
                    ),
                    measured_cnn_complexity=self._noisy(
                        complexity, self.config.complexity_noise, rng
                    ),
                )
            )
        return MeasurementDataset(samples)

    @staticmethod
    def _noisy(value: float, relative_noise: float, rng: np.random.Generator) -> float:
        """Apply multiplicative Gaussian noise, clipped away from zero."""
        if relative_noise == 0.0:
            return value
        noisy = value * (1.0 + rng.normal(0.0, relative_noise))
        return max(noisy, 0.05 * abs(value))

    # -- regression fitting --------------------------------------------------------------

    def fit(
        self,
        dataset: MeasurementDataset | None = None,
        train_devices: Sequence[str] = TRAIN_DEVICES,
        test_devices: Sequence[str] = TEST_DEVICES,
    ) -> CampaignFits:
        """Fit the four regressions on the train devices, evaluate on the test devices."""
        if dataset is None:
            dataset = self.generate()
        train, test = split_by_device(dataset, train_devices, test_devices)

        resource = LinearRegression(MeasurementDataset.RESOURCE_FEATURES).fit(
            train.resource_design_matrix(),
            train.resource_targets(),
            test.resource_design_matrix(),
            test.resource_targets(),
        )
        power = LinearRegression(MeasurementDataset.RESOURCE_FEATURES).fit(
            train.resource_design_matrix(),
            train.power_targets(),
            test.resource_design_matrix(),
            test.power_targets(),
        )
        encoding = LinearRegression(MeasurementDataset.ENCODING_FEATURES).fit(
            train.encoding_design_matrix(),
            train.encoding_targets(),
            test.encoding_design_matrix(),
            test.encoding_targets(),
        )
        complexity = LinearRegression(MeasurementDataset.COMPLEXITY_FEATURES).fit(
            train.complexity_design_matrix(),
            train.complexity_targets(),
            test.complexity_design_matrix(),
            test.complexity_targets(),
        )
        return CampaignFits(
            resource=resource, power=power, encoding=encoding, complexity=complexity
        )
