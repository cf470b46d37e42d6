"""Model-vs-ground-truth sweep comparisons.

One :func:`run_sweep_comparison` call reproduces the data behind one panel of
Fig. 4(a)-(d): the simulated testbed measures every (CPU frequency, frame
size) operating point, the analytical framework predicts the same points, and
the comparison records both series plus the mean error the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.workload import SweepConfig
from repro.core.coefficients import CoefficientSet, calibrated_coefficients
from repro.core.framework import XRPerformanceModel
from repro.evaluation.metrics import mean_absolute_percentage_error
from repro.exceptions import ConfigurationError
from repro.simulation.testbed import GroundTruthSweep, SimulatedTestbed

#: Metrics a sweep comparison can be computed over.
SWEEP_METRICS = ("latency", "energy")


@dataclass(frozen=True)
class SweepSeries:
    """One frequency's series of a sweep comparison (one curve of Fig. 4).

    Attributes:
        cpu_freq_ghz: the CPU clock of the curve.
        frame_sides_px: swept frame sizes (x axis).
        ground_truth: measured values (latency ms or energy mJ).
        model: analytical model predictions at the same points.
    """

    cpu_freq_ghz: float
    frame_sides_px: Tuple[float, ...]
    ground_truth: Tuple[float, ...]
    model: Tuple[float, ...]

    @property
    def mean_error_percent(self) -> float:
        """Mean error of this curve."""
        return mean_absolute_percentage_error(self.model, self.ground_truth)


@dataclass(frozen=True)
class SweepComparison:
    """Full model-vs-ground-truth comparison over a sweep (one Fig. 4 panel).

    Attributes:
        metric: ``"latency"`` or ``"energy"``.
        mode: inference placement used for the sweep.
        series: one :class:`SweepSeries` per swept CPU frequency.
        device_name: simulated XR device.
        coefficients_source: provenance of the analytical coefficients.
    """

    metric: str
    mode: ExecutionMode
    series: Tuple[SweepSeries, ...]
    device_name: str
    coefficients_source: str

    @property
    def mean_error_percent(self) -> float:
        """Mean error across every point of every curve (the paper's headline)."""
        model: List[float] = []
        truth: List[float] = []
        for curve in self.series:
            model.extend(curve.model)
            truth.extend(curve.ground_truth)
        return mean_absolute_percentage_error(model, truth)

    def rows(self) -> List[Tuple[float, float, float, float]]:
        """Flat (cpu_freq, frame_side, ground_truth, model) rows for reporting."""
        rows: List[Tuple[float, float, float, float]] = []
        for curve in self.series:
            for frame_side, truth, model in zip(
                curve.frame_sides_px, curve.ground_truth, curve.model
            ):
                rows.append((curve.cpu_freq_ghz, frame_side, truth, model))
        return rows


def _extract_metric(value, metric: str) -> float:
    if metric == "latency":
        return value.total_latency_ms if hasattr(value, "total_latency_ms") else value.mean_latency_ms
    return value.total_energy_mj if hasattr(value, "total_energy_mj") else value.mean_energy_mj


def run_sweep_comparison(
    metric: str,
    mode: ExecutionMode,
    sweep: Optional[SweepConfig] = None,
    app: Optional[ApplicationConfig] = None,
    network: Optional[NetworkConfig] = None,
    device: str = "XR2",
    edge: str = "EDGE-AGX",
    coefficients: Optional[CoefficientSet] = None,
    testbed: Optional[SimulatedTestbed] = None,
    ground_truth: Optional[GroundTruthSweep] = None,
) -> SweepComparison:
    """Run one Fig. 4 panel: ground-truth sweep vs analytical model sweep.

    Args:
        metric: ``"latency"`` or ``"energy"``.
        mode: LOCAL for Fig. 4(a)/(c), REMOTE for Fig. 4(b)/(d).
        sweep: the (frame size x CPU frequency) sweep (paper default if None).
        app: base application configuration.
        network: network configuration.
        device: XR device to measure (paper test device XR2 by default).
        edge: edge server assisting the device.
        coefficients: analytical coefficients; defaults to the calibrated set,
            mirroring the paper's methodology of fitting regressions on the
            training devices before validating.
        testbed: reuse an existing simulated testbed (optional).
        ground_truth: reuse an existing ground-truth sweep (optional), e.g. so
            latency and energy panels share one set of simulated runs.
    """
    if metric not in SWEEP_METRICS:
        raise ConfigurationError(f"metric must be one of {SWEEP_METRICS}, got {metric!r}")
    sweep = sweep if sweep is not None else SweepConfig.paper_default()
    app = app if app is not None else ApplicationConfig.object_detection_default()
    network = network if network is not None else NetworkConfig()
    coefficients = coefficients if coefficients is not None else calibrated_coefficients()
    testbed = testbed if testbed is not None else SimulatedTestbed(device=device, edge=edge)
    if ground_truth is None:
        ground_truth = testbed.sweep(sweep=sweep, app=app, network=network, mode=mode)

    model = XRPerformanceModel(
        device=testbed.device,
        edge=testbed.edge,
        app=app.with_mode(mode),
        network=network,
        coefficients=coefficients,
    )
    # One vectorized batch evaluation of the whole model grid; the metric
    # arrives as a (n_freqs, n_sides) array, so the per-curve series are
    # plain row slices instead of a per-point dict-extraction loop.
    predictions = model.sweep_batch(
        frame_sides_px=sweep.frame_sides_px,
        cpu_freqs_ghz=sweep.cpu_freqs_ghz,
        mode=mode,
        network=network,
    )
    model_matrix = predictions.metric(metric).reshape(
        len(sweep.cpu_freqs_ghz), len(sweep.frame_sides_px)
    )

    series: List[SweepSeries] = []
    for row, cpu_freq in enumerate(sweep.cpu_freqs_ghz):
        truth_values = tuple(
            _extract_metric(ground_truth[(cpu_freq, frame_side)], metric)
            for frame_side in sweep.frame_sides_px
        )
        series.append(
            SweepSeries(
                cpu_freq_ghz=cpu_freq,
                frame_sides_px=tuple(sweep.frame_sides_px),
                ground_truth=truth_values,
                model=tuple(float(value) for value in model_matrix[row]),
            )
        )
    return SweepComparison(
        metric=metric,
        mode=mode,
        series=tuple(series),
        device_name=testbed.device.name,
        coefficients_source=coefficients.source,
    )
