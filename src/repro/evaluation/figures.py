"""Per-figure experiment generators (Fig. 4(a)-(f) and Fig. 5(a)-(b)).

Every generator returns a structured result object that carries the series
the corresponding figure plots, the headline numbers the paper quotes for it
(mean error / accuracy gain), and a ``to_text()`` rendering used by the
figure registry and by ``python -m repro.evaluation.run_all``.

All generators accept a ``quick`` flag that shrinks the sweep (fewer points,
fewer simulated frames) so the test suite can exercise them end-to-end in a
few seconds; the figure registry runs them at the paper's full sweep size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.workload import SweepConfig, WorkloadConfig
from repro.core.aoi import AoIModel, AoITimeline
from repro.core.coefficients import CoefficientSet, calibrated_coefficients
from repro.core.framework import XRPerformanceModel
from repro.evaluation.metrics import (
    mean_absolute_percentage_error,
    normalized_accuracy,
    )
from repro.evaluation.report import format_table
from repro.evaluation.sweeps import SweepComparison, run_sweep_comparison
from repro.baselines.fact import FACTModel
from repro.baselines.leaf import LEAFModel
from repro.simulation.sensor_sim import AoIEmulation, emulate_aoi
from repro.simulation.testbed import GroundTruthSweep, SimulatedTestbed

# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationFigure:
    """A Fig. 4(a)-(d) style model-vs-ground-truth validation panel.

    Attributes:
        figure_id: paper figure identifier (e.g. ``"4a"``).
        title: short description.
        comparison: the underlying sweep comparison.
        paper_mean_error_percent: the mean error the paper reports for this panel.
    """

    figure_id: str
    title: str
    comparison: SweepComparison
    paper_mean_error_percent: float

    @property
    def mean_error_percent(self) -> float:
        """Measured mean model-vs-ground-truth error of this reproduction."""
        return self.comparison.mean_error_percent

    def to_text(self) -> str:
        """Fixed-width rendering of the panel's series and headline."""
        unit = "ms" if self.comparison.metric == "latency" else "mJ"
        rows = [
            (
                f"{cpu_freq:.0f} GHz",
                f"{frame_side:.0f}",
                f"{truth:.1f}",
                f"{model:.1f}",
                f"{abs(model - truth) / truth * 100.0:.2f}%",
            )
            for cpu_freq, frame_side, truth, model in self.comparison.rows()
        ]
        table = format_table(
            rows,
            headers=("CPU", "frame size (px^2)", f"GT ({unit})", f"model ({unit})", "error"),
        )
        return (
            f"Figure {self.figure_id}: {self.title}\n"
            f"{table}\n"
            f"mean error: {self.mean_error_percent:.2f}% "
            f"(paper reports {self.paper_mean_error_percent:.2f}%)"
        )


@dataclass(frozen=True)
class AoIFigure:
    """A Fig. 4(e)/(f) style AoI panel.

    Attributes:
        figure_id: paper figure identifier.
        title: short description.
        analytical: analytical AoI timelines (one per sensor).
        emulated: emulated (ground truth) AoI timelines.
        workload: the emulation workload used.
    """

    figure_id: str
    title: str
    analytical: Tuple[AoITimeline, ...]
    emulated: Tuple[AoITimeline, ...]
    workload: WorkloadConfig

    def mean_error_percent(self) -> float:
        """Mean analytical-vs-emulated AoI error across sensors and updates."""
        model: List[float] = []
        truth: List[float] = []
        for analytical, emulated in zip(self.analytical, self.emulated):
            n = min(analytical.n_updates, emulated.n_updates)
            model.extend(analytical.aoi_ms[:n])
            truth.extend(emulated.aoi_ms[:n])
        return mean_absolute_percentage_error(model, truth)

    def to_text(self) -> str:
        """Fixed-width rendering of the AoI series."""
        rows = []
        for analytical, emulated in zip(self.analytical, self.emulated):
            n = min(analytical.n_updates, emulated.n_updates)
            for index in range(n):
                rows.append(
                    (
                        f"{analytical.generation_frequency_hz:.0f} Hz",
                        f"{analytical.times_ms[index]:.1f}",
                        f"{emulated.aoi_ms[index]:.2f}",
                        f"{analytical.aoi_ms[index]:.2f}",
                        f"{analytical.roi[index]:.3f}",
                    )
                )
        table = format_table(
            rows, headers=("sensor", "time (ms)", "GT AoI (ms)", "model AoI (ms)", "model RoI")
        )
        return (
            f"Figure {self.figure_id}: {self.title}\n"
            f"{table}\n"
            f"mean AoI error: {self.mean_error_percent():.2f}%"
        )


@dataclass(frozen=True)
class ComparisonFigure:
    """A Fig. 5(a)/(b) style comparison against FACT and LEAF.

    Attributes:
        figure_id: paper figure identifier.
        title: short description.
        metric: ``"latency"`` or ``"energy"``.
        frame_sides_px: swept frame sizes (x axis).
        accuracy_by_model: per-model normalized accuracy series keyed by model
            name (``"Proposed"``, ``"FACT"``, ``"LEAF"``), each one value per
            frame size (the ground truth itself is 100 %).
        paper_gain_vs_fact: accuracy gain over FACT the paper reports.
        paper_gain_vs_leaf: accuracy gain over LEAF the paper reports.
    """

    figure_id: str
    title: str
    metric: str
    frame_sides_px: Tuple[float, ...]
    accuracy_by_model: Dict[str, Tuple[float, ...]]
    paper_gain_vs_fact: float
    paper_gain_vs_leaf: float

    def mean_accuracy(self, model_name: str) -> float:
        """Mean normalized accuracy of one model over the sweep."""
        return float(np.mean(self.accuracy_by_model[model_name]))

    @property
    def gain_vs_fact(self) -> float:
        """Measured accuracy gain of the proposed model over FACT."""
        return self.mean_accuracy("Proposed") - self.mean_accuracy("FACT")

    @property
    def gain_vs_leaf(self) -> float:
        """Measured accuracy gain of the proposed model over LEAF."""
        return self.mean_accuracy("Proposed") - self.mean_accuracy("LEAF")

    def to_text(self) -> str:
        """Fixed-width rendering of the comparison series and headline gains."""
        rows = []
        for index, frame_side in enumerate(self.frame_sides_px):
            rows.append(
                (
                    f"{frame_side:.0f}",
                    "100.0",
                    f"{self.accuracy_by_model['Proposed'][index]:.1f}",
                    f"{self.accuracy_by_model['FACT'][index]:.1f}",
                    f"{self.accuracy_by_model['LEAF'][index]:.1f}",
                )
            )
        table = format_table(
            rows, headers=("frame size (px^2)", "GT", "Proposed", "FACT", "LEAF")
        )
        return (
            f"Figure {self.figure_id}: {self.title} (normalized accuracy, %)\n"
            f"{table}\n"
            f"gain vs FACT: {self.gain_vs_fact:.2f}% (paper {self.paper_gain_vs_fact:.2f}%), "
            f"gain vs LEAF: {self.gain_vs_leaf:.2f}% (paper {self.paper_gain_vs_leaf:.2f}%)"
        )


# ---------------------------------------------------------------------------
# Shared context so several figures can reuse the same simulated runs
# ---------------------------------------------------------------------------


@dataclass
class FigureContext:
    """Reusable pieces shared by several figure generators.

    Building the simulated ground truth is the expensive part of the
    evaluation; a context lets Fig. 4(a)/(c) share the local sweep,
    Fig. 4(b)/(d)/5(a)/5(b) share the remote sweep, and every figure share
    the calibrated coefficients.
    """

    quick: bool = False
    device: str = "XR2"
    edge: str = "EDGE-AGX"
    app: ApplicationConfig = field(default_factory=ApplicationConfig.object_detection_default)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 2024
    _coefficients: Optional[CoefficientSet] = None
    _testbed: Optional[SimulatedTestbed] = None
    _sweeps: Dict[ExecutionMode, GroundTruthSweep] = field(default_factory=dict)

    @property
    def sweep_config(self) -> SweepConfig:
        """The sweep definition (reduced when ``quick`` is set)."""
        return SweepConfig.quick() if self.quick else SweepConfig.paper_default()

    @property
    def coefficients(self) -> CoefficientSet:
        """Calibrated coefficients (smaller campaign when ``quick`` is set)."""
        if self._coefficients is None:
            n_samples = 2000 if self.quick else 6000
            self._coefficients = calibrated_coefficients(n_samples=n_samples, seed=self.seed)
        return self._coefficients

    @property
    def testbed(self) -> SimulatedTestbed:
        """The simulated testbed shared by every figure."""
        if self._testbed is None:
            self._testbed = SimulatedTestbed(device=self.device, edge=self.edge, seed=self.seed)
        return self._testbed

    def ground_truth(self, mode: ExecutionMode) -> GroundTruthSweep:
        """The ground-truth sweep for one inference placement (cached)."""
        if mode not in self._sweeps:
            self._sweeps[mode] = self.testbed.sweep(
                sweep=self.sweep_config, app=self.app, network=self.network, mode=mode
            )
        return self._sweeps[mode]

    def comparison(self, metric: str, mode: ExecutionMode) -> SweepComparison:
        """A model-vs-ground-truth comparison reusing the cached sweep."""
        return run_sweep_comparison(
            metric=metric,
            mode=mode,
            sweep=self.sweep_config,
            app=self.app,
            network=self.network,
            coefficients=self.coefficients,
            testbed=self.testbed,
            ground_truth=self.ground_truth(mode),
        )


# ---------------------------------------------------------------------------
# Fig. 4(a)-(d): latency / energy validation
# ---------------------------------------------------------------------------


def figure_4a(context: Optional[FigureContext] = None, quick: bool = False) -> ValidationFigure:
    """Fig. 4(a): end-to-end latency validation, local inference."""
    context = context if context is not None else FigureContext(quick=quick)
    return ValidationFigure(
        figure_id="4a",
        title="End-to-end latency, local inference (model vs ground truth)",
        comparison=context.comparison("latency", ExecutionMode.LOCAL),
        paper_mean_error_percent=2.74,
    )


def figure_4b(context: Optional[FigureContext] = None, quick: bool = False) -> ValidationFigure:
    """Fig. 4(b): end-to-end latency validation, remote inference (no mobility)."""
    context = context if context is not None else FigureContext(quick=quick)
    return ValidationFigure(
        figure_id="4b",
        title="End-to-end latency, remote inference (model vs ground truth)",
        comparison=context.comparison("latency", ExecutionMode.REMOTE),
        paper_mean_error_percent=3.23,
    )


def figure_4c(context: Optional[FigureContext] = None, quick: bool = False) -> ValidationFigure:
    """Fig. 4(c): end-to-end energy validation, local inference."""
    context = context if context is not None else FigureContext(quick=quick)
    return ValidationFigure(
        figure_id="4c",
        title="End-to-end energy, local inference (model vs ground truth)",
        comparison=context.comparison("energy", ExecutionMode.LOCAL),
        paper_mean_error_percent=3.52,
    )


def figure_4d(context: Optional[FigureContext] = None, quick: bool = False) -> ValidationFigure:
    """Fig. 4(d): end-to-end energy validation, remote inference."""
    context = context if context is not None else FigureContext(quick=quick)
    return ValidationFigure(
        figure_id="4d",
        title="End-to-end energy, remote inference (model vs ground truth)",
        comparison=context.comparison("energy", ExecutionMode.REMOTE),
        paper_mean_error_percent=5.38,
    )


# ---------------------------------------------------------------------------
# Fig. 4(e)/(f): AoI and RoI
# ---------------------------------------------------------------------------


def figure_4e(
    workload: Optional[WorkloadConfig] = None, seed: int = 7, quick: bool = False
) -> AoIFigure:
    """Fig. 4(e): AoI over time for sensors at 200 / 100 / 66.67 Hz."""
    del quick  # the AoI emulation is cheap; the full horizon always runs
    workload = workload if workload is not None else WorkloadConfig.paper_default()
    analytical = AoIModel(workload.buffer_service_rate_hz).timelines_for_workload(workload)
    emulation: AoIEmulation = emulate_aoi(workload, seed=seed)
    return AoIFigure(
        figure_id="4e",
        title="AoI vs time for different information generation frequencies",
        analytical=tuple(analytical),
        emulated=tuple(emulation.timelines),
        workload=workload,
    )


def figure_4f(
    workload: Optional[WorkloadConfig] = None, seed: int = 7, quick: bool = False
) -> AoIFigure:
    """Fig. 4(f): AoI staircase and RoI for the 100 Hz sensor over a 40 ms window."""
    del quick
    if workload is None:
        workload = WorkloadConfig(
            sensor_frequencies_hz=(100.0,),
            sensor_distances_m=(15.0,),
            horizon_ms=40.0,
        )
    analytical = AoIModel(workload.buffer_service_rate_hz).timelines_for_workload(workload)
    emulation = emulate_aoi(workload, seed=seed)
    return AoIFigure(
        figure_id="4f",
        title="AoI and RoI for a 100 Hz sensor against a 200 Hz requirement",
        analytical=tuple(analytical),
        emulated=tuple(emulation.timelines),
        workload=workload,
    )


# ---------------------------------------------------------------------------
# Fig. 5(a)/(b): comparison against FACT and LEAF
# ---------------------------------------------------------------------------


def _comparison_figure(
    figure_id: str,
    title: str,
    metric: str,
    paper_gain_vs_fact: float,
    paper_gain_vs_leaf: float,
    context: FigureContext,
) -> ComparisonFigure:
    sweep = context.sweep_config
    ground_truth = context.ground_truth(ExecutionMode.REMOTE)
    testbed = context.testbed

    # Calibrate the baselines on the central operating point of the sweep.
    central_cpu_freq = sweep.cpu_freqs_ghz[len(sweep.cpu_freqs_ghz) // 2]
    central_frame_side = sweep.frame_sides_px[len(sweep.frame_sides_px) // 2]
    reference_app = context.app.with_cpu_freq(central_cpu_freq).with_frame_side(
        central_frame_side
    )
    reference = testbed.reference_run(
        app=reference_app, network=context.network, mode=ExecutionMode.REMOTE
    )
    fact = FACTModel()
    fact.calibrate(reference, context.network)
    leaf = LEAFModel()
    leaf.calibrate(reference, context.network)

    proposed = XRPerformanceModel(
        device=testbed.device,
        edge=testbed.edge,
        app=context.app.with_mode(ExecutionMode.REMOTE),
        network=context.network,
        coefficients=context.coefficients,
    )

    # Fig. 5 plots accuracy against frame size only; the comparison therefore
    # runs at the sweep's central CPU frequency (the operating point the
    # baselines were calibrated at), so every model extrapolates along the
    # frame-size axis like the paper's figure does.
    cpu_freq = central_cpu_freq
    accuracy: Dict[str, List[float]] = {"Proposed": [], "FACT": [], "LEAF": []}
    for frame_side in sweep.frame_sides_px:
        app = context.app.with_mode(ExecutionMode.REMOTE)
        app = app.with_cpu_freq(cpu_freq).with_frame_side(frame_side)
        truth_run = ground_truth[(cpu_freq, frame_side)]
        truth = truth_run.mean_latency_ms if metric == "latency" else truth_run.mean_energy_mj
        report = proposed.analyze(app=app, network=context.network, include_aoi=False)
        proposed_value = (
            report.total_latency_ms if metric == "latency" else report.total_energy_mj
        )
        fact_value = (
            fact.latency_ms(app, context.network)
            if metric == "latency"
            else fact.energy_mj(app, context.network)
        )
        leaf_value = (
            leaf.latency_ms(app, context.network)
            if metric == "latency"
            else leaf.energy_mj(app, context.network)
        )
        accuracy["Proposed"].append(normalized_accuracy(proposed_value, truth))
        accuracy["FACT"].append(normalized_accuracy(fact_value, truth))
        accuracy["LEAF"].append(normalized_accuracy(leaf_value, truth))

    return ComparisonFigure(
        figure_id=figure_id,
        title=title,
        metric=metric,
        frame_sides_px=tuple(sweep.frame_sides_px),
        accuracy_by_model={name: tuple(values) for name, values in accuracy.items()},
        paper_gain_vs_fact=paper_gain_vs_fact,
        paper_gain_vs_leaf=paper_gain_vs_leaf,
    )


def figure_5a(context: Optional[FigureContext] = None, quick: bool = False) -> ComparisonFigure:
    """Fig. 5(a): end-to-end latency accuracy vs FACT and LEAF (remote inference)."""
    context = context if context is not None else FigureContext(quick=quick)
    return _comparison_figure(
        figure_id="5a",
        title="End-to-end latency comparison with FACT and LEAF",
        metric="latency",
        paper_gain_vs_fact=17.59,
        paper_gain_vs_leaf=7.49,
        context=context,
    )


def figure_5b(context: Optional[FigureContext] = None, quick: bool = False) -> ComparisonFigure:
    """Fig. 5(b): end-to-end energy accuracy vs FACT and LEAF (remote inference)."""
    context = context if context is not None else FigureContext(quick=quick)
    return _comparison_figure(
        figure_id="5b",
        title="End-to-end energy comparison with FACT and LEAF",
        metric="energy",
        paper_gain_vs_fact=15.30,
        paper_gain_vs_leaf=8.71,
        context=context,
    )
