"""The :class:`XRPerformanceModel` facade — the framework's main entry point.

One object bundles the device/edge specifications, the regression
coefficients and the three analytical models (latency, energy, AoI), and
exposes the per-frame analysis the paper's evaluation performs::

    from repro import XRPerformanceModel
    model = XRPerformanceModel(device="XR1", edge="EDGE-AGX")
    report = model.analyze()
    print(report.summary())

Devices and edge servers can be given as catalog names (Table I) or as
specification dataclasses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.workload import WorkloadConfig
from repro.core.aoi import AoIModel, AoIResult, AoITimeline
from repro.core.coefficients import CoefficientSet
from repro.core.energy import XREnergyModel
from repro.core.latency import XRLatencyModel
from repro.core.offloading import OffloadingDecision, OffloadingPlanner
from repro.core.power import PowerModel
from repro.core.results import EnergyBreakdown, LatencyBreakdown, PerformanceReport
from repro.devices.resolve import DeviceLike, EdgeLike, resolve_device_spec, resolve_edge_spec
from repro.exceptions import ConfigurationError


class XRPerformanceModel:
    """Performance analysis of one XR application on one device/edge pair.

    Args:
        device: XR device (catalog name or spec).
        edge: edge server (catalog name, spec, or None for a purely local
            analysis).
        app: application configuration; defaults to the paper's
            object-detection pipeline.
        network: network configuration; defaults to the paper's testbed
            topology (Wi-Fi to one edge server, three external sensors).
        coefficients: regression coefficient set; defaults to the paper's
            published constants.
        complexity_mode: CNN-complexity placement mode (see docs/ARCHITECTURE.md,
            "Modelling decisions").
    """

    def __init__(
        self,
        device: DeviceLike = "XR1",
        edge: EdgeLike = "EDGE-AGX",
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
    ) -> None:
        self.device = resolve_device_spec(device)
        self.edge = resolve_edge_spec(edge)
        self.app = app if app is not None else ApplicationConfig.object_detection_default()
        self.network = network if network is not None else NetworkConfig()
        self.coefficients = coefficients if coefficients is not None else CoefficientSet.paper()

        self.latency_model = XRLatencyModel(
            device=self.device,
            edge=self.edge,
            coefficients=self.coefficients,
            complexity_mode=complexity_mode,
        )
        self.power_model = PowerModel(coefficients=self.coefficients, device=self.device)
        self.energy_model = XREnergyModel(
            latency_model=self.latency_model, power_model=self.power_model
        )

    # -- configuration helpers -------------------------------------------------------

    def _app_or_default(self, app: Optional[ApplicationConfig]) -> ApplicationConfig:
        return app if app is not None else self.app

    def _network_or_default(self, network: Optional[NetworkConfig]) -> NetworkConfig:
        return network if network is not None else self.network

    # -- per-frame analyses ------------------------------------------------------------

    def analyze_latency(
        self,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
    ) -> LatencyBreakdown:
        """Per-segment and end-to-end latency of one frame (Eq. 1)."""
        return self.latency_model.end_to_end(
            self._app_or_default(app), self._network_or_default(network)
        )

    def analyze_energy(
        self,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
    ) -> EnergyBreakdown:
        """Per-segment and end-to-end energy of one frame (Eq. 19)."""
        return self.energy_model.end_to_end(
            self._app_or_default(app), self._network_or_default(network)
        )

    def analyze_aoi(
        self,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
        frame_latency_ms: Optional[float] = None,
    ) -> AoIResult:
        """Per-sensor AoI/RoI for one frame (Eqs. 22-26).

        The required information frequency is derived from the frame's total
        latency (``f_req = N / L_tot``); pass ``frame_latency_ms`` to reuse a
        latency value you already computed.
        """
        app = self._app_or_default(app)
        network = self._network_or_default(network)
        if not network.sensors:
            raise ConfigurationError("AoI analysis requires at least one sensor")
        if frame_latency_ms is None:
            frame_latency_ms = self.analyze_latency(app, network).total_ms
        model = AoIModel(app.buffer_service_rate_hz)
        return model.analyze_frame(
            network=network,
            updates_per_frame=max(app.sensor_updates_per_frame, 1),
            frame_latency_ms=frame_latency_ms,
        )

    def aoi_timelines(self, workload: Optional[WorkloadConfig] = None) -> List[AoITimeline]:
        """AoI timelines of an emulation workload (Fig. 4(e)/(f))."""
        workload = workload if workload is not None else WorkloadConfig.paper_default()
        model = AoIModel(workload.buffer_service_rate_hz)
        return model.timelines_for_workload(workload)

    def analyze(
        self,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
        include_aoi: bool = True,
    ) -> PerformanceReport:
        """Full per-frame performance report (latency + energy + AoI)."""
        app = self._app_or_default(app)
        network = self._network_or_default(network)
        latency = self.analyze_latency(app, network)
        energy = self.energy_model.from_latency_breakdown(latency, app, network)
        aoi = None
        if include_aoi and network.sensors:
            aoi = self.analyze_aoi(app, network, frame_latency_ms=latency.total_ms)
        return PerformanceReport(
            latency=latency,
            energy=energy,
            aoi=aoi,
            device_name=self.device.name,
            edge_name=self.edge.name if self.edge is not None else None,
        )

    # -- sweeps -------------------------------------------------------------------------

    def sweep_batch(
        self,
        frame_sides_px: Sequence[float],
        cpu_freqs_ghz: Sequence[float],
        mode: Optional[ExecutionMode] = None,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
        include_aoi: bool = False,
    ):
        """Evaluate a (CPU frequency x frame size) sweep as one vectorized batch.

        Returns a :class:`repro.batch.BatchResult` whose point order matches
        the nested ``for cpu_freq: for frame_side`` loop of :meth:`sweep`;
        prefer this over :meth:`sweep` when only the metric arrays are needed.
        """
        from repro.batch import ParameterGrid, evaluate_grid

        app = self._app_or_default(app)
        network = self._network_or_default(network)
        if mode is not None:
            app = app.with_mode(mode)
        grid = ParameterGrid(
            frame_sides_px=tuple(frame_sides_px),
            cpu_freqs_ghz=tuple(cpu_freqs_ghz),
            devices=(self.device,),
            edge=self.edge,
            app=app,
            network=network,
        )
        return evaluate_grid(
            grid,
            coefficients=self.coefficients,
            complexity_mode=self.latency_model.complexity_mode,
            include_aoi=include_aoi,
        )

    def sweep(
        self,
        frame_sides_px: Sequence[float],
        cpu_freqs_ghz: Sequence[float],
        mode: Optional[ExecutionMode] = None,
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
    ) -> Dict[Tuple[float, float], PerformanceReport]:
        """Evaluate a (CPU frequency x frame size) sweep.

        Returns a mapping from ``(cpu_freq_ghz, frame_side_px)`` to the
        corresponding performance report — the raw material of the Fig. 4 and
        Fig. 5 sweeps.  The grid is evaluated by the vectorized batch engine
        (:mod:`repro.batch`); the reports are bit-identical to per-point
        :meth:`analyze` calls.
        """
        results: Dict[Tuple[float, float], PerformanceReport] = {}
        if len(frame_sides_px) == 0 or len(cpu_freqs_ghz) == 0:
            # An empty axis is an empty sweep, not a configuration error.
            return results
        batch = self.sweep_batch(
            frame_sides_px, cpu_freqs_ghz, mode=mode, app=app, network=network
        )
        index = 0
        for cpu_freq in cpu_freqs_ghz:
            for frame_side in frame_sides_px:
                results[(cpu_freq, frame_side)] = batch.report_at(index)
                index += 1
        return results

    # -- offloading --------------------------------------------------------------------

    def offloading_planner(
        self, objective: str = "latency", latency_weight: float = 0.5
    ) -> OffloadingPlanner:
        """An :class:`OffloadingPlanner` bound to this model's latency/energy models."""
        return OffloadingPlanner(
            latency_model=self.latency_model,
            energy_model=self.energy_model,
            objective=objective,
            latency_weight=latency_weight,
        )

    def best_placement(
        self,
        objective: str = "latency",
        app: Optional[ApplicationConfig] = None,
        network: Optional[NetworkConfig] = None,
        n_edge_servers: int = 1,
    ) -> OffloadingDecision:
        """The best inference placement under the given objective."""
        planner = self.offloading_planner(objective=objective)
        return planner.best(
            self._app_or_default(app),
            self._network_or_default(network),
            n_edge_servers=n_edge_servers,
        )
