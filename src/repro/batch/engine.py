"""Vectorized batch evaluation of the analytical XR performance models.

The scalar path (:class:`repro.core.framework.XRPerformanceModel`) evaluates
one operating point per call, constructing an application config, a latency
breakdown, an energy breakdown and an AoI result each time.  This engine
evaluates an entire grid of operating points with a handful of NumPy array
expressions instead: points are bucketed into *groups* that share their
structure (device, edge, execution mode, and every configuration field that
is not a numeric axis), and each group is evaluated by
:class:`_GroupEvaluator` in one vectorized pass over the closed-form
equations of Sections IV–VI.

Bit compatibility
-----------------
Every array expression reproduces the scalar model's floating-point
operation *order* (including the order segment latencies are summed into the
Eq. 1 / Eq. 19 totals), so a batch evaluation agrees with the scalar path to
the last bit — ``BatchResult.report_at(i)`` returns the exact report
``XRPerformanceModel.analyze`` would have produced for point ``i``.

The vectorized numeric axes are the frame side, the CPU/GPU clocks, the
encoder bitrate and the wireless throughput; every other field (sensors,
handoff, cooperation, CNN selection, buffer rate, frame rate, ...) is part
of the group structure and may differ freely *between* groups.

:class:`ConditionedPoints` adds the handoff probability as a second
per-point axis: it compiles a candidate set into its groups once and then
evaluates it under whole arrays of (throughput, ``P(HO)``) conditions, one
vectorized pass per group over (conditions x candidates).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.cnn.zoo import get_cnn
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.latency import COMPLEXITY_MODES, INFERENCE_RESULT_SIZE_MB
from repro.core.segments import (
    COMMON_SEGMENTS,
    COMPUTE_SEGMENTS,
    LOCAL_ONLY_SEGMENTS,
    RADIO_SEGMENTS,
    REMOTE_ONLY_SEGMENTS,
    Segment,
)
from repro.devices.device import XRDevice
from repro.devices.edge_server import EdgeServer
from repro.devices.resolve import resolve_device_spec, resolve_edge_spec
from repro.exceptions import ConfigurationError, ModelDomainError
from repro.measurement.truth import SEGMENT_POWER_FACTORS
from repro.network.handoff import HandoffModel
from repro.network.wifi import WifiLink
from repro.queueing.vectorized import mm1_sojourn_ms
from repro.sensors.sensor import ExternalSensor

from repro.batch.grid import NUMERIC_AXES, OperatingPoint, ParameterGrid
from repro.batch.result import BatchResult, GroupAoI, GroupResult

DeviceLike = Union[str, DeviceSpec, XRDevice]
EdgeLike = Union[str, EdgeServerSpec, EdgeServer, None]

_as_device_spec = resolve_device_spec
_as_edge_spec = resolve_edge_spec


def _canonical_app(app: ApplicationConfig) -> ApplicationConfig:
    """Strip the vectorized numeric fields so structurally-equal apps group."""
    return replace(
        app,
        frame_side_px=1.0,
        cpu_freq_ghz=1.0,
        gpu_freq_ghz=1.0,
        encoder=replace(app.encoder, bitrate_mbps=1.0),
    )


def _canonical_network(network: NetworkConfig) -> NetworkConfig:
    """Strip the vectorized throughput so structurally-equal networks group."""
    return replace(network, throughput_mbps=1.0)


class _GroupEvaluator:
    """Vectorized evaluator for one structure group.

    All point-independent quantities (sensor latencies, buffering delays,
    handoff, CNN complexities, propagation delays) are computed once here —
    with the *scalar* code paths, so they are trivially identical to the
    scalar model — and the numeric axes stream through array expressions in
    :meth:`evaluate`.
    """

    def __init__(
        self,
        device: DeviceSpec,
        edge: Optional[EdgeServerSpec],
        app: ApplicationConfig,
        network: NetworkConfig,
        coefficients: CoefficientSet,
        complexity_mode: str = "paper",
        include_aoi: bool = False,
    ) -> None:
        if complexity_mode not in COMPLEXITY_MODES:
            raise ConfigurationError(
                f"complexity_mode must be one of {COMPLEXITY_MODES}, "
                f"got {complexity_mode!r}"
            )
        self.device = device
        self.edge = edge
        self.app = app
        self.network = network
        self.coefficients = coefficients
        self.complexity_mode = complexity_mode
        self.include_aoi = include_aoi

        mode = app.inference.mode
        self.mode = mode
        self.local = mode is ExecutionMode.LOCAL
        self.uses_local_path = self.local or (
            mode is ExecutionMode.SPLIT and app.inference.omega_client > 0.0
        )
        self.uses_remote_path = not self.local
        if self.uses_remote_path and edge is None:
            raise ModelDomainError(
                "remote inference requires an edge server specification"
            )

        # -- point-independent scalars (computed via the scalar code paths) --
        self.frame_period_ms = app.frame_period_ms
        self.mem_bw = device.memory_bandwidth_gb_s
        self.scene_data_mb = app.virtual_scene_data_mb
        self.virtual_scene_side_px = app.virtual_scene_side_px
        self.external_ms = self._external_information_ms()
        self.buffering_ms = self._buffering_ms()
        # Eq. (17): the configured l_HO * P(HO), and l_HO alone for points
        # evaluated at a per-point P(HO) (see ``evaluate``).
        self.handoff_ms = 0.0
        self.single_handoff_ms = 0.0
        if self.uses_remote_path:
            handoff = HandoffModel(network.handoff)
            self.handoff_ms = handoff.mean_handoff_latency_ms(self.frame_period_ms)
            self.single_handoff_ms = handoff.single_handoff_latency_ms()
        self.edge_propagation_ms = network.propagation_delay_ms(network.edge_distance_m)
        # Result-transfer constants of Eq. (8).
        self.result_megabits = INFERENCE_RESULT_SIZE_MB * 8.0
        self.result_transfer_local_ms = INFERENCE_RESULT_SIZE_MB / self.mem_bw

        # Throughput handling: with path loss enabled the scalar WifiLink
        # derives r_w from the link budget and ignores the configured
        # throughput, so the vectorized axis collapses to that scalar.
        self.link_budget_throughput: Optional[float] = None
        if network.enable_path_loss:
            self.link_budget_throughput = WifiLink(config=network).throughput_mbps()

        # Local-inference constants.
        self.omega_client = app.inference.omega_client
        if self.uses_local_path and self.omega_client > 0.0:
            local_cnn = get_cnn(app.inference.local_cnn)
            self.local_complexity = coefficients.cnn_complexity.complexity(local_cnn)
            self.converted_side_px = (
                app.converted_frame_side_px
                if app.converted_frame_side_px is not None
                else local_cnn.input_side_px
            )
            self.converted_size_mb = app.converted_frame_size_mb(self.converted_side_px)
        # Remote-inference constants.
        self.edge_shares = app.inference.edge_shares
        if self.uses_remote_path and self.edge_shares:
            remote_cnn = get_cnn(app.inference.remote_cnn)
            self.remote_complexity = coefficients.cnn_complexity.complexity(remote_cnn)
        if self.uses_remote_path:
            # edge is non-None here: the constructor raised above otherwise.
            self.edge_scale = edge.compute_scale_vs_client
            self.edge_mem_bw = edge.memory_bandwidth_gb_s
        # Cooperation constants.
        self.cooperation_enabled = app.cooperation.enabled
        if self.cooperation_enabled:
            self.coop_megabits = app.cooperation.data_size_mb * 8.0
            self.coop_propagation_ms = network.propagation_delay_ms(
                app.cooperation.distance_m
            )

        # Included-segment set, exactly as the scalar end_to_end assembles it.
        included = set(COMMON_SEGMENTS)
        if self.uses_local_path:
            included |= LOCAL_ONLY_SEGMENTS
        if self.uses_remote_path:
            included |= REMOTE_ONLY_SEGMENTS
        if app.cooperation.enabled and app.cooperation.include_in_totals:
            included.add(Segment.COOPERATION)
        self._included_unrestricted = included

        # Energy constants.
        self.segment_factors = dict(SEGMENT_POWER_FACTORS)
        self.power_floor = max(device.base_power_w, 1e-3)
        self.compute_floor = 0.5  # ComputeResourceModel default clamp

        # AoI constants.
        self.aoi_active = bool(include_aoi and network.sensors)
        if self.aoi_active:
            self.updates_per_frame = max(app.sensor_updates_per_frame, 1)
            total_rate_hz = network.total_sensor_arrival_rate_hz
            if total_rate_hz > 0.0:
                self.aoi_buffer_time_ms = float(
                    mm1_sojourn_ms(total_rate_hz / 1e3, app.buffer_service_rate_hz / 1e3)
                )
            else:
                self.aoi_buffer_time_ms = 0.0

    # -- point-independent helpers (scalar) -----------------------------------

    def _external_information_ms(self) -> float:
        """Eq. (5)-(6), identical to ``XRLatencyModel.external_information_ms``."""
        network = self.network
        app = self.app
        if not network.sensors or app.sensor_updates_per_frame == 0:
            return 0.0
        totals = []
        for config in network.sensors:
            sensor = ExternalSensor(
                config=config,
                propagation_speed_m_per_s=network.propagation_speed_m_per_s,
            )
            totals.append(sensor.total_latency_ms(app.sensor_updates_per_frame))
        return max(totals)

    def _buffering_ms(self) -> float:
        """Eq. (7), identical to ``InputBuffer.analytical_delays(...).total_ms``."""
        app = self.app
        network = self.network
        service_per_ms = app.buffer_service_rate_hz / 1e3
        frame_delay = float(mm1_sojourn_ms(app.frame_rate_fps / 1e3, service_per_ms))
        volumetric_delay = float(mm1_sojourn_ms(app.frame_rate_fps / 1e3, service_per_ms))
        sensor_rate_hz = network.total_sensor_arrival_rate_hz
        if sensor_rate_hz > 0.0:
            external_delay = float(mm1_sojourn_ms(sensor_rate_hz / 1e3, service_per_ms))
        else:
            external_delay = 0.0
        return frame_delay + volumetric_delay + external_delay

    # -- vectorized evaluation --------------------------------------------------

    def _client_compute(self, fc: np.ndarray, fg: np.ndarray) -> np.ndarray:
        """Eq. (3) blended quadratic, clamped at the resource-model floor."""
        share = self.app.cpu_share
        blend = self.coefficients.resource
        if np.any(fc <= 0.0) or np.any(fg <= 0.0):
            raise ModelDomainError("clock frequencies must be > 0 at every point")
        a0, a1, a2 = blend.cpu
        b0, b1, b2 = blend.gpu
        value = share * (a0 + a1 * fc + a2 * fc**2) + (1.0 - share) * (
            b0 + b1 * fg + b2 * fg**2
        )
        return np.where(value < self.compute_floor, self.compute_floor, value)

    def _mean_power(self, fc: np.ndarray, fg: np.ndarray) -> Tuple[np.ndarray, int]:
        """Eq. (21) blended quadratic, clamped at the device base power.

        Returns the clamped values and the number of clamped points, so the
        scalar :attr:`PowerModel.clamp_count` diagnostic can be maintained by
        callers that own a power model.
        """
        share = self.app.cpu_share
        blend = self.coefficients.power
        a0, a1, a2 = blend.cpu
        b0, b1, b2 = blend.gpu
        value = share * (a0 + a1 * fc + a2 * fc**2) + (1.0 - share) * (
            b0 + b1 * fg + b2 * fg**2
        )
        clamped = value < self.power_floor
        return np.where(clamped, self.power_floor, value), int(np.count_nonzero(clamped))

    def _encoding_numerator(self, side: np.ndarray, bitrate: np.ndarray) -> np.ndarray:
        """Eq. (10) workload numerator, in the scalar accumulation order."""
        enc = self.coefficients.encoding
        app = self.app
        value = (
            enc.intercept
            + enc.i_frame_interval * app.encoder.i_frame_interval
            + enc.b_frame_count * app.encoder.b_frame_count
            + enc.bitrate_mbps * bitrate
            + enc.frame_side_px * side
            + enc.frame_rate_fps * app.frame_rate_fps
            + enc.quantization * app.encoder.quantization
        )
        if np.any(value <= 0.0):
            raise ModelDomainError(
                "encoding regression evaluated to a non-positive workload for at "
                "least one grid point; the encoder configuration is outside the "
                "model domain"
            )
        return value

    def evaluate(
        self,
        frame_side_px: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        gpu_freq_ghz: np.ndarray,
        bitrate_mbps: np.ndarray,
        throughput_mbps: np.ndarray,
        positions: np.ndarray,
        handoff_probability: Optional[np.ndarray] = None,
    ) -> GroupResult:
        """Evaluate the group over aligned per-point value arrays.

        ``handoff_probability`` is None for the group's configured handoff;
        an array enables the handoff at each point's own ``P(HO)``, so the
        Eq. (17) term is ``l_HO * p`` per point.
        """
        side = np.asarray(frame_side_px, dtype=float)
        fc = np.asarray(cpu_freq_ghz, dtype=float)
        fg = np.asarray(gpu_freq_ghz, dtype=float)
        bitrate = np.asarray(bitrate_mbps, dtype=float)
        n = side.shape[0]
        if self.link_budget_throughput is not None:
            thr = np.full(n, self.link_budget_throughput)
        else:
            thr = np.asarray(throughput_mbps, dtype=float)
        if np.any(side <= 0.0):
            raise ConfigurationError("frame sides must be > 0 at every point")
        if np.any(thr <= 0.0):
            raise ConfigurationError("throughputs must be > 0 at every point")

        c = self._client_compute(fc, fg)
        raw_mb = ((side * side) * 1.5) / 1e6  # units.yuv_frame_size_mb
        raw_mem = raw_mb / self.mem_bw

        segments: Dict[Segment, np.ndarray] = {}
        # Eq. (2)
        segments[Segment.FRAME_GENERATION] = (
            self.frame_period_ms + side / c + raw_mem
        )
        # Eq. (4)
        segments[Segment.VOLUMETRIC] = (
            self.virtual_scene_side_px / c + self.scene_data_mb / self.mem_bw
        )
        # Eqs. (5)-(6)
        segments[Segment.EXTERNAL] = np.full(n, self.external_ms)
        # Eq. (8): rendering = raster + memory + buffering + result transfer.
        if self.local:
            result_transfer = np.full(n, self.result_transfer_local_ms)
        else:
            result_transfer = (
                self.result_megabits / thr
            ) * 1e3 + self.edge_propagation_ms
        segments[Segment.RENDERING] = (
            side / c + raw_mem + self.buffering_ms + result_transfer
        )

        if self.uses_local_path:
            # Eq. (9)
            segments[Segment.CONVERSION] = side / c + raw_mem
            # Eq. (11)
            if self.omega_client == 0.0:
                segments[Segment.LOCAL_INFERENCE] = np.zeros(n)
            else:
                if self.complexity_mode == "paper":
                    inference_compute = self.converted_side_px / (
                        c * self.local_complexity
                    )
                else:
                    inference_compute = (
                        self.converted_side_px * self.local_complexity / c
                    )
                segments[Segment.LOCAL_INFERENCE] = self.omega_client * (
                    inference_compute + self.converted_size_mb / self.mem_bw
                )

        edge_compute: Optional[np.ndarray] = None
        if self.uses_remote_path:
            numerator = self._encoding_numerator(side, bitrate)
            # Eq. (10)
            segments[Segment.ENCODING] = numerator / c + raw_mem
            edge_compute = self.edge_scale * c
            # Eqs. (13)-(15)
            if not self.edge_shares:
                segments[Segment.REMOTE_INFERENCE] = np.zeros(n)
            else:
                # Eq. (14): decode latency derived from the encoding workload.
                encoding_compute = numerator / c
                decode = (
                    encoding_compute
                    * self.coefficients.decode_discount
                    * c
                    / edge_compute
                )
                encoded_mb = raw_mb / self.app.encoder.compression_ratio
                edge_mem = encoded_mb / self.edge_mem_bw
                remote: Optional[np.ndarray] = None
                for share in self.edge_shares:
                    if share == 0.0:
                        per_share = np.zeros(n)
                    else:
                        if self.complexity_mode == "paper":
                            inference_compute = side / (
                                edge_compute * self.remote_complexity
                            )
                        else:
                            inference_compute = (
                                side * self.remote_complexity / edge_compute
                            )
                        per_share = share * (inference_compute + edge_mem + decode)
                    remote = (
                        per_share if remote is None else np.maximum(remote, per_share)
                    )
                segments[Segment.REMOTE_INFERENCE] = remote
            # Eq. (16)
            encoded_mb = raw_mb / self.app.encoder.compression_ratio
            segments[Segment.TRANSMISSION] = (
                (encoded_mb * 8.0) / thr
            ) * 1e3 + self.edge_propagation_ms
            # Eq. (17)
            if handoff_probability is None:
                segments[Segment.HANDOFF] = np.full(n, self.handoff_ms)
            else:
                segments[Segment.HANDOFF] = self.single_handoff_ms * np.asarray(
                    handoff_probability, dtype=float
                )

        if self.cooperation_enabled:
            # Eq. (18)
            segments[Segment.COOPERATION] = (
                self.coop_megabits / thr
            ) * 1e3 + self.coop_propagation_ms

        included = frozenset(self._included_unrestricted & set(segments))

        # Eq. (1) total, in dict insertion order like LatencyBreakdown.total_ms.
        total_latency = np.zeros(n)
        for segment, values in segments.items():
            if segment in included:
                total_latency = total_latency + values

        # -- energy (Eqs. 19-21) --------------------------------------------------
        mean_power, clamped_points = self._mean_power(fc, fg)
        energy: Dict[Segment, np.ndarray] = {}
        for segment, latency in segments.items():
            if segment is Segment.HANDOFF:
                power: Union[float, np.ndarray] = self.network.handoff.power_w
            elif segment in (Segment.TRANSMISSION, Segment.COOPERATION):
                power = self.network.radio_tx_power_w
            else:
                power = self.segment_factors[segment.value] * mean_power
            energy[segment] = power * latency

        compute_energy = np.zeros(n)
        for segment, values in energy.items():
            if segment in included and segment in COMPUTE_SEGMENTS:
                compute_energy = compute_energy + values
        thermal = self.device.thermal_fraction * compute_energy
        base = self.device.base_power_w * total_latency

        # Eq. (19) total, matching EnergyBreakdown.total_mj's summation order.
        segment_energy_total = np.zeros(n)
        for segment, values in energy.items():
            if segment in included:
                segment_energy_total = segment_energy_total + values
        total_energy = segment_energy_total + thermal + base

        aoi = self._evaluate_aoi(total_latency) if self.aoi_active else None

        # The scalar path clamps once per mean-power evaluation: one per
        # non-radio segment plus one for the report's mean_power_w field.
        power_evals_per_point = (
            sum(1 for segment in segments if segment not in RADIO_SEGMENTS) + 1
        )

        return GroupResult(
            device_name=self.device.name,
            edge_name=self.edge.name if self.edge is not None else None,
            mode=self.mode,
            included_segments=included,
            latency_segments_ms=segments,
            energy_segments_mj=energy,
            total_latency_ms=total_latency,
            thermal_mj=thermal,
            base_mj=base,
            total_energy_mj=total_energy,
            client_compute=c,
            edge_compute=edge_compute,
            mean_power_w=mean_power,
            positions=np.asarray(positions, dtype=np.intp),
            aoi=aoi,
            power_clamp_count=clamped_points * power_evals_per_point,
        )

    # -- AoI (Eqs. 22-26) --------------------------------------------------------

    def _evaluate_aoi(self, total_latency_ms: np.ndarray) -> GroupAoI:
        network = self.network
        updates = self.updates_per_frame
        buffer_time = self.aoi_buffer_time_ms
        required_period = total_latency_ms / updates
        required_frequency = 1e3 / required_period

        average_aoi: Dict[str, np.ndarray] = {}
        roi: Dict[str, np.ndarray] = {}
        processed: Dict[str, np.ndarray] = {}
        speed = network.propagation_speed_m_per_s
        for sensor in network.sensors:
            generation_period = sensor.generation_period_ms
            propagation = (sensor.distance_m / speed) * 1e3
            overhead = propagation + buffer_time
            slow = generation_period >= required_period
            accumulator: Optional[np.ndarray] = None
            for index in range(1, updates + 1):
                request_time = (index - 1) * required_period
                # Eq. (23): a sensor slower than the requirement accumulates
                # AoI linearly; a faster sensor always has a fresh sample.
                aoi_slow = index * generation_period + overhead - request_time
                aoi_fast = request_time % generation_period + overhead
                aoi_n = np.where(slow, aoi_slow, aoi_fast)
                accumulator = aoi_n if accumulator is None else accumulator + aoi_n
            mean_aoi = accumulator / updates
            average_aoi[sensor.name] = mean_aoi
            processed_hz = np.where(mean_aoi > 0.0, 1e3 / mean_aoi, np.inf)
            processed[sensor.name] = processed_hz
            roi[sensor.name] = processed_hz / required_frequency
        return GroupAoI(
            sensor_names=tuple(sensor.name for sensor in network.sensors),
            average_aoi_ms=average_aoi,
            roi=roi,
            processed_frequency_hz=processed,
            required_frequency_hz=required_frequency,
            buffer_time_ms=buffer_time,
        )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def evaluate_grid(
    grid: ParameterGrid,
    coefficients: Optional[CoefficientSet] = None,
    complexity_mode: str = "paper",
    include_aoi: bool = False,
) -> BatchResult:
    """Evaluate every operating point of a :class:`ParameterGrid`.

    The grid is consumed without materialising per-point configuration
    objects: each (device, mode) combination becomes one vectorized group.

    Args:
        grid: the cartesian grid to evaluate.
        coefficients: regression coefficients (the paper's set by default).
        complexity_mode: CNN-complexity placement mode (see DESIGN.md).
        include_aoi: evaluate the AoI model per point (off by default, like
            the scalar ``sweep``).
    """
    with telemetry.get().span(
        "batch.evaluate_grid",
        points=grid.n_points,
        groups=len(grid.devices) * len(grid.modes),
    ):
        return _evaluate_grid(grid, coefficients, complexity_mode, include_aoi)


def _evaluate_grid(
    grid: ParameterGrid,
    coefficients: Optional[CoefficientSet],
    complexity_mode: str,
    include_aoi: bool,
) -> BatchResult:
    coefficients = coefficients if coefficients is not None else CoefficientSet.paper()
    numeric = grid.numeric_arrays()
    per_group = grid.points_per_group
    edge = _as_edge_spec(grid.edge)
    canonical_network = grid.network

    groups: List[GroupResult] = []
    offset = 0
    for device_like, mode in grid.group_keys():
        device = _as_device_spec(device_like)
        app = grid.group_app(mode)
        evaluator = _GroupEvaluator(
            device=device,
            edge=edge,
            app=app,
            network=canonical_network,
            coefficients=coefficients,
            complexity_mode=complexity_mode,
            include_aoi=include_aoi,
        )
        positions = np.arange(offset, offset + per_group, dtype=np.intp)
        groups.append(
            evaluator.evaluate(
                frame_side_px=numeric["frame_side_px"],
                cpu_freq_ghz=numeric["cpu_freq_ghz"],
                gpu_freq_ghz=numeric["gpu_freq_ghz"],
                bitrate_mbps=numeric["bitrate_mbps"],
                throughput_mbps=numeric["throughput_mbps"],
                positions=positions,
            )
        )
        offset += per_group

    n_groups = len(grid.devices) * len(grid.modes)
    coords = {
        name: np.tile(numeric[name], n_groups) for name in NUMERIC_AXES
    }
    return BatchResult(groups=groups, n_points=grid.n_points, coords=coords)


def evaluate_points(
    points: Sequence[OperatingPoint],
    coefficients: Optional[CoefficientSet] = None,
    complexity_mode: str = "paper",
    include_aoi: bool = True,
) -> BatchResult:
    """Evaluate an explicit (possibly heterogeneous) list of operating points.

    Points are bucketed by structure — device, edge, and every configuration
    field that is not a vectorized numeric axis — and each bucket is
    evaluated in one vectorized pass, so ``N`` points over ``G`` distinct
    structures cost ``G`` group evaluations rather than ``N`` scalar ones.
    Result arrays are aligned with the input order.

    Args:
        points: the operating points to evaluate.
        coefficients: regression coefficients shared by every point.
        complexity_mode: CNN-complexity placement mode.
        include_aoi: evaluate the AoI model (on by default, matching the
            scalar ``analyze``).
    """
    if not points:
        raise ConfigurationError("evaluate_points needs at least one operating point")
    with telemetry.get().span("batch.evaluate_points", points=len(points)) as sp:
        result = _evaluate_points(points, coefficients, complexity_mode, include_aoi)
        sp.annotate(groups=len(result.groups))
        return result


def _structure_key(point: OperatingPoint) -> tuple:
    """Group key of a point: everything that is not a vectorized axis.

    Resolved device and edge specs first (the evaluator is built from
    them), then the app and network with their numeric axes stripped.
    """
    return (
        _as_device_spec(point.device),
        _as_edge_spec(point.edge),
        _canonical_app(point.app),
        _canonical_network(point.network),
    )


#: One structure group: its evaluator, the global positions of its points
#: and their numeric-axis values (arrays aligned with the positions).
_Bucket = Tuple[_GroupEvaluator, np.ndarray, Dict[str, np.ndarray]]


def _bucket_points(
    points: Sequence[OperatingPoint],
    coefficients: CoefficientSet,
    complexity_mode: str,
    include_aoi: bool,
) -> List[_Bucket]:
    """Bucket ``points`` by :func:`_structure_key`, in first-seen order."""
    buckets: Dict[tuple, Tuple[_GroupEvaluator, List[int], Dict[str, List[float]]]] = {}
    for index, point in enumerate(points):
        key = _structure_key(point)
        bucket = buckets.get(key)
        if bucket is None:
            evaluator = _GroupEvaluator(
                device=key[0],
                edge=key[1],
                app=point.app,
                network=point.network,
                coefficients=coefficients,
                complexity_mode=complexity_mode,
                include_aoi=include_aoi,
            )
            bucket = (evaluator, [], {name: [] for name in NUMERIC_AXES})
            buckets[key] = bucket
        _, indices, values = bucket
        indices.append(index)
        values["cpu_freq_ghz"].append(point.app.cpu_freq_ghz)
        values["frame_side_px"].append(point.app.frame_side_px)
        values["gpu_freq_ghz"].append(point.app.gpu_freq_ghz)
        values["bitrate_mbps"].append(point.app.encoder.bitrate_mbps)
        values["throughput_mbps"].append(point.network.throughput_mbps)
    return [
        (
            evaluator,
            np.asarray(indices, dtype=np.intp),
            {name: np.asarray(column, dtype=float) for name, column in values.items()},
        )
        for evaluator, indices, values in buckets.values()
    ]


def _evaluate_points(
    points: Sequence[OperatingPoint],
    coefficients: Optional[CoefficientSet],
    complexity_mode: str,
    include_aoi: bool,
) -> BatchResult:
    coefficients = coefficients if coefficients is not None else CoefficientSet.paper()
    groups = [
        evaluator.evaluate(
            frame_side_px=values["frame_side_px"],
            cpu_freq_ghz=values["cpu_freq_ghz"],
            gpu_freq_ghz=values["gpu_freq_ghz"],
            bitrate_mbps=values["bitrate_mbps"],
            throughput_mbps=values["throughput_mbps"],
            positions=positions,
        )
        for evaluator, positions, values in _bucket_points(
            points, coefficients, complexity_mode, include_aoi
        )
    ]
    return BatchResult(groups=groups, n_points=len(points))


class ConditionedPoints:
    """A point set compiled once and evaluated under arrays of conditions.

    In the closed forms an operating point sees the epoch's channel only
    through the throughput ``r_w`` (Eqs. 8, 16, 18) and the handoff
    probability ``P(HO)`` (Eq. 17).  The set buckets its points once, by
    the same structure key :func:`evaluate_points` groups by, and
    :meth:`evaluate` then makes one vectorized pass per group over
    (conditions x points).

    Conditioning keeps every field of a point except the throughput, which
    becomes the condition's, and the handoff, which is enabled at the
    condition's probability.  Element ``(e, i)`` of a result therefore
    equals, bit for bit, :func:`evaluate_points` on point ``i`` with
    ``network.throughput_mbps = throughput[e]`` and
    ``network.handoff = replace(handoff, enabled=True,
    handoff_probability=handoff[e])``.

    Args:
        points: the operating points to compile.
        coefficients: regression coefficients shared by every point.
        complexity_mode: CNN-complexity placement mode.
        include_aoi: evaluate the AoI model, which enables the min-RoI
            result (None when any group has no sensors).
    """

    def __init__(
        self,
        points: Sequence[OperatingPoint],
        coefficients: Optional[CoefficientSet] = None,
        complexity_mode: str = "paper",
        include_aoi: bool = True,
    ) -> None:
        if not points:
            raise ConfigurationError("ConditionedPoints needs at least one operating point")
        coefficients = coefficients if coefficients is not None else CoefficientSet.paper()
        self.n_points = len(points)
        self._groups = _bucket_points(points, coefficients, complexity_mode, include_aoi)
        self._has_aoi = all(evaluator.aoi_active for evaluator, _, _ in self._groups)

    def evaluate(
        self, throughput_mbps: Sequence[float], handoff_probability: Sequence[float]
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Evaluate every point under each of ``E`` condition pairs.

        Args:
            throughput_mbps: per-condition throughput, shape ``(E,)``.
            handoff_probability: per-condition ``P(HO)``, shape ``(E,)``.

        Returns:
            ``(latency_ms, energy_mj, min_roi)`` arrays of shape
            ``(E, n_points)``; ``min_roi`` (the minimum RoI across sensors)
            is None when AoI is off or some group has no sensors.
        """
        throughput = np.asarray(throughput_mbps, dtype=float)
        handoff = np.asarray(handoff_probability, dtype=float)
        if throughput.ndim != 1 or throughput.shape != handoff.shape or not throughput.size:
            raise ConfigurationError(
                "throughput and handoff probability must be aligned non-empty 1-D arrays"
            )
        if not np.all(throughput > 0.0):
            raise ConfigurationError("throughputs must be > 0 at every condition")
        if not np.all((handoff >= 0.0) & (handoff <= 1.0)):
            raise ConfigurationError("handoff probabilities must be in [0, 1]")
        n_conditions = throughput.shape[0]
        n = self.n_points
        rows = np.arange(n_conditions, dtype=np.intp)[:, None] * n
        latency = np.empty(n_conditions * n)
        energy = np.empty(n_conditions * n)
        min_roi = np.empty(n_conditions * n) if self._has_aoi else None
        with telemetry.get().span(
            "batch.evaluate_conditions",
            points=n_conditions * n,
            groups=len(self._groups),
            conditions=n_conditions,
        ):
            for evaluator, positions, values in self._groups:
                k = positions.shape[0]
                flat = (rows + positions).ravel()
                if n_conditions > 1:
                    values = {
                        name: np.tile(column, n_conditions) for name, column in values.items()
                    }
                group = evaluator.evaluate(
                    frame_side_px=values["frame_side_px"],
                    cpu_freq_ghz=values["cpu_freq_ghz"],
                    gpu_freq_ghz=values["gpu_freq_ghz"],
                    bitrate_mbps=values["bitrate_mbps"],
                    throughput_mbps=np.repeat(throughput, k),
                    positions=flat,
                    handoff_probability=np.repeat(handoff, k),
                )
                latency[flat] = group.total_latency_ms
                energy[flat] = group.total_energy_mj
                if min_roi is not None:
                    aoi = group.aoi
                    min_roi[flat] = np.minimum.reduce(
                        [aoi.roi[name] for name in aoi.sensor_names]
                    )
        shape = (n_conditions, n)
        return (
            latency.reshape(shape),
            energy.reshape(shape),
            min_roi.reshape(shape) if min_roi is not None else None,
        )
