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
The equations are not written here.  Each one is a function of numeric
values in :mod:`repro.core` that takes a float or an aligned array; the
scalar models call it with floats and this engine with arrays, keeping only
the grouping, the bucketing, the (conditions x points) broadcast and the
result assembly.  So a batch evaluation agrees with the scalar path to the
last bit — ``BatchResult.report_at(i)`` returns the exact report
``XRPerformanceModel.analyze`` would have produced for point ``i``.

The vectorized numeric axes are the frame side, the CPU/GPU clocks, the
encoder bitrate and the wireless throughput; every other field (sensors,
handoff, cooperation, CNN selection, buffer rate, frame rate, ...) is part
of the group structure and may differ freely *between* groups.

:class:`ConditionedPoints` adds the handoff probability as a second
per-point axis.  Only Eq. (8)'s result transfer and Eqs. (16)-(18) see the
channel, so the set compiles every other term of every group once, into
per-candidate arrays across all groups, and evaluates whole arrays of
(throughput, ``P(HO)``) conditions in one broadcast pass over
(conditions x candidates) through the same :func:`_closed_forms` a group
evaluation finishes with.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import telemetry, units
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.aoi import AoIModel, frame_aoi
from repro.core.coefficients import CoefficientSet
from repro.core.energy import FrameTotals, XREnergyModel, frame_totals
from repro.core.latency import (
    INFERENCE_RESULT_SIZE_MB,
    XRLatencyModel,
    decode_ms,
    generation_ms,
    link_ms,
    local_share_ms,
    memory_ms,
    processing_ms,
    render_ms,
    slowest_share_ms,
)
from repro.core.numeric import ArrayLike
from repro.core.power import PowerModel
from repro.core.segments import Segment, billed_segments
from repro.devices.resolve import resolve_device_spec, resolve_edge_spec
from repro.exceptions import ConfigurationError, ModelDomainError
from repro.network.handoff import HandoffModel, handoff_ms
from repro.network.wifi import WifiLink

from repro.batch.grid import NUMERIC_AXES, OperatingPoint, ParameterGrid
from repro.batch.result import BatchResult, GroupAoI, GroupResult



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


#: The order the scalar model inserts segments in, which fixes the
#: floating-point summation order of the Eq. (1) / Eq. (19) totals.
_SEGMENT_ORDER = (
    Segment.FRAME_GENERATION,
    Segment.VOLUMETRIC,
    Segment.EXTERNAL,
    Segment.RENDERING,
    Segment.CONVERSION,
    Segment.LOCAL_INFERENCE,
    Segment.ENCODING,
    Segment.REMOTE_INFERENCE,
    Segment.TRANSMISSION,
    Segment.HANDOFF,
    Segment.COOPERATION,
)


class _Terms(NamedTuple):
    """The condition-invariant inputs of the closed forms, per point.

    Every value is a scalar or an array that broadcasts against the
    conditions handed to :func:`_closed_forms`, which adds what depends on
    the channel: Eq. (8)'s result transfer and Eqs. (16)-(18).
    """

    #: Condition-invariant segment latencies in :data:`_SEGMENT_ORDER`;
    #: RENDERING holds raster + memory + buffering, plus the result
    #: transfer of local inference (a memory copy).
    latency_ms: Dict[Segment, np.ndarray]
    #: Energies of those segments, except RENDERING.
    energy_mj: Dict[Segment, np.ndarray]
    #: Power of RENDERING, TRANSMISSION, HANDOFF and COOPERATION.
    power_w: Dict[Segment, ArrayLike]
    #: Segments the totals sum, when present.
    billed: AbstractSet[Segment]
    #: ``(path-loss mask, link-budget r_w)``, None when no point has path
    #: loss; with path loss r_w is the link budget, not the condition's.
    link_budget: Optional[Tuple[ArrayLike, ArrayLike]]
    #: Megabits of the inference result sent over r_w (0 on local inference).
    result_megabits: ArrayLike
    #: Edge propagation delay (0 on local inference).
    edge_propagation_ms: ArrayLike
    #: Encoded-frame megabits (Eq. 16), None when no point offloads.
    transmission_megabits: Optional[ArrayLike]
    #: Latency of one handoff, ``l_HO`` (Eq. 17).
    handoff_latency_ms: ArrayLike
    #: Cooperation payload in megabits (Eq. 18), None when no point has it.
    cooperation_megabits: Optional[ArrayLike]
    cooperation_propagation_ms: ArrayLike
    thermal_fraction: ArrayLike
    base_power_w: ArrayLike


class _ClosedForms(NamedTuple):
    """Segments, energies and totals of :func:`_closed_forms`."""

    latency_ms: Dict[Segment, np.ndarray]
    energy_mj: Dict[Segment, np.ndarray]
    included: FrozenSet[Segment]
    totals: FrameTotals


def _closed_forms(
    terms: _Terms, throughput_mbps: np.ndarray, handoff_probability: np.ndarray
) -> _ClosedForms:
    """Finish the closed forms under (throughput, ``P(HO)``) conditions.

    Adds Eq. (8)'s result transfer and Eqs. (16)-(18) to the
    condition-invariant ``terms``, then takes the Eq. (1) and Eq. (19)
    totals with :func:`~repro.core.energy.frame_totals`, as the scalar model
    does.  Totals start from +0.0, so a segment a point does not bill may be
    present with a zero entry: ``x + 0.0 == x``.
    """
    thr = throughput_mbps
    if terms.link_budget is not None:
        path_loss, link_budget = terms.link_budget
        thr = np.where(path_loss, link_budget, thr)
    segments = dict(terms.latency_ms)
    # Eq. (8): rendering = raster + memory + buffering + result transfer.
    segments[Segment.RENDERING] = segments[Segment.RENDERING] + link_ms(
        terms.result_megabits, thr, terms.edge_propagation_ms
    )
    if terms.transmission_megabits is not None:
        # Eq. (16)
        segments[Segment.TRANSMISSION] = link_ms(
            terms.transmission_megabits, thr, terms.edge_propagation_ms
        )
        # Eq. (17)
        segments[Segment.HANDOFF] = handoff_ms(terms.handoff_latency_ms, handoff_probability)
    if terms.cooperation_megabits is not None:
        # Eq. (18)
        segments[Segment.COOPERATION] = link_ms(
            terms.cooperation_megabits, thr, terms.cooperation_propagation_ms
        )
    energy = {
        segment: terms.power_w[segment] * latency
        if segment in terms.power_w
        else terms.energy_mj[segment]
        for segment, latency in segments.items()
    }
    included = frozenset(terms.billed & set(segments))
    return _ClosedForms(
        latency_ms=segments,
        energy_mj=energy,
        included=included,
        totals=frame_totals(
            segments, energy, included, terms.thermal_fraction, terms.base_power_w
        ),
    )


class _GroupEvaluator:
    """Vectorized evaluator for one structure group.

    The point-independent quantities (sensor latencies, buffering delays,
    handoff, CNN complexities, propagation delays) come from the scalar
    models' own methods.  :meth:`_fixed_terms` calls the equations of
    :mod:`repro.core` on the numeric axes, and :meth:`evaluate` finishes
    them with :func:`_closed_forms`.
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
        latency = XRLatencyModel(
            device=device, edge=edge, coefficients=coefficients, complexity_mode=complexity_mode
        )
        self.latency_model = latency
        self.energy_model = XREnergyModel(
            latency_model=latency,
            power_model=PowerModel(coefficients=coefficients, device=device),
        )
        self.device = device
        self.edge = edge
        self.app = app
        self.network = network

        mode = app.inference.mode
        self.mode = mode
        self.local = mode is ExecutionMode.LOCAL
        self.uses_local_path = mode is not ExecutionMode.REMOTE
        self.uses_remote_path = not self.local
        if self.uses_remote_path and edge is None:
            raise ModelDomainError(
                "remote inference requires an edge server specification"
            )

        # -- point-independent scalars, from the scalar models ----------------
        self.external_ms = latency.external_information_ms(app, network)
        self.buffering_ms = latency.buffering_ms(app, network)
        # Eq. (17) is l_HO * P(HO).  ConditionedPoints enables the handoff at
        # each condition's P(HO); ``evaluate`` charges the configured one,
        # and nothing when it is disabled (l_HO * 0 is NaN for l_HO = inf).
        self.handoff_latency_ms = 0.0
        self.configured_handoff = (0.0, 0.0)
        if self.uses_remote_path:
            handoff = HandoffModel(network.handoff)
            self.handoff_latency_ms = handoff.single_handoff_latency_ms()
            if network.handoff.enabled:
                self.configured_handoff = (
                    self.handoff_latency_ms,
                    handoff.handoff_probability(app.frame_period_ms),
                )
        self.edge_propagation_ms = network.propagation_delay_ms(network.edge_distance_m)

        # Throughput handling: with path loss enabled the scalar WifiLink
        # derives r_w from the link budget and ignores the configured
        # throughput, so the vectorized axis collapses to that scalar.
        self.link_budget_throughput: Optional[float] = None
        if network.enable_path_loss:
            self.link_budget_throughput = WifiLink(config=network).throughput_mbps()

        if self.uses_local_path and app.inference.omega_client > 0.0:
            self.local_complexity = latency.cnn_complexity(app.inference.local_cnn)
            self.converted_side_px = latency.converted_frame_side_px(app)
            self.converted_memory_ms = memory_ms(
                app.converted_frame_size_mb(self.converted_side_px),
                device.memory_bandwidth_gb_s,
            )
        if self.uses_remote_path:
            self.remote_complexity = latency.cnn_complexity(app.inference.remote_cnn)
        if app.cooperation.enabled:
            self.coop_propagation_ms = network.propagation_delay_ms(
                app.cooperation.distance_m
            )

        self._included_unrestricted = billed_segments(
            self.uses_local_path,
            self.uses_remote_path,
            app.cooperation.enabled and app.cooperation.include_in_totals,
        )

        self.aoi_active = bool(include_aoi and network.sensors)
        if self.aoi_active:
            self.updates_per_frame = max(app.sensor_updates_per_frame, 1)
            self.aoi_buffer_time_ms = AoIModel(
                app.buffer_service_rate_hz
            ).average_buffer_time_ms(network.total_sensor_arrival_rate_hz)

    # -- vectorized evaluation --------------------------------------------------

    def _fixed_terms(
        self,
        side: np.ndarray,
        fc: np.ndarray,
        fg: np.ndarray,
        bitrate: np.ndarray,
    ) -> Tuple[_Terms, np.ndarray, Optional[np.ndarray], np.ndarray]:
        """The condition-invariant terms at aligned per-point value arrays.

        Runs the point checks (frame sides, a path-loss link budget, clocks,
        the encoding domain).  Returns the terms, the client and edge compute
        values and the mean power.
        """
        if np.any(side <= 0.0):
            raise ConfigurationError("frame sides must be > 0 at every point")
        link_budget = self.link_budget_throughput
        if link_budget is not None and link_budget <= 0.0:
            raise ConfigurationError("throughputs must be > 0 at every point")
        app = self.app
        latency = self.latency_model
        complexity_mode = latency.complexity_mode
        bandwidth = self.device.memory_bandwidth_gb_s
        n = side.shape[0]
        c = latency.resources.client_compute(fc, fg, app.cpu_share)
        raw_mb = units.yuv_frame_size_mb(side)
        raw_memory = memory_ms(raw_mb, bandwidth)

        segments: Dict[Segment, np.ndarray] = {
            Segment.FRAME_GENERATION: generation_ms(
                app.frame_period_ms, side, c, raw_memory
            ),
            Segment.VOLUMETRIC: processing_ms(
                app.virtual_scene_side_px, c, memory_ms(app.virtual_scene_data_mb, bandwidth)
            ),
            Segment.EXTERNAL: np.full(n, self.external_ms),
            # Eq. (8) up to the result transfer, which only a local result (a
            # memory copy) makes condition-invariant.
            Segment.RENDERING: render_ms(
                side,
                c,
                raw_memory,
                self.buffering_ms,
                memory_ms(INFERENCE_RESULT_SIZE_MB, bandwidth) if self.local else 0.0,
            ),
        }
        if self.uses_local_path:
            segments[Segment.CONVERSION] = processing_ms(side, c, raw_memory)
            omega = app.inference.omega_client
            segments[Segment.LOCAL_INFERENCE] = (
                np.zeros(n)
                if omega == 0.0
                else local_share_ms(
                    omega,
                    self.converted_side_px,
                    c,
                    self.local_complexity,
                    self.converted_memory_ms,
                    complexity_mode,
                )
            )

        edge_compute: Optional[np.ndarray] = None
        transmission_megabits: Optional[np.ndarray] = None
        if self.uses_remote_path:
            encoder = app.encoder
            numerator = latency.coefficients.encoding.numerator(
                i_frame_interval=encoder.i_frame_interval,
                b_frame_count=encoder.b_frame_count,
                bitrate_mbps=bitrate,
                frame_side_px=side,
                frame_rate_fps=app.frame_rate_fps,
                quantization=encoder.quantization,
            )
            segments[Segment.ENCODING] = processing_ms(numerator, c, raw_memory)
            edge_compute = latency.resources.edge_compute(c, self.edge)
            encoded_mb = raw_mb / encoder.compression_ratio
            # The remote path always has an edge share (ApplicationConfig
            # checks); np.full keeps an all-zero-share float 0.0 an array.
            segments[Segment.REMOTE_INFERENCE] = np.full(
                n,
                slowest_share_ms(
                    app.inference.edge_shares,
                    side,
                    edge_compute,
                    self.remote_complexity,
                    memory_ms(encoded_mb, self.edge.memory_bandwidth_gb_s),
                    decode_ms(numerator, c, edge_compute, latency.coefficients.decode_discount),
                    complexity_mode,
                ),
            )
            transmission_megabits = units.mb_to_megabits(encoded_mb)

        # -- energy (Eqs. 19-21) --------------------------------------------------
        mean_power = self.energy_model.power_model.mean_power_w(fc, fg, app.cpu_share)
        network = self.network
        terms = _Terms(
            latency_ms=segments,
            energy_mj={
                segment: self.energy_model.segment_energy_mj(
                    segment, latency_ms, mean_power, network
                )
                for segment, latency_ms in segments.items()
                if segment is not Segment.RENDERING
            },
            power_w={
                segment: self.energy_model.power_model.segment_power_w(
                    segment, mean_power, network
                )
                for segment in (
                    Segment.RENDERING,
                    Segment.TRANSMISSION,
                    Segment.HANDOFF,
                    Segment.COOPERATION,
                )
            },
            billed=self._included_unrestricted,
            link_budget=None if link_budget is None else (True, link_budget),
            result_megabits=0.0
            if self.local
            else units.mb_to_megabits(INFERENCE_RESULT_SIZE_MB),
            edge_propagation_ms=0.0 if self.local else self.edge_propagation_ms,
            transmission_megabits=transmission_megabits,
            handoff_latency_ms=self.handoff_latency_ms,
            cooperation_megabits=units.mb_to_megabits(app.cooperation.data_size_mb)
            if app.cooperation.enabled
            else None,
            cooperation_propagation_ms=(
                self.coop_propagation_ms if app.cooperation.enabled else 0.0
            ),
            thermal_fraction=self.device.thermal_fraction,
            base_power_w=self.device.base_power_w,
        )
        return terms, c, edge_compute, mean_power

    def evaluate(
        self,
        frame_side_px: np.ndarray,
        cpu_freq_ghz: np.ndarray,
        gpu_freq_ghz: np.ndarray,
        bitrate_mbps: np.ndarray,
        throughput_mbps: np.ndarray,
        positions: np.ndarray,
    ) -> GroupResult:
        """Evaluate the group over aligned per-point value arrays."""
        side = np.asarray(frame_side_px, dtype=float)
        thr = np.asarray(throughput_mbps, dtype=float)
        if self.link_budget_throughput is None and np.any(thr <= 0.0):
            raise ConfigurationError("throughputs must be > 0 at every point")
        terms, c, edge_compute, mean_power = self._fixed_terms(
            side,
            np.asarray(cpu_freq_ghz, dtype=float),
            np.asarray(gpu_freq_ghz, dtype=float),
            np.asarray(bitrate_mbps, dtype=float),
        )
        handoff_latency, handoff_probability = self.configured_handoff
        closed = _closed_forms(
            terms._replace(handoff_latency_ms=handoff_latency),
            thr,
            np.full(side.shape[0], handoff_probability),
        )
        totals = closed.totals
        aoi = None
        if self.aoi_active:
            required_frequency, rows = self.aoi_rows(totals.total_latency_ms)
            aoi = GroupAoI(
                sensor_names=tuple(name for name, _, _, _ in rows),
                average_aoi_ms={name: mean for name, mean, _, _ in rows},
                roi={name: roi for name, _, _, roi in rows},
                processed_frequency_hz={name: hz for name, _, hz, _ in rows},
                required_frequency_hz=required_frequency,
                buffer_time_ms=self.aoi_buffer_time_ms,
            )

        return GroupResult(
            device_name=self.device.name,
            edge_name=self.edge.name if self.edge is not None else None,
            mode=self.mode,
            included_segments=closed.included,
            latency_segments_ms=closed.latency_ms,
            energy_segments_mj=closed.energy_mj,
            total_latency_ms=totals.total_latency_ms,
            thermal_mj=totals.thermal_mj,
            base_mj=totals.base_mj,
            total_energy_mj=totals.total_energy_mj,
            client_compute=c,
            edge_compute=edge_compute,
            mean_power_w=mean_power,
            positions=np.asarray(positions, dtype=np.intp),
            aoi=aoi,
        )

    def aoi_rows(self, total_latency_ms: np.ndarray):
        """:func:`~repro.core.aoi.frame_aoi` of the group's sensors at arrays of latencies."""
        return frame_aoi(
            self.network.sensors,
            self.network.propagation_speed_m_per_s,
            self.aoi_buffer_time_ms,
            self.updates_per_frame,
            total_latency_ms,
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
        complexity_mode: CNN-complexity placement mode (see docs/ARCHITECTURE.md).
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
    edge = resolve_edge_spec(grid.edge)
    canonical_network = grid.network

    groups: List[GroupResult] = []
    offset = 0
    for device_like, mode in grid.group_keys():
        device = resolve_device_spec(device_like)
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
        resolve_device_spec(point.device),
        resolve_edge_spec(point.edge),
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


def _merge_terms(parts: Sequence[Tuple[np.ndarray, _Terms]], n_points: int) -> _Terms:
    """Lay per-group terms out as ``(1, n_points)`` rows across all groups.

    ``parts`` pairs each group's global positions with its terms.  A
    point's entry for a segment it does not bill is set to zero, never
    multiplied to zero (a power or ``l_HO`` may be infinite), so it adds
    exactly nothing to the totals.  Rows rather than vectors keep a
    single-condition pass free of broadcasting.
    """

    def column(value_of: Callable[[_Terms], Optional[ArrayLike]]) -> np.ndarray:
        out = np.zeros((1, n_points))
        for positions, terms in parts:
            value = value_of(terms)
            if value is not None:
                out[0, positions] = value
        return out

    def billed_row(segment: Segment, value_of: Callable[[_Terms], Optional[ArrayLike]]):
        """``value_of`` as a row, zero where a point does not bill ``segment``."""
        return column(lambda terms: value_of(terms) if segment in terms.billed else None)

    def billed_by_any(segment: Segment, value_of: Callable[[_Terms], Optional[ArrayLike]]):
        return any(
            segment in terms.billed and value_of(terms) is not None for _, terms in parts
        )

    def optional_row(segment: Segment, value_of: Callable[[_Terms], Optional[ArrayLike]]):
        """:func:`billed_row`, or None when no point bills ``segment``."""
        return billed_row(segment, value_of) if billed_by_any(segment, value_of) else None

    fixed = [
        segment
        for segment in _SEGMENT_ORDER
        if billed_by_any(segment, lambda terms: terms.latency_ms.get(segment))
    ]
    link_budget = None
    budgets = [(positions, terms.link_budget) for positions, terms in parts if terms.link_budget]
    if budgets:
        path_loss = np.zeros((1, n_points), dtype=bool)
        budget_mbps = np.zeros((1, n_points))
        for positions, (_, value) in budgets:
            path_loss[0, positions] = True
            budget_mbps[0, positions] = value
        link_budget = (path_loss, budget_mbps)
    return _Terms(
        latency_ms={
            segment: billed_row(segment, lambda terms: terms.latency_ms.get(segment))
            for segment in fixed
        },
        energy_mj={
            segment: billed_row(segment, lambda terms: terms.energy_mj.get(segment))
            for segment in fixed
            if segment is not Segment.RENDERING
        },
        power_w={
            segment: billed_row(segment, lambda terms: terms.power_w[segment])
            for segment in (
                Segment.RENDERING,
                Segment.TRANSMISSION,
                Segment.HANDOFF,
                Segment.COOPERATION,
            )
        },
        billed=frozenset(segment for _, terms in parts for segment in terms.billed),
        link_budget=link_budget,
        result_megabits=column(lambda terms: terms.result_megabits),
        edge_propagation_ms=column(lambda terms: terms.edge_propagation_ms),
        transmission_megabits=optional_row(
            Segment.TRANSMISSION, lambda terms: terms.transmission_megabits
        ),
        handoff_latency_ms=billed_row(Segment.HANDOFF, lambda terms: terms.handoff_latency_ms),
        cooperation_megabits=optional_row(
            Segment.COOPERATION, lambda terms: terms.cooperation_megabits
        ),
        cooperation_propagation_ms=billed_row(
            Segment.COOPERATION, lambda terms: terms.cooperation_propagation_ms
        ),
        thermal_fraction=column(lambda terms: terms.thermal_fraction),
        base_power_w=column(lambda terms: terms.base_power_w),
    )


class ConditionedPoints:
    """A point set compiled once and evaluated under arrays of conditions.

    In the closed forms an operating point sees the epoch's channel only
    through the throughput ``r_w`` (Eqs. 8, 16, 18) and the handoff
    probability ``P(HO)`` (Eq. 17).  The set buckets its points once, by
    the same structure key :func:`evaluate_points` groups by, and compiles
    every condition-invariant term of every group into per-point arrays
    across all groups (zero where a point does not bill a segment).
    :meth:`evaluate` is then one broadcast pass over (conditions x points);
    only the min-RoI runs per group, over the fused latency.  The point
    checks (frame sides, clocks, encoding domain, a path-loss link budget)
    run here, so an out-of-domain point fails at construction.

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
        buckets = _bucket_points(points, coefficients, complexity_mode, include_aoi)
        self._terms = _merge_terms(
            [
                (
                    positions,
                    evaluator._fixed_terms(
                        values["frame_side_px"],
                        values["cpu_freq_ghz"],
                        values["gpu_freq_ghz"],
                        values["bitrate_mbps"],
                    )[0],
                )
                for evaluator, positions, values in buckets
            ],
            self.n_points,
        )
        self._groups = [(evaluator, positions) for evaluator, positions, _ in buckets]
        self._has_aoi = all(evaluator.aoi_active for evaluator, _ in self._groups)

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
        # min/max propagate NaN, so these reject it like an elementwise test.
        if not throughput.min() > 0.0:
            raise ConfigurationError("throughputs must be > 0 at every condition")
        if not (handoff.min() >= 0.0 and handoff.max() <= 1.0):
            raise ConfigurationError("handoff probabilities must be in [0, 1]")
        n_conditions = throughput.shape[0]
        with telemetry.get().span(
            "batch.evaluate_conditions",
            points=n_conditions * self.n_points,
            groups=len(self._groups),
            conditions=n_conditions,
        ):
            totals = _closed_forms(self._terms, throughput[:, None], handoff[:, None]).totals
            latency = totals.total_latency_ms
            min_roi = None
            if self._has_aoi:
                min_roi = np.empty_like(latency)
                for evaluator, positions in self._groups:
                    _, rows = evaluator.aoi_rows(latency[:, positions])
                    min_roi[:, positions] = np.minimum.reduce([roi for _, _, _, roi in rows])
        return latency, totals.total_energy_mj, min_roi
