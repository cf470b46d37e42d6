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

from repro import telemetry
from repro.cnn.zoo import get_cnn
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.latency import COMPLEXITY_MODES, INFERENCE_RESULT_SIZE_MB
from repro.core.segments import COMPUTE_SEGMENTS, RADIO_SEGMENTS, Segment, billed_segments
from repro.devices.resolve import resolve_device_spec, resolve_edge_spec
from repro.exceptions import ConfigurationError, ModelDomainError
from repro.measurement.truth import SEGMENT_POWER_FACTORS
from repro.network.handoff import HandoffModel
from repro.network.wifi import WifiLink
from repro.queueing.vectorized import ArrayLike, mm1_sojourn_ms
from repro.sensors.sensor import ExternalSensor

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

#: Values per chunk of the AoI sum over updates (8 MB of float64), so a
#: sweep over many conditions at the largest update count stays bounded.
_AOI_CHUNK_ELEMENTS = 2**20


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
    total_latency_ms: np.ndarray
    thermal_mj: np.ndarray
    base_mj: np.ndarray
    total_energy_mj: np.ndarray


def _link_ms(megabits: ArrayLike, propagation_ms: ArrayLike, throughput: np.ndarray) -> np.ndarray:
    """Serialization of ``megabits`` over r_w plus the propagation delay."""
    return (megabits / throughput) * 1e3 + propagation_ms


def _closed_forms(
    terms: _Terms, throughput_mbps: np.ndarray, handoff_probability: np.ndarray
) -> _ClosedForms:
    """Finish the closed forms under (throughput, ``P(HO)``) conditions.

    Adds Eq. (8)'s result transfer and Eqs. (16)-(18) to the
    condition-invariant ``terms``, then sums the Eq. (1) and Eq. (19)
    totals in segment order, exactly as ``LatencyBreakdown.total_ms`` and
    ``EnergyBreakdown.total_mj`` do.  Totals start from +0.0, so a segment a
    point does not bill may be present with a zero entry: ``x + 0.0 == x``.
    """
    thr = throughput_mbps
    if terms.link_budget is not None:
        path_loss, link_budget = terms.link_budget
        thr = np.where(path_loss, link_budget, thr)
    segments = dict(terms.latency_ms)
    # Eq. (8): rendering = raster + memory + buffering + result transfer.
    segments[Segment.RENDERING] = segments[Segment.RENDERING] + _link_ms(
        terms.result_megabits, terms.edge_propagation_ms, thr
    )
    if terms.transmission_megabits is not None:
        # Eq. (16)
        segments[Segment.TRANSMISSION] = _link_ms(
            terms.transmission_megabits, terms.edge_propagation_ms, thr
        )
        # Eq. (17)
        segments[Segment.HANDOFF] = terms.handoff_latency_ms * handoff_probability
    if terms.cooperation_megabits is not None:
        # Eq. (18)
        segments[Segment.COOPERATION] = _link_ms(
            terms.cooperation_megabits, terms.cooperation_propagation_ms, thr
        )
    energy = {
        segment: terms.power_w[segment] * latency
        if segment in terms.power_w
        else terms.energy_mj[segment]
        for segment, latency in segments.items()
    }
    included = frozenset(terms.billed & set(segments))

    total_latency = segment_energy = compute_energy = 0.0
    for segment, latency in segments.items():
        if segment in included:
            total_latency = total_latency + latency
            segment_energy = segment_energy + energy[segment]
            if segment in COMPUTE_SEGMENTS:
                compute_energy = compute_energy + energy[segment]
    thermal = terms.thermal_fraction * compute_energy
    base = terms.base_power_w * total_latency
    return _ClosedForms(
        latency_ms=segments,
        energy_mj=energy,
        included=included,
        total_latency_ms=total_latency,
        thermal_mj=thermal,
        base_mj=base,
        total_energy_mj=segment_energy + thermal + base,
    )


class _GroupEvaluator:
    """Vectorized evaluator for one structure group.

    All point-independent quantities (sensor latencies, buffering delays,
    handoff, CNN complexities, propagation delays) are computed once here —
    with the *scalar* code paths, so they are trivially identical to the
    scalar model.  :meth:`_fixed_terms` streams the numeric axes through the
    condition-invariant array expressions, and :meth:`evaluate` finishes
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
        self.uses_local_path = mode is not ExecutionMode.REMOTE
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
                    handoff.handoff_probability(self.frame_period_ms),
                )
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

        self._included_unrestricted = billed_segments(
            self.uses_local_path,
            self.uses_remote_path,
            app.cooperation.enabled and app.cooperation.include_in_totals,
        )

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

    def _fixed_terms(
        self,
        side: np.ndarray,
        fc: np.ndarray,
        fg: np.ndarray,
        bitrate: np.ndarray,
    ) -> Tuple[_Terms, np.ndarray, Optional[np.ndarray], np.ndarray, int]:
        """The condition-invariant terms at aligned per-point value arrays.

        Runs the point checks (frame sides, a path-loss link budget, clocks,
        the encoding domain).  Returns the terms, the client and edge compute
        values, the mean power and the number of clamped mean-power points.
        """
        if np.any(side <= 0.0):
            raise ConfigurationError("frame sides must be > 0 at every point")
        link_budget = self.link_budget_throughput
        if link_budget is not None and link_budget <= 0.0:
            raise ConfigurationError("throughputs must be > 0 at every point")
        n = side.shape[0]
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
        # Eq. (8) up to the result transfer, which only a local result (a
        # memory copy) makes condition-invariant.
        rendering = side / c + raw_mem + self.buffering_ms
        segments[Segment.RENDERING] = (
            rendering + self.result_transfer_local_ms if self.local else rendering
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
        transmission_megabits: Optional[np.ndarray] = None
        if self.uses_remote_path:
            numerator = self._encoding_numerator(side, bitrate)
            # Eq. (10)
            segments[Segment.ENCODING] = numerator / c + raw_mem
            edge_compute = self.edge_scale * c
            encoded_mb = raw_mb / self.app.encoder.compression_ratio
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
            transmission_megabits = encoded_mb * 8.0

        # -- energy (Eqs. 19-21) --------------------------------------------------
        mean_power, clamped_points = self._mean_power(fc, fg)
        power = {
            segment: self.segment_factors[segment.value] * mean_power
            for segment in segments
        }
        terms = _Terms(
            latency_ms=segments,
            energy_mj={
                segment: power[segment] * latency
                for segment, latency in segments.items()
                if segment is not Segment.RENDERING
            },
            power_w={
                Segment.RENDERING: power[Segment.RENDERING],
                Segment.TRANSMISSION: self.network.radio_tx_power_w,
                Segment.HANDOFF: self.network.handoff.power_w,
                Segment.COOPERATION: self.network.radio_tx_power_w,
            },
            billed=self._included_unrestricted,
            link_budget=None if link_budget is None else (True, link_budget),
            result_megabits=0.0 if self.local else self.result_megabits,
            edge_propagation_ms=0.0 if self.local else self.edge_propagation_ms,
            transmission_megabits=transmission_megabits,
            handoff_latency_ms=self.handoff_latency_ms,
            cooperation_megabits=self.coop_megabits if self.cooperation_enabled else None,
            cooperation_propagation_ms=(
                self.coop_propagation_ms if self.cooperation_enabled else 0.0
            ),
            thermal_fraction=self.device.thermal_fraction,
            base_power_w=self.device.base_power_w,
        )
        return terms, c, edge_compute, mean_power, clamped_points

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
        terms, c, edge_compute, mean_power, clamped_points = self._fixed_terms(
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
        segments = closed.latency_ms
        aoi = self._evaluate_aoi(closed.total_latency_ms) if self.aoi_active else None

        # The scalar path clamps once per mean-power evaluation: one per
        # non-radio segment plus one for the report's mean_power_w field.
        power_evals_per_point = (
            sum(1 for segment in segments if segment not in RADIO_SEGMENTS) + 1
        )

        return GroupResult(
            device_name=self.device.name,
            edge_name=self.edge.name if self.edge is not None else None,
            mode=self.mode,
            included_segments=closed.included,
            latency_segments_ms=segments,
            energy_segments_mj=closed.energy_mj,
            total_latency_ms=closed.total_latency_ms,
            thermal_mj=closed.thermal_mj,
            base_mj=closed.base_mj,
            total_energy_mj=closed.total_energy_mj,
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
        # The update index runs down a leading axis, a chunk of rows at a
        # time so a chunk holds at most _AOI_CHUNK_ELEMENTS values.
        rows = max(1, _AOI_CHUNK_ELEMENTS // max(required_period.size, 1))
        index_shape = (-1,) + (1,) * required_period.ndim
        for sensor in network.sensors:
            generation_period = sensor.generation_period_ms
            propagation = (sensor.distance_m / speed) * 1e3
            overhead = propagation + buffer_time
            slow = generation_period >= required_period
            accumulator: Optional[np.ndarray] = None
            for start in range(1, updates + 1, rows):
                index = np.arange(
                    start, min(start + rows, updates + 1), dtype=float
                ).reshape(index_shape)
                request_time = (index - 1) * required_period
                # Eq. (23): a sensor slower than the requirement accumulates
                # AoI linearly; a faster sensor always has a fresh sample.
                aoi_slow = index * generation_period + overhead - request_time
                aoi_fast = request_time % generation_period + overhead
                aoi_n = np.where(slow, aoi_slow, aoi_fast)
                if accumulator is not None:
                    aoi_n[0] += accumulator
                # cumsum adds in update order, as Eq. (24)'s sum runs; a
                # pairwise np.sum would change the last bit.
                accumulator = np.cumsum(aoi_n, axis=0)[-1]
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
            closed = _closed_forms(self._terms, throughput[:, None], handoff[:, None])
            latency = closed.total_latency_ms
            min_roi = None
            if self._has_aoi:
                min_roi = np.empty_like(latency)
                for evaluator, positions in self._groups:
                    aoi = evaluator._evaluate_aoi(latency[:, positions])
                    min_roi[:, positions] = np.minimum.reduce(
                        [aoi.roi[name] for name in aoi.sensor_names]
                    )
        return latency, closed.total_energy_mj, min_roi
