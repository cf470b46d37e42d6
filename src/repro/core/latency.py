"""End-to-end latency analysis model (Section IV, Eqs. 1-18).

:class:`XRLatencyModel` evaluates the latency of every segment of the
object-detection XR pipeline for one frame and assembles the end-to-end
latency of Eq. (1).  The model is purely analytical: it consumes the device
and edge specifications, the application configuration and the network
configuration, and never simulates anything — the simulated testbed in
:mod:`repro.simulation` provides the ground truth this model is validated
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro import units
from repro.cnn.zoo import get_cnn
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.numeric import ArrayLike, any_true, at_least
from repro.core.resources import ComputeResourceModel
from repro.core.results import LatencyBreakdown
from repro.core.segments import Segment, billed_segments
from repro.exceptions import ConfigurationError, ModelDomainError
from repro.network.handoff import HandoffModel
from repro.network.wifi import WifiLink
from repro.sensors.buffer import InputBuffer
from repro.sensors.sensor import ExternalSensor

#: Data size of an inference result (bounding boxes + labels) handed to the
#: renderer, in MB.  Used for the result-transfer term of Eq. (8).
INFERENCE_RESULT_SIZE_MB: float = 0.05

#: Valid values of the CNN-complexity placement mode (see docs/ARCHITECTURE.md,
#: "Modelling decisions").
COMPLEXITY_MODES = ("paper", "proportional")


# ---------------------------------------------------------------------------
# The segment equations on numeric values
#
# Each function takes floats or aligned arrays and applies the same IEEE
# operations to both, so the scalar model (floats) and the batch engine
# (arrays) agree bit for bit.  The order of the terms is part of the result.
# ---------------------------------------------------------------------------


def memory_ms(data_size_mb: ArrayLike, bandwidth_gb_s: float) -> ArrayLike:
    """The memory-access term ``delta / m`` of Section IV: MB over GB/s is ms."""
    return data_size_mb / bandwidth_gb_s


def generation_ms(
    frame_period_ms: float, frame_side_px: ArrayLike, compute: ArrayLike, memory: ArrayLike
) -> ArrayLike:
    """Frame generation ``L_fg = 1/n_fps + s_f / c_client + delta_f / m`` (Eq. 2)."""
    return frame_period_ms + frame_side_px / compute + memory


def processing_ms(work: ArrayLike, compute: ArrayLike, memory: ArrayLike) -> ArrayLike:
    """``work / c_client + delta / m``: Eqs. (4), (9) and (10), and Eq. (8)'s raster."""
    return work / compute + memory


def inference_compute_ms(
    task_size_px: ArrayLike, compute: ArrayLike, complexity: float, complexity_mode: str
) -> ArrayLike:
    """Inference compute term of Eqs. (11) and (13) in a complexity mode."""
    if any_true(compute <= 0.0) or complexity <= 0.0:
        raise ModelDomainError(
            f"compute ({np.min(compute)}) and complexity ({complexity}) must be > 0"
        )
    if complexity_mode == "paper":
        return task_size_px / (compute * complexity)
    return task_size_px * complexity / compute


def local_share_ms(
    share: float,
    converted_side_px: float,
    compute: ArrayLike,
    complexity: float,
    memory: float,
    complexity_mode: str,
) -> ArrayLike:
    """Local inference ``L_loc``: the client's share of the converted frame (Eq. 11)."""
    return share * (
        inference_compute_ms(converted_side_px, compute, complexity, complexity_mode)
        + memory
    )


def decode_ms(
    numerator: ArrayLike, compute: ArrayLike, edge_compute: ArrayLike, decode_discount: float
) -> ArrayLike:
    """Edge decoding ``L_dec`` from the encoding workload (Eq. 14)."""
    return numerator / compute * decode_discount * compute / edge_compute


def slowest_share_ms(
    shares,
    frame_side_px: ArrayLike,
    edge_compute: ArrayLike,
    complexity: float,
    memory: ArrayLike,
    decoding: ArrayLike,
    complexity_mode: str,
) -> ArrayLike:
    """Remote inference ``L_rem`` (Eqs. 13 and 15): the slowest edge share.

    A zero share costs nothing (never ``0 x inf``).
    """
    slowest = None
    for share in shares:
        share_ms = (
            0.0
            if share == 0.0
            else share
            * (
                inference_compute_ms(frame_side_px, edge_compute, complexity, complexity_mode)
                + memory
                + decoding
            )
        )
        slowest = share_ms if slowest is None else at_least(share_ms, slowest)
    return slowest


def render_ms(
    frame_side_px: ArrayLike,
    compute: ArrayLike,
    memory: ArrayLike,
    buffering_ms: float,
    result_transfer_ms: ArrayLike,
) -> ArrayLike:
    """Rendering ``L_ren``: raster, memory, buffering and result transfer (Eq. 8)."""
    return processing_ms(frame_side_px, compute, memory) + buffering_ms + result_transfer_ms


def link_ms(
    megabits: ArrayLike, throughput_mbps: ArrayLike, propagation_ms: ArrayLike
) -> ArrayLike:
    """Serialization over ``r_w`` plus propagation (Eqs. 8, 16 and 18)."""
    return (megabits / throughput_mbps) * 1e3 + propagation_ms


@dataclass
class XRLatencyModel:
    """Analytical per-frame latency model of the XR pipeline.

    Attributes:
        device: XR client device specification.
        edge: edge server specification used by the remote-inference path
            (may be None for purely local analyses).
        coefficients: regression coefficient set.
        complexity_mode: how CNN complexity enters the inference latency.
            ``"paper"`` follows Eq. (11)/(13) verbatim (complexity in the
            denominator); ``"proportional"`` multiplies by the complexity
            instead (see docs/ARCHITECTURE.md, "Modelling decisions").
    """

    device: DeviceSpec
    edge: Optional[EdgeServerSpec] = None
    coefficients: CoefficientSet = field(default_factory=CoefficientSet.paper)
    complexity_mode: str = "paper"

    def __post_init__(self) -> None:
        if self.complexity_mode not in COMPLEXITY_MODES:
            raise ConfigurationError(
                f"complexity_mode must be one of {COMPLEXITY_MODES}, "
                f"got {self.complexity_mode!r}"
            )
        self.resources = ComputeResourceModel(self.coefficients)

    # ------------------------------------------------------------------ helpers --

    def client_compute(self, app: ApplicationConfig) -> float:
        """Allocated client compute ``c_client`` (Eq. 3)."""
        return self.resources.client_compute_for(app)

    def edge_compute(self, compute: float) -> float:
        """Allocated edge compute ``c_epsilon`` at client compute ``compute``."""
        return self.resources.edge_compute(compute, edge=self.edge)

    def _client_memory_ms(self, data_size_mb: float) -> float:
        return memory_ms(data_size_mb, self.device.memory_bandwidth_gb_s)

    def _edge_memory_ms(self, data_size_mb: float) -> float:
        if self.edge is None:
            raise ModelDomainError(
                "remote inference requires an edge server specification"
            )
        return memory_ms(data_size_mb, self.edge.memory_bandwidth_gb_s)

    def converted_frame_side_px(self, app: ApplicationConfig) -> float:
        """Converted frame side ``s_f2``: explicit config or the local CNN input size."""
        if app.converted_frame_side_px is not None:
            return app.converted_frame_side_px
        return get_cnn(app.inference.local_cnn).input_side_px

    def cnn_complexity(self, cnn_name: str) -> float:
        """Complexity of a catalog CNN under the coefficient set (Eq. 12)."""
        return self.coefficients.cnn_complexity.complexity(get_cnn(cnn_name))

    # --------------------------------------------------------------- segments ----
    #
    # ``compute`` is the operating point's client compute (Eq. 3), ``numerator``
    # its Eq. (10) encoding workload and ``edge_compute`` the edge compute at
    # that client compute; :meth:`end_to_end` derives each once per frame.

    def frame_generation_ms(self, app: ApplicationConfig, compute: float) -> float:
        """Frame generation latency ``L_fg`` (Eq. 2)."""
        return generation_ms(
            app.frame_period_ms,
            app.frame_side_px,
            compute,
            self._client_memory_ms(app.raw_frame_size_mb),
        )

    def volumetric_ms(self, app: ApplicationConfig, compute: float) -> float:
        """Volumetric data generation latency ``L_vol`` (Eq. 4)."""
        return processing_ms(
            app.virtual_scene_side_px,
            compute,
            self._client_memory_ms(app.virtual_scene_data_mb),
        )

    def external_information_ms(
        self, app: ApplicationConfig, network: NetworkConfig
    ) -> float:
        """External sensor information latency ``L_ext`` (Eqs. 5-6).

        The per-sensor latency of ``N`` updates accumulates sequentially;
        sensors deliver in parallel, so the slowest sensor dominates (the
        ``max`` of Eq. 5).
        """
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

    def conversion_ms(self, app: ApplicationConfig, compute: float) -> float:
        """Frame conversion (YUV->RGB, scale, crop) latency ``L_fc`` (Eq. 9)."""
        return processing_ms(
            app.frame_side_px,
            compute,
            self._client_memory_ms(app.raw_frame_size_mb),
        )

    def encoding_numerator(self, app: ApplicationConfig) -> float:
        """The encoding workload of Eq. (10) at an application's encoder settings."""
        return self.coefficients.encoding.numerator(
            i_frame_interval=app.encoder.i_frame_interval,
            b_frame_count=app.encoder.b_frame_count,
            bitrate_mbps=app.encoder.bitrate_mbps,
            frame_side_px=app.frame_side_px,
            frame_rate_fps=app.frame_rate_fps,
            quantization=app.encoder.quantization,
        )

    def encoding_ms(
        self, app: ApplicationConfig, compute: float, numerator: float
    ) -> float:
        """Frame encoding latency ``L_en`` (Eq. 10)."""
        return processing_ms(
            numerator, compute, self._client_memory_ms(app.raw_frame_size_mb)
        )

    def local_inference_ms(self, app: ApplicationConfig, compute: float) -> float:
        """Local inference latency ``L_loc`` (Eq. 11)."""
        share = app.inference.omega_client
        if share == 0.0:
            return 0.0
        converted_side = self.converted_frame_side_px(app)
        return local_share_ms(
            share,
            converted_side,
            compute,
            self.cnn_complexity(app.inference.local_cnn),
            self._client_memory_ms(app.converted_frame_size_mb(converted_side)),
            self.complexity_mode,
        )

    def decoding_ms(
        self, compute: float, edge_compute: float, numerator: float
    ) -> float:
        """Edge-side decoding latency ``L_dec`` (Eq. 14)."""
        return decode_ms(
            numerator, compute, edge_compute, self.coefficients.decode_discount
        )

    def remote_inference_ms(
        self,
        app: ApplicationConfig,
        compute: float,
        edge_compute: float,
        numerator: float,
    ) -> float:
        """Remote inference latency ``L_rem`` (Eqs. 13 and 15).

        With several edge servers the task executes in parallel and the
        slowest share dominates (Eq. 15).  All edge servers are assumed to
        share the configured edge specification.
        """
        shares = app.inference.edge_shares
        if not shares:
            return 0.0
        if self.edge is None:
            raise ModelDomainError(
                "remote inference requires an edge server specification"
            )
        return slowest_share_ms(
            shares,
            app.frame_side_px,
            edge_compute,
            self.cnn_complexity(app.inference.remote_cnn),
            self._edge_memory_ms(app.encoded_frame_size_mb),
            self.decoding_ms(compute, edge_compute, numerator),
            self.complexity_mode,
        )

    def transmission_ms(self, app: ApplicationConfig, network: NetworkConfig) -> float:
        """Wireless transmission latency ``L_tr`` (Eq. 16)."""
        return link_ms(
            units.mb_to_megabits(app.encoded_frame_size_mb),
            WifiLink(config=network).throughput_mbps(),
            network.propagation_delay_ms(network.edge_distance_m),
        )

    def handoff_ms(self, app: ApplicationConfig, network: NetworkConfig) -> float:
        """Average per-frame handoff latency ``L_HO`` (Eq. 17)."""
        model = HandoffModel(network.handoff)
        return model.mean_handoff_latency_ms(app.frame_period_ms)

    def buffering_ms(self, app: ApplicationConfig, network: NetworkConfig) -> float:
        """Input-buffer delay ``t_buff`` (Eq. 7), via the M/M/1 model."""
        buffer = InputBuffer(app.buffer_service_rate_hz)
        return buffer.analytical_delays(app, network).total_ms

    def result_transfer_ms(
        self, app: ApplicationConfig, network: NetworkConfig, local: bool
    ) -> float:
        """Latency of moving the inference result to the renderer (Eq. 8 terms)."""
        if local:
            return self._client_memory_ms(INFERENCE_RESULT_SIZE_MB)
        return link_ms(
            units.mb_to_megabits(INFERENCE_RESULT_SIZE_MB),
            WifiLink(config=network).throughput_mbps(),
            network.propagation_delay_ms(network.edge_distance_m),
        )

    def rendering_ms(
        self, app: ApplicationConfig, network: NetworkConfig, compute: float
    ) -> float:
        """Frame rendering latency ``L_ren`` (Eq. 8)."""
        return render_ms(
            app.frame_side_px,
            compute,
            self._client_memory_ms(app.raw_frame_size_mb),
            self.buffering_ms(app, network),
            self.result_transfer_ms(
                app, network, local=app.inference.mode is ExecutionMode.LOCAL
            ),
        )

    def cooperation_ms(self, app: ApplicationConfig, network: NetworkConfig) -> float:
        """XR cooperation latency ``L_coop`` (Eq. 18)."""
        if not app.cooperation.enabled:
            return 0.0
        return link_ms(
            units.mb_to_megabits(app.cooperation.data_size_mb),
            WifiLink(config=network).throughput_mbps(),
            network.propagation_delay_ms(app.cooperation.distance_m),
        )

    # ------------------------------------------------------------- end-to-end ----

    def end_to_end(
        self, app: ApplicationConfig, network: Optional[NetworkConfig] = None
    ) -> LatencyBreakdown:
        """Evaluate the full per-frame latency breakdown (Eq. 1)."""
        if network is None:
            network = NetworkConfig()
        mode = app.inference.mode
        local = mode is ExecutionMode.LOCAL
        uses_local_path = mode is not ExecutionMode.REMOTE
        uses_remote_path = not local

        compute = self.client_compute(app)
        per_segment: Dict[Segment, float] = {
            Segment.FRAME_GENERATION: self.frame_generation_ms(app, compute),
            Segment.VOLUMETRIC: self.volumetric_ms(app, compute),
            Segment.EXTERNAL: self.external_information_ms(app, network),
            Segment.RENDERING: self.rendering_ms(app, network, compute),
        }
        if uses_local_path:
            per_segment[Segment.CONVERSION] = self.conversion_ms(app, compute)
            per_segment[Segment.LOCAL_INFERENCE] = self.local_inference_ms(app, compute)
        edge_compute = None
        if uses_remote_path:
            numerator = self.encoding_numerator(app)
            edge_compute = self.edge_compute(compute)
            per_segment[Segment.ENCODING] = self.encoding_ms(app, compute, numerator)
            per_segment[Segment.REMOTE_INFERENCE] = self.remote_inference_ms(
                app, compute, edge_compute, numerator
            )
            per_segment[Segment.TRANSMISSION] = self.transmission_ms(app, network)
            per_segment[Segment.HANDOFF] = self.handoff_ms(app, network)
        if app.cooperation.enabled:
            per_segment[Segment.COOPERATION] = self.cooperation_ms(app, network)

        return LatencyBreakdown(
            per_segment_ms=per_segment,
            included_segments=billed_segments(
                uses_local_path,
                uses_remote_path,
                app.cooperation.enabled and app.cooperation.include_in_totals,
            ),
            mode=mode,
            client_compute=compute,
            edge_compute=edge_compute if self.edge else None,
        )
