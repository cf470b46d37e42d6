"""XR application pipeline configuration (Section III of the paper).

The object-detection pipeline of Fig. 1 is parameterised by

* display/capture parameters (frame rate, frame size, virtual scene size),
* H.264 encoder parameters (I/B frame intervals, bitrate, quantisation),
* the inference placement decision (local, remote, or split across the
  client and one or more edge servers) and the CNN models involved,
* the input-buffer service rate used by the M/M/1 buffering model,
* the optional XR-cooperation segment.

Every piece is a frozen dataclass so configurations can be hashed, compared
and swept over safely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro import units
from repro.config.validation import (
    ensure_finite,
    ensure_fraction,
    ensure_integer,
    ensure_non_negative,
    ensure_positive,
)
from repro.exceptions import ConfigurationError


class ExecutionMode(enum.Enum):
    """Where the inference task of the pipeline executes."""

    LOCAL = "local"
    REMOTE = "remote"
    SPLIT = "split"

    @property
    def omega_loc(self) -> int:
        """The paper's binary local-inference indicator ``omega_loc``.

        ``SPLIT`` counts as remote for the purpose of the indicator because
        the remote path (encoding, transmission, remote inference) is active.
        """
        return 1 if self is ExecutionMode.LOCAL else 0


@dataclass(frozen=True)
class EncoderConfig:
    """H.264 encoder parameters used in the frame-encoding regression (Eq. 10).

    Attributes:
        i_frame_interval: number of frames between I-frames (``n_i``).
        b_frame_count: number of consecutive B-frames (``n_b``).
        bitrate_mbps: target encoder bitrate in Mbps (``n_bitrate``).
        quantization: quantisation parameter (``n_quant``), H.264 range 0-51.
        compression_ratio: ratio of raw YUV frame size to encoded frame size;
            used to derive the encoded data size ``delta_f3`` transmitted to
            the edge server.
    """

    i_frame_interval: int = 30
    b_frame_count: int = 2
    bitrate_mbps: float = 10.0
    quantization: int = 28
    compression_ratio: float = 20.0

    def __post_init__(self) -> None:
        ensure_positive("i_frame_interval", self.i_frame_interval)
        ensure_non_negative("b_frame_count", self.b_frame_count)
        ensure_positive("bitrate_mbps", self.bitrate_mbps)
        ensure_non_negative("quantization", self.quantization)
        if self.quantization > 51:
            raise ConfigurationError(
                f"quantization must be within the H.264 range [0, 51], got {self.quantization}"
            )
        ensure_positive("compression_ratio", self.compression_ratio)

    def encoded_frame_size_mb(self, frame_side_px: float) -> float:
        """Encoded frame data size ``delta_f3`` (MB) for a given frame side."""
        return units.yuv_frame_size_mb(frame_side_px) / self.compression_ratio


@dataclass(frozen=True)
class InferenceConfig:
    """Placement and CNN selection for the inference segment.

    Attributes:
        mode: local, remote, or split execution.
        local_cnn: name of the lightweight on-device CNN (Table II entry).
        remote_cnn: name of the large edge CNN (Table II entry).
        omega_client: fraction of the inference task kept on the client
            (``omega_client``), in [0, 1].
        edge_shares: per-edge-server task fractions ``omega_edge^e``; together
            with ``omega_client`` these must sum to ``total_task``.
        total_task: total inference workload per frame (``omega_task``),
            normally 1.0.
    """

    mode: ExecutionMode = ExecutionMode.LOCAL
    local_cnn: str = "MobileNetv2_300 Float"
    remote_cnn: str = "YOLOv3"
    omega_client: float = 1.0
    edge_shares: Tuple[float, ...] = ()
    total_task: float = 1.0

    def __post_init__(self) -> None:
        ensure_fraction("omega_client", self.omega_client)
        ensure_positive("total_task", self.total_task)
        for index, share in enumerate(self.edge_shares):
            ensure_fraction(f"edge_shares[{index}]", share)
        if self.mode is ExecutionMode.LOCAL:
            if self.edge_shares:
                raise ConfigurationError(
                    "LOCAL execution must not define edge_shares"
                )
        if self.mode is ExecutionMode.REMOTE and not self.edge_shares:
            # Remote with a single implicit edge server carrying the whole task.
            object.__setattr__(self, "edge_shares", (self.total_task,))
            object.__setattr__(self, "omega_client", 0.0)
        if self.mode is not ExecutionMode.LOCAL:
            total = self.omega_client + sum(self.edge_shares)
            if abs(total - self.total_task) > 1e-9:
                raise ConfigurationError(
                    "omega_client + sum(edge_shares) must equal total_task "
                    f"({self.total_task}), got {total}"
                )

    @property
    def n_edge_servers(self) -> int:
        """Number of edge servers participating in the inference task."""
        return len(self.edge_shares)


@dataclass(frozen=True)
class CooperationConfig:
    """XR-cooperation segment parameters (Eq. 18).

    Attributes:
        enabled: whether the application exchanges data with cooperative XR
            devices at all.
        data_size_mb: payload per frame sent to the cooperative device
            (``delta_f4``).
        distance_m: distance between the two communicating devices
            (``d_coop``).
        include_in_totals: whether the cooperation latency/energy is added to
            the end-to-end figures; the paper notes cooperation usually runs
            in parallel with rendering and is therefore excluded by default.
    """

    enabled: bool = False
    data_size_mb: float = 0.25
    distance_m: float = 20.0
    include_in_totals: bool = False

    def __post_init__(self) -> None:
        ensure_non_negative("data_size_mb", self.data_size_mb)
        ensure_non_negative("distance_m", self.distance_m)
        if self.include_in_totals and not self.enabled:
            raise ConfigurationError(
                "cooperation cannot be included in totals while disabled"
            )


@dataclass(frozen=True)
class ApplicationConfig:
    """Full parameterisation of the object-detection XR pipeline.

    Attributes:
        frame_rate_fps: camera capture rate ``n_fps``.
        frame_side_px: captured frame side length; the paper's "frame size
            (pixel^2)" sweep variable ``s_f1``.
        converted_frame_side_px: frame side after conversion/scaling for the
            local CNN input tensor (``s_f2``); ``None`` means "same as the
            local CNN's nominal input size" and is resolved by the framework.
        virtual_scene_side_px: virtual scene size driving volumetric data
            generation (``s_vol``).
        point_cloud_mb: 3D point cloud payload produced per frame
            (``delta_vol``).
        sensor_updates_per_frame: number of external-information updates the
            application requires per frame (``N``).
        buffer_service_rate_hz: service rate ``mu`` of the input buffer
            (items per second) for the M/M/1 buffering model.
        cpu_share: fraction of the computation mapped to the CPU
            (``omega_c``); the GPU receives ``1 - omega_c``.
        cpu_freq_ghz: operating CPU clock used for the resource model
            (``f_c``).
        gpu_freq_ghz: operating GPU clock (``f_g``).
        encoder: H.264 encoder parameters.
        inference: inference placement configuration.
        cooperation: XR-cooperation configuration.
    """

    frame_rate_fps: float = 30.0
    frame_side_px: float = 500.0
    converted_frame_side_px: Optional[float] = None
    virtual_scene_side_px: float = 600.0
    point_cloud_mb: float = 1.5
    sensor_updates_per_frame: int = 3
    buffer_service_rate_hz: float = 600.0
    cpu_share: float = 0.8
    cpu_freq_ghz: float = 2.0
    gpu_freq_ghz: float = 0.8
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    cooperation: CooperationConfig = field(default_factory=CooperationConfig)

    def __post_init__(self) -> None:
        ensure_positive("frame_rate_fps", self.frame_rate_fps)
        ensure_positive("frame_side_px", self.frame_side_px)
        if self.converted_frame_side_px is not None:
            ensure_positive("converted_frame_side_px", self.converted_frame_side_px)
            ensure_finite("converted_frame_side_px", self.converted_frame_side_px)
        ensure_positive("virtual_scene_side_px", self.virtual_scene_side_px)
        ensure_non_negative("point_cloud_mb", self.point_cloud_mb)
        ensure_integer("sensor_updates_per_frame", self.sensor_updates_per_frame)
        ensure_non_negative("sensor_updates_per_frame", self.sensor_updates_per_frame)
        ensure_positive("buffer_service_rate_hz", self.buffer_service_rate_hz)
        ensure_fraction("cpu_share", self.cpu_share)
        ensure_positive("cpu_freq_ghz", self.cpu_freq_ghz)
        ensure_positive("gpu_freq_ghz", self.gpu_freq_ghz)
        # An infinite rate, size or clock turns every total into inf or NaN.
        for name in (
            "frame_rate_fps",
            "frame_side_px",
            "virtual_scene_side_px",
            "point_cloud_mb",
            "cpu_freq_ghz",
            "gpu_freq_ghz",
        ):
            ensure_finite(name, getattr(self, name))

    # -- derived quantities -------------------------------------------------

    @property
    def frame_period_ms(self) -> float:
        """Inter-frame period ``1/n_fps`` in milliseconds."""
        return units.hz_to_period_ms(self.frame_rate_fps)

    @property
    def raw_frame_size_mb(self) -> float:
        """Raw YUV frame data size ``delta_f1`` (MB)."""
        return units.yuv_frame_size_mb(self.frame_side_px)

    @property
    def virtual_scene_data_mb(self) -> float:
        """Volumetric payload ``delta_vol`` (MB): point cloud plus scene raster."""
        return self.point_cloud_mb + units.rgb_frame_size_mb(self.virtual_scene_side_px)

    @property
    def encoded_frame_size_mb(self) -> float:
        """Encoded frame data size ``delta_f3`` (MB)."""
        return self.encoder.encoded_frame_size_mb(self.frame_side_px)

    def converted_frame_size_mb(self, converted_side_px: float) -> float:
        """Converted RGB frame data size ``delta_f2`` (MB) for a given side."""
        return units.rgb_frame_size_mb(converted_side_px)

    # -- convenience constructors / transformers ----------------------------

    @classmethod
    def object_detection_default(cls) -> "ApplicationConfig":
        """The default object-detection pipeline used in the paper's evaluation."""
        return cls()

    def with_frame_side(self, frame_side_px: float) -> "ApplicationConfig":
        """Return a copy with a different captured frame size."""
        return replace(self, frame_side_px=frame_side_px)

    def with_cpu_freq(self, cpu_freq_ghz: float) -> "ApplicationConfig":
        """Return a copy with a different CPU clock frequency."""
        return replace(self, cpu_freq_ghz=cpu_freq_ghz)

    def with_mode(self, mode: ExecutionMode) -> "ApplicationConfig":
        """Return a copy running inference in the given execution mode."""
        if mode is ExecutionMode.LOCAL:
            inference = replace(
                self.inference, mode=mode, omega_client=1.0, edge_shares=()
            )
        elif mode is ExecutionMode.REMOTE:
            inference = replace(
                self.inference, mode=mode, omega_client=0.0, edge_shares=(self.inference.total_task,)
            )
        else:
            inference = replace(self.inference, mode=mode)
        return replace(self, inference=inference)
