"""CNN model descriptor.

A :class:`CNNModel` captures exactly the attributes the paper's performance
models consume (Table II columns plus the nominal input resolution, which
determines the converted frame size ``s_f2`` fed to local inference).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.validation import ensure_non_negative, ensure_positive


@dataclass(frozen=True)
class CNNModel:
    """Descriptor of one convolutional neural network.

    Attributes:
        name: model name as listed in Table II (e.g. ``"MobileNetv2_300 Float"``).
        depth: number of layers (``d_CNN``).
        size_mb: storage space occupied on device memory (``s_CNN``).
        gpu_support: whether the model can run on the device GPU.
        quantized: whether the weights are integer-quantised.
        depth_scale: depth-scaling factor (``d_scale``); 1.0 for models
            without compound/depth scaling, e.g. 1.5 for YOLOv7 as in Table II.
        input_side_px: nominal square input resolution of the network; used
            to derive the converted frame size ``s_f2``.
        tier: ``"lightweight"`` for on-device models, ``"server"`` for the
            large models deployed on the edge tier.
    """

    name: str
    depth: int
    size_mb: float
    gpu_support: bool = True
    quantized: bool = False
    depth_scale: float = 1.0
    input_side_px: float = 300.0
    tier: str = "lightweight"

    def __post_init__(self) -> None:
        ensure_positive("depth", self.depth)
        ensure_positive("size_mb", self.size_mb)
        ensure_positive("depth_scale", self.depth_scale)
        ensure_positive("input_side_px", self.input_side_px)
        ensure_non_negative("depth", self.depth)
        if self.tier not in {"lightweight", "server"}:
            raise ValueError(f"tier must be 'lightweight' or 'server', got {self.tier!r}")

    def describe(self) -> str:
        """One-line human-readable description used by the report generator."""
        quant = "quantized" if self.quantized else "float"
        gpu = "GPU" if self.gpu_support else "CPU-only"
        return (
            f"{self.name}: {self.depth} layers, {self.size_mb:.1f} MB, {quant}, {gpu}, "
            f"input {self.input_side_px:.0f}px, depth-scale {self.depth_scale:g}"
        )
