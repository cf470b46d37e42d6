"""Per-frame trace containers produced by the simulated testbed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping

import numpy as np

from repro.core.segments import Segment
from repro.exceptions import SimulationError


@dataclass(frozen=True)
class FrameTrace:
    """Measured quantities of one simulated frame.

    Attributes:
        frame_index: zero-based frame number within the run.
        segment_latency_ms: measured latency of each executed segment.
        segment_energy_mj: measured energy of each executed segment.
        thermal_mj: thermal conversion energy of the frame.
        base_mj: base energy accumulated over the frame.
        handoff_occurred: whether a handoff was triggered during the frame.
        buffer_delay_ms: measured input-buffer delay of the frame.
    """

    frame_index: int
    segment_latency_ms: Mapping[Segment, float]
    segment_energy_mj: Mapping[Segment, float]
    thermal_mj: float
    base_mj: float
    handoff_occurred: bool = False
    buffer_delay_ms: float = 0.0

    @property
    def total_latency_ms(self) -> float:
        """End-to-end latency of the frame."""
        return float(sum(self.segment_latency_ms.values()))

    @property
    def total_energy_mj(self) -> float:
        """End-to-end energy of the frame (segments + thermal + base)."""
        return float(sum(self.segment_energy_mj.values())) + self.thermal_mj + self.base_mj


class RunTrace:
    """A collection of frame traces from one simulated run."""

    def __init__(self, frames: Iterable[FrameTrace]) -> None:
        self._frames: List[FrameTrace] = list(frames)
        if not self._frames:
            raise SimulationError("a run trace must contain at least one frame")

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self):
        return iter(self._frames)

    @property
    def frames(self) -> List[FrameTrace]:
        """All frame traces in order."""
        return list(self._frames)

    # -- aggregates ---------------------------------------------------------------

    @property
    def latencies_ms(self) -> np.ndarray:
        """Per-frame end-to-end latencies."""
        return np.array([frame.total_latency_ms for frame in self._frames], dtype=float)

    @property
    def energies_mj(self) -> np.ndarray:
        """Per-frame end-to-end energies."""
        return np.array([frame.total_energy_mj for frame in self._frames], dtype=float)

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency across frames."""
        return float(np.mean(self.latencies_ms))

    @property
    def mean_energy_mj(self) -> float:
        """Mean end-to-end energy across frames."""
        return float(np.mean(self.energies_mj))

    def mean_segment_latency_ms(self) -> Dict[Segment, float]:
        """Mean latency of each segment across frames (0 for absent segments)."""
        totals: Dict[Segment, float] = {}
        counts: Dict[Segment, int] = {}
        for frame in self._frames:
            for segment, value in frame.segment_latency_ms.items():
                totals[segment] = totals.get(segment, 0.0) + value
                counts[segment] = counts.get(segment, 0) + 1
        return {segment: totals[segment] / counts[segment] for segment in totals}

    def mean_segment_energy_mj(self) -> Dict[Segment, float]:
        """Mean energy of each segment across frames."""
        totals: Dict[Segment, float] = {}
        counts: Dict[Segment, int] = {}
        for frame in self._frames:
            for segment, value in frame.segment_energy_mj.items():
                totals[segment] = totals.get(segment, 0.0) + value
                counts[segment] = counts.get(segment, 0) + 1
        return {segment: totals[segment] / counts[segment] for segment in totals}
