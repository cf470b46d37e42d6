"""Result containers returned by the analytical models.

All breakdowns are per-frame quantities: milliseconds for latency,
millijoules for energy.  Segments that execute in parallel with the critical
path (e.g. XR cooperation by default) are reported in the breakdown but
excluded from the totals; :attr:`LatencyBreakdown.included_segments` records
which segments the total sums over, so the composition of Eq. (1)/(19) is
always inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional

from repro.config.application import ExecutionMode
from repro.core.segments import Segment, billed_sum


def _format_table(rows, headers) -> str:
    """Minimal fixed-width table renderer for summaries."""
    widths = [len(h) for h in headers]
    text_rows = []
    for row in rows:
        text_row = [str(cell) for cell in row]
        widths = [max(w, len(cell)) for w, cell in zip(widths, text_row)]
        text_rows.append(text_row)
    def render(row):
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in text_rows)
    return "\n".join(lines)


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-segment latency of one frame (Eq. 1).

    Attributes:
        per_segment_ms: latency of every evaluated segment (including the
            segments excluded from the total, e.g. parallel cooperation).
        included_segments: segments whose latency sums into :attr:`total_ms`.
        mode: where inference executed for this frame.
        client_compute: the ``c_client`` value used (diagnostic).
        edge_compute: the ``c_epsilon`` value used (diagnostic; None for
            purely local execution).
    """

    per_segment_ms: Mapping[Segment, float]
    included_segments: FrozenSet[Segment]
    mode: ExecutionMode
    client_compute: float
    edge_compute: Optional[float] = None

    def __post_init__(self) -> None:
        for segment, value in self.per_segment_ms.items():
            if value < 0.0:
                raise ValueError(f"segment {segment} has negative latency {value}")

    @property
    def total_ms(self) -> float:
        """End-to-end latency ``L_tot`` (Eq. 1)."""
        return billed_sum(self.per_segment_ms, self.included_segments)

    def segment_ms(self, segment: Segment) -> float:
        """Latency of one segment (0.0 when the segment was not evaluated)."""
        return float(self.per_segment_ms.get(segment, 0.0))

    def summary(self) -> str:
        """Fixed-width text table of the breakdown."""
        rows = []
        for segment in Segment:
            if segment not in self.per_segment_ms:
                continue
            included = "yes" if segment in self.included_segments else "parallel"
            rows.append(
                (segment.value, f"{self.per_segment_ms[segment]:.2f}", included)
            )
        rows.append(("TOTAL", f"{self.total_ms:.2f}", ""))
        return _format_table(rows, headers=("segment", "latency (ms)", "in total"))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-segment energy of one frame (Eq. 19).

    Attributes:
        per_segment_mj: energy of every evaluated segment.
        included_segments: segments whose energy sums into the total.
        thermal_mj: thermal conversion term ``E_theta``.
        base_mj: base energy term ``E_base``.
        mode: where inference executed.
        mean_power_w: the ``P_mean`` value used (diagnostic).
    """

    per_segment_mj: Mapping[Segment, float]
    included_segments: FrozenSet[Segment]
    thermal_mj: float
    base_mj: float
    mode: ExecutionMode
    mean_power_w: float

    def __post_init__(self) -> None:
        for segment, value in self.per_segment_mj.items():
            if value < 0.0:
                raise ValueError(f"segment {segment} has negative energy {value}")
        if self.thermal_mj < 0.0 or self.base_mj < 0.0:
            raise ValueError("thermal and base energy must be >= 0")

    @property
    def segment_total_mj(self) -> float:
        """Energy of the included pipeline segments (without thermal/base)."""
        return billed_sum(self.per_segment_mj, self.included_segments)

    @property
    def total_mj(self) -> float:
        """End-to-end energy ``E_tot`` (Eq. 19) including thermal and base terms."""
        return self.segment_total_mj + self.thermal_mj + self.base_mj

    def summary(self) -> str:
        """Fixed-width text table of the breakdown."""
        rows = []
        for segment in Segment:
            if segment not in self.per_segment_mj:
                continue
            included = "yes" if segment in self.included_segments else "parallel"
            rows.append((segment.value, f"{self.per_segment_mj[segment]:.2f}", included))
        rows.append(("thermal (E_theta)", f"{self.thermal_mj:.2f}", "yes"))
        rows.append(("base (E_base)", f"{self.base_mj:.2f}", "yes"))
        rows.append(("TOTAL", f"{self.total_mj:.2f}", ""))
        return _format_table(rows, headers=("segment", "energy (mJ)", "in total"))


@dataclass(frozen=True)
class PerformanceReport:
    """Combined per-frame performance analysis of an XR application.

    Attributes:
        latency: the latency breakdown (Eq. 1).
        energy: the energy breakdown (Eq. 19).
        aoi: optional AoI analysis (Section VI) when sensors are configured.
        device_name: XR device the analysis was performed for.
        edge_name: edge server involved (None for purely local execution).
    """

    latency: "LatencyBreakdown"
    energy: "EnergyBreakdown"
    aoi: Optional[object] = None
    device_name: str = ""
    edge_name: Optional[str] = None

    @property
    def total_latency_ms(self) -> float:
        """End-to-end latency of the analysed frame."""
        return self.latency.total_ms

    @property
    def total_energy_mj(self) -> float:
        """End-to-end energy of the analysed frame."""
        return self.energy.total_mj

    def summary(self) -> str:
        """Multi-section text summary (latency table, energy table, AoI)."""
        sections = [
            f"XR performance report — device={self.device_name or 'n/a'}, "
            f"edge={self.edge_name or 'n/a'}, mode={self.latency.mode.value}",
            "",
            "Latency (ms):",
            self.latency.summary(),
            "",
            "Energy (mJ):",
            self.energy.summary(),
        ]
        if self.aoi is not None:
            sections.extend(["", "Age-of-Information:", str(self.aoi)])
        return "\n".join(sections)
