"""Structure-of-arrays results of a batch evaluation.

A :class:`BatchResult` holds one NumPy array per metric over all evaluated
operating points — no per-point Python objects are constructed during
evaluation.  Named-metric accessors (:attr:`~BatchResult.total_latency_ms`,
:attr:`~BatchResult.total_energy_mj`, :meth:`~BatchResult.segment_latency_ms`,
:meth:`~BatchResult.metric`) expose the arrays directly; any single index can
be lifted back into the scalar result objects
(:meth:`~BatchResult.report_at` returns the exact
:class:`~repro.core.results.PerformanceReport` the scalar
``XRPerformanceModel.analyze`` would have produced for that point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.config.application import ExecutionMode
from repro.core.aoi import AoIResult
from repro.core.results import EnergyBreakdown, LatencyBreakdown, PerformanceReport
from repro.core.segments import Segment


@dataclass(frozen=True)
class GroupAoI:
    """Vectorized AoI results of one evaluation group (one array per sensor).

    Attributes:
        sensor_names: sensor identifiers in network order.
        average_aoi_ms: per-sensor mean AoI arrays (Eq. 24).
        roi: per-sensor RoI arrays (Eq. 26).
        processed_frequency_hz: per-sensor processed frequency arrays (Eq. 25).
        required_frequency_hz: per-point required frequency ``f_req``.
        buffer_time_ms: the (point-independent) M/M/1 buffer time ``T̄``.
    """

    sensor_names: Tuple[str, ...]
    average_aoi_ms: Mapping[str, np.ndarray]
    roi: Mapping[str, np.ndarray]
    processed_frequency_hz: Mapping[str, np.ndarray]
    required_frequency_hz: np.ndarray
    buffer_time_ms: float


@dataclass(frozen=True)
class GroupResult:
    """Arrays of one evaluation group (shared device / mode / structure).

    All arrays have one entry per point of the group, in group-local order;
    :attr:`positions` maps group-local indices to global result indices.

    Attributes:
        device_name: device the group was evaluated for.
        edge_name: edge server involved (None for local-only analyses).
        mode: inference execution mode of the group.
        included_segments: segments summed into the end-to-end totals.
        latency_segments_ms: per-segment latency arrays, in the scalar
            model's segment insertion order (which fixes the floating-point
            summation order of the totals).
        energy_segments_mj: per-segment energy arrays, same order.
        total_latency_ms: end-to-end latency ``L_tot`` (Eq. 1).
        thermal_mj / base_mj: the ``E_theta`` and ``E_base`` energy terms.
        total_energy_mj: end-to-end energy ``E_tot`` (Eq. 19).
        client_compute: the ``c_client`` values used.
        edge_compute: the ``c_epsilon`` values used (None when local-only).
        mean_power_w: the ``P_mean`` values used.
        positions: global result indices of the group's points.
        aoi: vectorized AoI results (None when AoI was not evaluated).
    """

    device_name: str
    edge_name: Optional[str]
    mode: ExecutionMode
    included_segments: frozenset
    latency_segments_ms: Mapping[Segment, np.ndarray]
    energy_segments_mj: Mapping[Segment, np.ndarray]
    total_latency_ms: np.ndarray
    thermal_mj: np.ndarray
    base_mj: np.ndarray
    total_energy_mj: np.ndarray
    client_compute: np.ndarray
    edge_compute: Optional[np.ndarray]
    mean_power_w: np.ndarray
    positions: np.ndarray
    aoi: Optional[GroupAoI] = None

    @property
    def n_points(self) -> int:
        """Number of operating points in the group."""
        return int(self.total_latency_ms.shape[0])


class BatchResult:
    """Vectorized evaluation results over a set of operating points.

    Args:
        groups: per-structure group results whose ``positions`` partition
            ``range(n_points)``.
        n_points: total number of evaluated points.
        coords: optional named per-point coordinate arrays (e.g. the numeric
            grid axes), aligned with the global point order.
    """

    def __init__(
        self,
        groups: List[GroupResult],
        n_points: int,
        coords: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.groups = list(groups)
        self._n_points = int(n_points)
        self.coords: Dict[str, np.ndarray] = dict(coords or {})
        # point -> (group, group-local index) lookup for report_at().
        self._group_of = np.empty(self._n_points, dtype=np.intp)
        self._local_of = np.empty(self._n_points, dtype=np.intp)
        for group_id, group in enumerate(self.groups):
            self._group_of[group.positions] = group_id
            self._local_of[group.positions] = np.arange(group.n_points)

    def __len__(self) -> int:
        return self._n_points

    @property
    def n_points(self) -> int:
        """Number of evaluated operating points."""
        return self._n_points

    # -- array accessors -----------------------------------------------------

    def _assemble(self, per_group) -> np.ndarray:
        out = np.empty(self._n_points, dtype=float)
        for group in self.groups:
            out[group.positions] = per_group(group)
        return out

    @property
    def total_latency_ms(self) -> np.ndarray:
        """End-to-end latency ``L_tot`` per point (Eq. 1)."""
        return self._assemble(lambda group: group.total_latency_ms)

    @property
    def total_energy_mj(self) -> np.ndarray:
        """End-to-end energy ``E_tot`` per point (Eq. 19)."""
        return self._assemble(lambda group: group.total_energy_mj)

    def segment_latency_ms(self, segment: Segment) -> np.ndarray:
        """Latency of one segment per point (0.0 where the segment is absent)."""
        return self._assemble(
            lambda group: group.latency_segments_ms.get(
                segment, np.zeros(group.n_points)
            )
        )

    def metric(self, name: str) -> np.ndarray:
        """Named metric array: ``"latency"`` (ms) or ``"energy"`` (mJ)."""
        if name == "latency":
            return self.total_latency_ms
        if name == "energy":
            return self.total_energy_mj
        raise KeyError(f"unknown metric {name!r}; available: latency, energy")

    # -- scalar-object views ---------------------------------------------------

    def _locate(self, index: int) -> Tuple[GroupResult, int]:
        if not -self._n_points <= index < self._n_points:
            raise IndexError(
                f"point index {index} out of range for {self._n_points} points"
            )
        if index < 0:
            index += self._n_points
        group = self.groups[self._group_of[index]]
        return group, int(self._local_of[index])

    def latency_at(self, index: int) -> LatencyBreakdown:
        """The scalar latency breakdown of one point."""
        group, local = self._locate(index)
        per_segment = {
            segment: float(values[local])
            for segment, values in group.latency_segments_ms.items()
        }
        edge_compute = (
            float(group.edge_compute[local]) if group.edge_compute is not None else None
        )
        return LatencyBreakdown(
            per_segment_ms=per_segment,
            included_segments=group.included_segments,
            mode=group.mode,
            client_compute=float(group.client_compute[local]),
            edge_compute=edge_compute,
        )

    def energy_at(self, index: int) -> EnergyBreakdown:
        """The scalar energy breakdown of one point."""
        group, local = self._locate(index)
        per_segment = {
            segment: float(values[local])
            for segment, values in group.energy_segments_mj.items()
        }
        return EnergyBreakdown(
            per_segment_mj=per_segment,
            included_segments=group.included_segments,
            thermal_mj=float(group.thermal_mj[local]),
            base_mj=float(group.base_mj[local]),
            mode=group.mode,
            mean_power_w=float(group.mean_power_w[local]),
        )

    def aoi_at(self, index: int) -> Optional[AoIResult]:
        """The scalar AoI result of one point (None when AoI was skipped)."""
        group, local = self._locate(index)
        if group.aoi is None:
            return None
        aoi = group.aoi
        return AoIResult(
            average_aoi_ms={
                name: float(aoi.average_aoi_ms[name][local]) for name in aoi.sensor_names
            },
            roi={name: float(aoi.roi[name][local]) for name in aoi.sensor_names},
            processed_frequency_hz={
                name: float(aoi.processed_frequency_hz[name][local])
                for name in aoi.sensor_names
            },
            required_frequency_hz=float(aoi.required_frequency_hz[local]),
            buffer_time_ms=aoi.buffer_time_ms,
        )

    def report_at(self, index: int) -> PerformanceReport:
        """The full scalar performance report of one point.

        Bit-compatible with ``XRPerformanceModel.analyze`` at the same
        operating point.
        """
        group, _ = self._locate(index)
        return PerformanceReport(
            latency=self.latency_at(index),
            energy=self.energy_at(index),
            aoi=self.aoi_at(index),
            device_name=group.device_name,
            edge_name=group.edge_name,
        )
