"""End-to-end energy consumption analysis model (Section V, Eqs. 19-21).

The energy of each pipeline segment is the integral of the segment's power
draw over its latency (Eq. 20); with the per-segment mean powers of the
power model this reduces to ``power x latency`` per segment.  On top of the
segment energies the model adds the thermal conversion term ``E_theta``
(a fraction of the computation energy) and the base energy ``E_base``
(always-on background power over the whole frame latency).

:func:`frame_totals` composes Eqs. (1) and (19) from per-segment values;
the scalar model calls it with floats and the batch engine with arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Mapping, NamedTuple, Optional

from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.core.latency import XRLatencyModel
from repro.core.numeric import ArrayLike
from repro.core.power import PowerModel
from repro.core.results import EnergyBreakdown, LatencyBreakdown
from repro.core.segments import COMPUTE_SEGMENTS, Segment, billed_sum


class FrameTotals(NamedTuple):
    """The totals of Eqs. (1) and (19), floats or arrays like their inputs."""

    total_latency_ms: ArrayLike
    thermal_mj: ArrayLike
    base_mj: ArrayLike
    total_energy_mj: ArrayLike


def frame_totals(
    latency_ms: Mapping[Segment, ArrayLike],
    energy_mj: Mapping[Segment, ArrayLike],
    billed: AbstractSet[Segment],
    thermal_fraction: ArrayLike,
    base_power_w: ArrayLike,
) -> FrameTotals:
    """End-to-end latency (Eq. 1) and energy (Eq. 19) of per-segment values.

    ``E_theta`` is the thermal fraction of the billed computation energy and
    ``E_base`` the base power over the end-to-end latency.  Every sum is a
    :func:`~repro.core.segments.billed_sum`, as in the breakdowns' totals.
    """
    total_latency = billed_sum(latency_ms, billed)
    thermal = thermal_fraction * billed_sum(energy_mj, billed & COMPUTE_SEGMENTS)
    base = base_power_w * total_latency
    return FrameTotals(
        total_latency_ms=total_latency,
        thermal_mj=thermal,
        base_mj=base,
        total_energy_mj=billed_sum(energy_mj, billed) + thermal + base,
    )


@dataclass
class XREnergyModel:
    """Analytical per-frame energy model of the XR pipeline.

    Attributes:
        latency_model: the latency model supplying per-segment latencies.
        power_model: the power model supplying per-segment power draws.
    """

    latency_model: XRLatencyModel
    power_model: PowerModel

    # -- per-segment energy -------------------------------------------------------

    def segment_energy_mj(
        self,
        segment: Segment,
        latency_ms: float,
        mean_power_w: float,
        network: NetworkConfig,
    ) -> float:
        """Energy (mJ) of one segment given its latency (the Eq. 20 integrand)."""
        return self.power_model.segment_power_w(segment, mean_power_w, network) * latency_ms

    # -- end-to-end ----------------------------------------------------------------

    def from_latency_breakdown(
        self,
        breakdown: LatencyBreakdown,
        app: ApplicationConfig,
        network: NetworkConfig,
    ) -> EnergyBreakdown:
        """Energy breakdown corresponding to an existing latency breakdown.

        The remote-inference latency is spent waiting for the edge server, so
        the XR device only draws its (low) remote-inference power factor
        during it; the edge server's own energy is not billed to the device,
        matching the paper's device-centric energy model.
        """
        mean_power = self.power_model.mean_power_for(app)
        per_segment: Dict[Segment, float] = {
            segment: self.segment_energy_mj(segment, latency_ms, mean_power, network)
            for segment, latency_ms in breakdown.per_segment_ms.items()
        }
        device = self.power_model.device
        totals = frame_totals(
            breakdown.per_segment_ms,
            per_segment,
            breakdown.included_segments,
            device.thermal_fraction,
            device.base_power_w,
        )
        return EnergyBreakdown(
            per_segment_mj=per_segment,
            included_segments=breakdown.included_segments,
            thermal_mj=totals.thermal_mj,
            base_mj=totals.base_mj,
            mode=breakdown.mode,
            mean_power_w=mean_power,
        )

    def end_to_end(
        self, app: ApplicationConfig, network: Optional[NetworkConfig] = None
    ) -> EnergyBreakdown:
        """Evaluate the full per-frame energy breakdown (Eq. 19)."""
        if network is None:
            network = NetworkConfig()
        latency = self.latency_model.end_to_end(app, network)
        return self.from_latency_breakdown(latency, app, network)
