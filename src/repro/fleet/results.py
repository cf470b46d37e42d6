"""Result containers for fleet-scale analyses.

A fleet analysis produces one :class:`UserOutcome` per user — the single-user
performance report of :mod:`repro.core` augmented with the multi-tenant
effects (contended throughput, edge queueing delay, admission decision) —
and aggregates them into a :class:`FleetReport` with the latency percentiles
and energy totals a capacity planner consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import PerformanceReport


def percentile_method(latencies: np.ndarray) -> str:
    """The ``np.percentile`` method for latencies a saturated edge can make infinite.

    Linear interpolation between an infinite and a finite order statistic
    gives inf - inf = nan, so any infinite sample switches to the order
    statistics (``"lower"``); all-finite samples keep NumPy's default
    ``"linear"``.
    """
    return "linear" if np.isfinite(latencies).all() else "lower"


@dataclass(frozen=True)
class UserOutcome:
    """Fleet-adjusted per-frame performance of one user.

    Attributes:
        user: user identifier from the population.
        device: XR device name.
        mode: where the user's inference executed (``"local"`` etc.) after
            admission control.
        offloaded: whether the user transmits frames to the edge tier.
        edge_index: index of the edge server serving the user (None for
            purely local users).
        throughput_mbps: per-user wireless throughput after contention.
        edge_wait_ms: queueing delay at the shared edge GPU caused by the
            other tenants (0 for local users and single-tenant edges).
        latency_ms: end-to-end motion-to-photon latency including
            ``edge_wait_ms``; ``inf`` when the user's edge is overloaded.
        energy_mj: per-frame device energy including the radio-idle energy
            spent waiting for the contended edge.
        report: the underlying single-user performance report.
        aoi_fresh_fraction: fraction of sensors whose information stays fresh
            (RoI >= 1), or None when AoI was not analysed.
    """

    user: str
    device: str
    mode: str
    offloaded: bool
    edge_index: Optional[int]
    throughput_mbps: float
    edge_wait_ms: float
    latency_ms: float
    energy_mj: float
    report: Optional[PerformanceReport] = field(default=None, repr=False, compare=False)
    aoi_fresh_fraction: Optional[float] = None

    def meets_slo(self, slo_ms: float) -> bool:
        """Whether the user's latency meets a motion-to-photon SLO."""
        return self.latency_ms <= slo_ms


@dataclass(frozen=True)
class FleetReport:
    """Aggregate performance of a user fleet sharing one wireless channel.

    Attributes:
        outcomes: per-user outcomes in population order.
        p50_latency_ms / p95_latency_ms / p99_latency_ms: latency percentiles
            across the fleet (linear interpolation).
        mean_latency_ms: mean per-user latency.
        total_energy_mj: aggregate per-frame energy across all devices.
        mean_energy_mj: mean per-frame energy per device.
        edge_utilizations: utilisation of every edge server in index order.
        slo_ms: the SLO the fleet was analysed against (None when unset).
        slo_violations: number of users missing the SLO (0 when unset).
        availability: fraction of the edge pool's nominal capacity available
            during the analysis (1.0 absent fault injection).
        n_edges_alive: edges still in the pool under the analysed fault
            state (None absent fault injection).
        fault_forced_local: offload-preferring users forced to run locally
            because no edge was alive.
    """

    outcomes: Tuple[UserOutcome, ...]
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    mean_latency_ms: float
    total_energy_mj: float
    mean_energy_mj: float
    edge_utilizations: Tuple[float, ...] = ()
    slo_ms: Optional[float] = None
    slo_violations: int = 0
    availability: float = 1.0
    n_edges_alive: Optional[int] = None
    fault_forced_local: int = 0

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Sequence[UserOutcome],
        edge_utilizations: Sequence[float] = (),
        slo_ms: Optional[float] = None,
        availability: float = 1.0,
        n_edges_alive: Optional[int] = None,
        fault_forced_local: int = 0,
    ) -> "FleetReport":
        """Aggregate per-user outcomes into a fleet report.

        An empty outcome sequence (e.g. admission rejected every user, or an
        all-rejected subset is being summarised) yields a well-defined report
        with NaN percentiles rather than an exception from inside NumPy's
        percentile machinery; ``meets_slo`` is False for such a report
        because no latency evidence exists to show the SLO is met.
        """
        if not outcomes:
            return cls(
                outcomes=(),
                p50_latency_ms=math.nan,
                p95_latency_ms=math.nan,
                p99_latency_ms=math.nan,
                mean_latency_ms=math.nan,
                total_energy_mj=0.0,
                mean_energy_mj=math.nan,
                edge_utilizations=tuple(float(rho) for rho in edge_utilizations),
                slo_ms=slo_ms,
                slo_violations=0,
                availability=availability,
                n_edges_alive=n_edges_alive,
                fault_forced_local=fault_forced_local,
            )
        latencies = np.asarray([outcome.latency_ms for outcome in outcomes], dtype=float)
        energies = np.asarray([outcome.energy_mj for outcome in outcomes], dtype=float)
        method = percentile_method(latencies)
        p50, p95, p99 = (
            float(np.percentile(latencies, q, method=method)) for q in (50, 95, 99)
        )
        mean_latency = float(np.mean(latencies))
        violations = 0
        if slo_ms is not None:
            violations = int(sum(1 for outcome in outcomes if not outcome.meets_slo(slo_ms)))
        return cls(
            outcomes=tuple(outcomes),
            p50_latency_ms=p50,
            p95_latency_ms=p95,
            p99_latency_ms=p99,
            mean_latency_ms=mean_latency,
            total_energy_mj=float(np.sum(energies)),
            mean_energy_mj=float(np.mean(energies)),
            edge_utilizations=tuple(float(rho) for rho in edge_utilizations),
            slo_ms=slo_ms,
            slo_violations=violations,
            availability=availability,
            n_edges_alive=n_edges_alive,
            fault_forced_local=fault_forced_local,
        )

    # -- derived quantities -------------------------------------------------

    @property
    def n_users(self) -> int:
        """Number of users in the fleet."""
        return len(self.outcomes)

    @property
    def n_offloaded(self) -> int:
        """Number of users transmitting frames to the edge tier."""
        return sum(1 for outcome in self.outcomes if outcome.offloaded)

    @property
    def device_counts(self) -> Dict[str, int]:
        """Number of users per device model."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.device] = counts.get(outcome.device, 0) + 1
        return counts

    def meets_slo(self, slo_ms: Optional[float] = None) -> bool:
        """Whether the fleet's p95 latency meets the (given or stored) SLO.

        An empty report (no outcomes) has NaN percentiles and therefore
        never meets an SLO.
        """
        slo = slo_ms if slo_ms is not None else self.slo_ms
        if slo is None:
            raise ValueError("no SLO given and none stored on the report")
        return self.p95_latency_ms <= slo

    def summary(self) -> str:
        """Multi-line text summary of the fleet analysis."""
        devices = ", ".join(
            f"{count}x {name}" for name, count in sorted(self.device_counts.items())
        )
        lines = [
            f"Fleet performance report — {self.n_users} users ({devices}), "
            f"{self.n_offloaded} offloading",
            "",
            "Latency (motion-to-photon, ms):",
            f"  p50: {self.p50_latency_ms:.2f}",
            f"  p95: {self.p95_latency_ms:.2f}",
            f"  p99: {self.p99_latency_ms:.2f}",
            f"  mean: {self.mean_latency_ms:.2f}",
            "",
            "Energy (per frame, mJ):",
            f"  fleet total: {self.total_energy_mj:.1f}",
            f"  per device:  {self.mean_energy_mj:.1f}",
        ]
        if self.edge_utilizations:
            utilizations = ", ".join(
                f"{rho:.2f}" + (" (saturated)" if rho >= 1.0 else "")
                for rho in self.edge_utilizations
            )
            lines.extend(["", f"Edge load (rho): {utilizations}"])
        if self.availability != 1.0 or self.fault_forced_local:
            alive = (
                f"{self.n_edges_alive} edge(s) alive, "
                if self.n_edges_alive is not None
                else ""
            )
            lines.extend(
                [
                    "",
                    f"Faults: {alive}availability "
                    f"{self.availability * 100.0:.0f}%, "
                    f"{self.fault_forced_local} user(s) forced local",
                ]
            )
        if self.slo_ms is not None:
            lines.extend(
                [
                    "",
                    f"SLO ({self.slo_ms:.0f} ms p95): "
                    f"{'met' if self.meets_slo() else 'MISSED'} "
                    f"({self.slo_violations} of {self.n_users} users over)",
                ]
            )
        return "\n".join(lines)
