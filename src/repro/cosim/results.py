"""Result containers for the closed-loop fleet x adaptive co-simulation.

A co-simulation run produces one :class:`~repro.adaptive.runtime
.AdaptationReport` per *equivalence class* (users sharing device,
application, controller and condition trace behave identically, so one
class-level timeline stands for all of them) plus fleet-level aggregates the
class reports cannot express: per-epoch latency percentiles across users,
the offload fraction the feedback loop settled on, edge utilisation, and
the per-epoch convergence diagnostics of the best-response iteration.

Degeneracies (asserted by the test suite):

* with a single user the sole class report **is** the single-user
  :class:`AdaptationReport` the :class:`~repro.adaptive.runtime
  .AdaptiveRuntime` would have produced, field for field;
* with every controller a :class:`~repro.adaptive.controllers
  .StaticBaseline` pinned to the users' own operating point, the per-epoch
  fleet aggregates equal :meth:`repro.fleet.analyzer.FleetAnalyzer.analyze`
  bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.adaptive.runtime import AdaptationReport
from repro.faults.report import FaultOutcome


@dataclass(frozen=True)
class CosimReport:
    """Aggregate outcome of one closed-loop co-simulation run.

    All per-epoch and per-user series are tuples, so two runs from identical
    inputs compare equal bit for bit (the determinism contract the tests
    assert).

    Attributes:
        n_users / n_epochs / epoch_ms / deadline_ms / n_edges: run geometry.
        max_iterations: per-epoch best-response iteration budget.
        class_names: one label per equivalence class, in discovery order.
        class_sizes: number of users per class.
        class_reports: per-class adaptation reports; the per-epoch latency
            and energy of a class are the means over its users (exact when
            the class occupies a single edge — always at ``N == 1``).
        converged: per epoch, whether the best-response iteration reached a
            fixed point within ``max_iterations``.
        iterations: best-response iterations spent per epoch.
        offload_fraction: per epoch, fraction of users whose chosen
            operating point offloads.
        miss_fraction: per epoch, fraction of users over the deadline.
        p50_latency_ms / p95_latency_ms / p99_latency_ms: per-epoch latency
            percentiles across users (linear interpolation; order statistics
            when an edge is saturated, like :class:`repro.fleet.results
            .FleetReport`).
        mean_latency_ms: per-epoch mean per-user latency.
        total_energy_mj / mean_energy_mj: per-epoch per-frame device energy
            across / per user.
        mean_quality: per-epoch mean inference-quality proxy across users.
        max_edge_utilization: per-epoch maximum edge-server utilisation.
        user_names: user identifiers in population order.
        user_miss_rate: per-user fraction of epochs over the deadline.
        user_mean_latency_ms: per-user mean latency over the run.
        user_energy_j: per-user device energy integrated over all frames.
        user_switch_count: per-user operating-point switches.
        deadline_miss_rate: fraction of (user, epoch) samples over the
            deadline.
        fleet_p50_latency_ms / fleet_p95_latency_ms / fleet_p99_latency_ms:
            latency percentiles over all (user, epoch) samples (plain linear
            interpolation, matching :class:`AdaptationReport` so the
            single-user degeneracy holds).
        total_energy_j: fleet energy integrated over all frames of the run.
        mean_quality_overall: mean quality over all (user, epoch) samples.
        switch_count: total operating-point switches across all users.
        epoch_availability: per-epoch edge-pool capacity fraction (all ones
            when no fault schedule was active; empty on reports predating
            fault injection).
        faults: fault-conditioned recovery summary, or ``None`` when the
            run had no fault schedule.
    """

    n_users: int
    n_epochs: int
    epoch_ms: float
    deadline_ms: float
    n_edges: int
    max_iterations: int
    class_names: Tuple[str, ...]
    class_sizes: Tuple[int, ...]
    class_reports: Tuple[AdaptationReport, ...]
    converged: Tuple[bool, ...]
    iterations: Tuple[int, ...]
    offload_fraction: Tuple[float, ...]
    miss_fraction: Tuple[float, ...]
    p50_latency_ms: Tuple[float, ...]
    p95_latency_ms: Tuple[float, ...]
    p99_latency_ms: Tuple[float, ...]
    mean_latency_ms: Tuple[float, ...]
    total_energy_mj: Tuple[float, ...]
    mean_energy_mj: Tuple[float, ...]
    mean_quality: Tuple[float, ...]
    max_edge_utilization: Tuple[float, ...]
    user_names: Tuple[str, ...]
    user_miss_rate: Tuple[float, ...]
    user_mean_latency_ms: Tuple[float, ...]
    user_energy_j: Tuple[float, ...]
    user_switch_count: Tuple[int, ...]
    deadline_miss_rate: float
    fleet_p50_latency_ms: float
    fleet_p95_latency_ms: float
    fleet_p99_latency_ms: float
    total_energy_j: float
    mean_quality_overall: float
    switch_count: int
    epoch_availability: Tuple[float, ...] = ()
    faults: Optional[FaultOutcome] = None

    # -- fault diagnostics ----------------------------------------------------

    @property
    def availability(self) -> float:
        """Run-mean edge-pool capacity fraction (1.0 without faults)."""
        if self.faults is not None:
            return self.faults.availability
        if self.epoch_availability:
            return float(np.mean(self.epoch_availability))
        return 1.0

    @property
    def fault_miss_rate(self) -> float:
        """Mean miss fraction over faulted epochs (0.0 without faults)."""
        return self.faults.fault_miss_rate if self.faults is not None else 0.0

    @property
    def fault_epoch_fraction(self) -> float:
        """Fraction of epochs with any fault active (0.0 without faults)."""
        return self.faults.fault_epoch_fraction if self.faults is not None else 0.0

    @property
    def mean_time_to_recover_epochs(self) -> float:
        """Mean epochs-to-recover across fault windows (0.0 without faults)."""
        return (
            self.faults.mean_time_to_recover_epochs
            if self.faults is not None
            else 0.0
        )

    # -- convergence diagnostics ---------------------------------------------

    @property
    def all_converged(self) -> bool:
        """Whether every epoch's best-response iteration reached a fixed point."""
        return all(self.converged)

    @property
    def n_unconverged_epochs(self) -> int:
        """Number of epochs that exhausted the iteration budget."""
        return sum(1 for flag in self.converged if not flag)

    @property
    def convergence_rate(self) -> float:
        """Fraction of epochs whose best response reached a fixed point."""
        if not self.converged:
            return 1.0
        return sum(1 for flag in self.converged if flag) / len(self.converged)

    @property
    def mean_offload_fraction(self) -> float:
        """Run-mean fraction of users on the edge tier."""
        return float(np.mean(self.offload_fraction))

    def summary(self) -> str:
        """Multi-line human-readable summary of the co-simulation."""
        convergence = (
            "all epochs converged"
            if self.all_converged
            else f"{self.n_unconverged_epochs} of {self.n_epochs} epochs did NOT converge"
        )
        lines = [
            f"Co-simulation report — {self.n_users} users in "
            f"{len(self.class_reports)} class(es), {self.n_epochs} epochs x "
            f"{self.epoch_ms:.0f} ms, {self.n_edges} edge server(s)",
            f"  fixed point: {convergence} "
            f"(<= {self.max_iterations} best-response iterations/epoch)",
            f"  deadline ({self.deadline_ms:.0f} ms): "
            f"{self.deadline_miss_rate * 100.0:.1f}% of user-epochs missed",
            f"  latency: p50 {self.fleet_p50_latency_ms:.1f} ms, "
            f"p95 {self.fleet_p95_latency_ms:.1f} ms, "
            f"p99 {self.fleet_p99_latency_ms:.1f} ms",
            f"  offload fraction: {self.mean_offload_fraction * 100.0:.1f}% "
            f"(per-epoch mean), quality {self.mean_quality_overall:.3f}",
            f"  energy: {self.total_energy_j:.1f} J fleet total, "
            f"{self.switch_count} operating-point switches",
        ]
        if self.faults is not None:
            lines.append(f"  {self.faults.summary()}")
        for name, size, report in zip(
            self.class_names, self.class_sizes, self.class_reports
        ):
            lines.append(
                f"  [{name} x{size}] miss {report.deadline_miss_rate * 100.0:.1f}%, "
                f"p95 {report.p95_latency_ms:.1f} ms, "
                f"quality {report.mean_quality:.3f}, "
                f"{report.switch_count} switches"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-able form (used by ``faults run --json`` and replay tests)."""
        return {
            "n_users": self.n_users,
            "n_epochs": self.n_epochs,
            "epoch_ms": self.epoch_ms,
            "deadline_ms": self.deadline_ms,
            "n_edges": self.n_edges,
            "max_iterations": self.max_iterations,
            "class_names": list(self.class_names),
            "class_sizes": list(self.class_sizes),
            "class_reports": [report.to_dict() for report in self.class_reports],
            "converged": list(self.converged),
            "iterations": list(self.iterations),
            "offload_fraction": list(self.offload_fraction),
            "miss_fraction": list(self.miss_fraction),
            "p50_latency_ms": list(self.p50_latency_ms),
            "p95_latency_ms": list(self.p95_latency_ms),
            "p99_latency_ms": list(self.p99_latency_ms),
            "mean_latency_ms": list(self.mean_latency_ms),
            "total_energy_mj": list(self.total_energy_mj),
            "mean_energy_mj": list(self.mean_energy_mj),
            "mean_quality": list(self.mean_quality),
            "max_edge_utilization": list(self.max_edge_utilization),
            "user_names": list(self.user_names),
            "user_miss_rate": list(self.user_miss_rate),
            "user_mean_latency_ms": list(self.user_mean_latency_ms),
            "user_energy_j": list(self.user_energy_j),
            "user_switch_count": list(self.user_switch_count),
            "deadline_miss_rate": self.deadline_miss_rate,
            "fleet_p50_latency_ms": self.fleet_p50_latency_ms,
            "fleet_p95_latency_ms": self.fleet_p95_latency_ms,
            "fleet_p99_latency_ms": self.fleet_p99_latency_ms,
            "total_energy_j": self.total_energy_j,
            "mean_quality_overall": self.mean_quality_overall,
            "switch_count": self.switch_count,
            "epoch_availability": list(self.epoch_availability),
            "faults": self.faults.to_dict() if self.faults is not None else None,
        }


@dataclass(frozen=True)
class ShardedCosimReport:
    """Merged outcome of independent per-cell co-simulation shards.

    Sharding partitions the fleet round-robin into ``n_shards`` independent
    cells (each with its own Wi-Fi channel and edge pool); the shards run in
    a process pool and merge deterministically in shard order.  Latency
    percentiles here are computed over the *per-user mean* latencies — the
    per-sample distributions live in the individual shard reports.

    Attributes:
        shards: the per-cell reports, in shard order.
        n_users: total users across shards.
        deadline_miss_rate: fraction of (user, epoch) samples missing the
            deadline, across all shards.
        fleet_p50_latency_ms / fleet_p95_latency_ms / fleet_p99_latency_ms:
            percentiles of the per-user mean latency across all shards.
        total_energy_j: fleet energy across shards.
        switch_count: total operating-point switches across shards.
        availability: mean per-shard edge-pool capacity fraction (1.0 when
            no shard ran under a fault schedule).
        fault_miss_rate: user-weighted mean miss fraction over faulted
            epochs across shards.
        fault_epoch_fraction: mean fraction of epochs with a fault active.
        mean_time_to_recover_epochs: mean per-shard time-to-recover.
    """

    shards: Tuple[CosimReport, ...]
    n_users: int
    deadline_miss_rate: float
    fleet_p50_latency_ms: float
    fleet_p95_latency_ms: float
    fleet_p99_latency_ms: float
    total_energy_j: float
    switch_count: int
    availability: float = 1.0
    fault_miss_rate: float = 0.0
    fault_epoch_fraction: float = 0.0
    mean_time_to_recover_epochs: float = 0.0

    @classmethod
    def from_shards(cls, shards: Tuple[CosimReport, ...]) -> "ShardedCosimReport":
        """Merge per-cell shard reports (deterministic in shard order)."""
        if not shards:
            raise ValueError("a sharded co-sim report needs at least one shard")
        user_means = np.concatenate(
            [np.asarray(shard.user_mean_latency_ms) for shard in shards]
        )
        user_miss = np.concatenate(
            [np.asarray(shard.user_miss_rate) for shard in shards]
        )
        # Users behind a saturated edge carry infinite means; order
        # statistics avoid inf - inf = nan, matching FleetReport.
        method = "linear" if np.isfinite(user_means).all() else "lower"
        p50, p95, p99 = (
            float(np.percentile(user_means, q, method=method)) for q in (50, 95, 99)
        )
        n_users = sum(shard.n_users for shard in shards)
        return cls(
            shards=tuple(shards),
            n_users=n_users,
            deadline_miss_rate=float(np.mean(user_miss)),
            fleet_p50_latency_ms=p50,
            fleet_p95_latency_ms=p95,
            fleet_p99_latency_ms=p99,
            total_energy_j=float(sum(shard.total_energy_j for shard in shards)),
            switch_count=sum(shard.switch_count for shard in shards),
            availability=float(
                np.mean([shard.availability for shard in shards])
            ),
            fault_miss_rate=float(
                sum(shard.fault_miss_rate * shard.n_users for shard in shards)
                / n_users
            ),
            fault_epoch_fraction=float(
                np.mean([shard.fault_epoch_fraction for shard in shards])
            ),
            mean_time_to_recover_epochs=float(
                np.mean([shard.mean_time_to_recover_epochs for shard in shards])
            ),
        )

    @property
    def n_shards(self) -> int:
        """Number of independent cells."""
        return len(self.shards)

    @property
    def all_converged(self) -> bool:
        """Whether every epoch of every shard reached a fixed point."""
        return all(shard.all_converged for shard in self.shards)

    @property
    def convergence_rate(self) -> float:
        """Fraction of (shard, epoch) best responses that reached a fixed point."""
        total = sum(len(shard.converged) for shard in self.shards)
        if not total:
            return 1.0
        converged = sum(
            sum(1 for flag in shard.converged if flag) for shard in self.shards
        )
        return converged / total

    def summary(self) -> str:
        """Multi-line human-readable summary across shards."""
        lines = [
            f"Sharded co-simulation — {self.n_users} users across "
            f"{self.n_shards} independent cells",
            f"  deadline misses: {self.deadline_miss_rate * 100.0:.1f}% of "
            f"user-epochs; per-user mean latency p50 "
            f"{self.fleet_p50_latency_ms:.1f} / p95 {self.fleet_p95_latency_ms:.1f} "
            f"/ p99 {self.fleet_p99_latency_ms:.1f} ms",
            f"  energy {self.total_energy_j:.1f} J, "
            f"{self.switch_count} switches, "
            f"{'all' if self.all_converged else 'NOT all'} epochs converged",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form."""
        return {
            "n_shards": self.n_shards,
            "n_users": self.n_users,
            "deadline_miss_rate": self.deadline_miss_rate,
            "fleet_p50_latency_ms": self.fleet_p50_latency_ms,
            "fleet_p95_latency_ms": self.fleet_p95_latency_ms,
            "fleet_p99_latency_ms": self.fleet_p99_latency_ms,
            "total_energy_j": self.total_energy_j,
            "switch_count": self.switch_count,
            "availability": self.availability,
            "fault_miss_rate": self.fault_miss_rate,
            "fault_epoch_fraction": self.fault_epoch_fraction,
            "mean_time_to_recover_epochs": self.mean_time_to_recover_epochs,
            "shards": [shard.to_dict() for shard in self.shards],
        }
