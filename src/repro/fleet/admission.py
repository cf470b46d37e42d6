"""Admission-control and offload-placement policies.

Given a fleet of users who *want* to offload, something must decide who is
actually admitted to the edge tier and which edge server serves them — the
edge GPUs saturate (M/G/1 stability) and the SLO can be burned by queueing
long before the channel runs out.  A policy consumes per-user
:class:`UserCandidate` statistics (single-user numbers prepared by the fleet
analyzer, with remote figures bounded by the worst-case channel contention)
and produces one :class:`PlacementDecision` per user.

Three policies are provided:

* :class:`RoundRobinAdmission` — admit every offload-preferring user,
  spreading them round-robin across the edge servers (the baseline),
* :class:`GreedySLOAdmission` — admit offloaders one by one while the
  admitted load keeps every edge stable and the predicted per-tenant latency
  within the SLO; everyone else falls back to local inference,
* :class:`EnergyAwareAdmission` — admit the users that save the most device
  energy by offloading first, subject to an edge utilisation cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.config.validation import ensure_integer
from repro.exceptions import ConfigurationError
from repro.fleet.edge_scheduler import EdgeScheduler


@dataclass(frozen=True)
class UserCandidate:
    """Single-user statistics a policy decides on.

    Attributes:
        name: user identifier.
        wants_offload: whether the user's profile prefers edge inference.
        frame_rate_fps: frame submission rate when offloading.
        service_time_ms: edge GPU busy time per frame of this user.
        local_latency_ms: end-to-end latency if the user runs locally.
        remote_latency_ms: end-to-end latency if offloading (bounded by the
            worst-case channel contention when prepared by the analyzer).
        local_energy_mj: per-frame device energy if running locally.
        remote_energy_mj: per-frame device energy if offloading.
    """

    name: str
    wants_offload: bool
    frame_rate_fps: float
    service_time_ms: float
    local_latency_ms: float
    remote_latency_ms: float
    local_energy_mj: float
    remote_energy_mj: float

    @property
    def arrival_rate_per_ms(self) -> float:
        """Frame arrival rate at the edge queue (frames/ms)."""
        return self.frame_rate_fps / 1e3

    @property
    def energy_saving_mj(self) -> float:
        """Per-frame device energy saved by offloading (may be negative)."""
        return self.local_energy_mj - self.remote_energy_mj


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of admission control for one user.

    Attributes:
        name: user identifier.
        offload: whether the user is admitted to the edge tier.
        edge_index: index of the serving edge server (None when local).
        reason: short human-readable justification.
    """

    name: str
    offload: bool
    edge_index: Optional[int]
    reason: str


class AdmissionPolicy:
    """Base class: maps candidates to placement decisions."""

    def assign(
        self,
        candidates: Sequence[UserCandidate],
        n_edges: int,
        service_scales: Optional[Sequence[float]] = None,
    ) -> List[PlacementDecision]:
        """Decide placement for every candidate (in candidate order).

        ``service_scales`` holds each edge's service-time multiplier (a
        browned-out or straggling edge serves every frame slower); ``None``
        means 1.0 on every edge.
        """
        raise NotImplementedError

    @staticmethod
    def _check_edges(n_edges: int) -> int:
        n_edges = ensure_integer("n_edges", n_edges)
        if n_edges < 1:
            raise ConfigurationError(f"need at least one edge server, got {n_edges}")
        return n_edges

    @staticmethod
    def _check_scales(
        service_scales: Optional[Sequence[float]], n_edges: int
    ) -> List[float]:
        if service_scales is None:
            return [1.0] * n_edges
        scales = [float(scale) for scale in service_scales]
        if len(scales) != n_edges or not all(0.0 < scale < math.inf for scale in scales):
            raise ConfigurationError(
                f"need {n_edges} positive finite service scales, got {service_scales}"
            )
        return scales


class RoundRobinAdmission(AdmissionPolicy):
    """Admit every offload-preferring user, cycling across edge servers.

    The edges' service scales do not change the deal.
    """

    def assign(
        self,
        candidates: Sequence[UserCandidate],
        n_edges: int,
        service_scales: Optional[Sequence[float]] = None,
    ) -> List[PlacementDecision]:
        n_edges = self._check_edges(n_edges)
        decisions: List[PlacementDecision] = []
        next_edge = 0
        for candidate in candidates:
            if candidate.wants_offload:
                decisions.append(
                    PlacementDecision(
                        name=candidate.name,
                        offload=True,
                        edge_index=next_edge,
                        reason=f"round-robin to edge {next_edge}",
                    )
                )
                next_edge = (next_edge + 1) % n_edges
            else:
                decisions.append(
                    PlacementDecision(
                        name=candidate.name,
                        offload=False,
                        edge_index=None,
                        reason="profile prefers local inference",
                    )
                )
        return decisions


class GreedySLOAdmission(AdmissionPolicy):
    """Admit offloaders while stability and a latency SLO are preserved.

    Users are considered in candidate order.  Each offload-preferring user is
    tentatively placed on the least-loaded edge (by busy fraction, service
    scale included); the placement sticks only if that edge's busy fraction
    stays within :attr:`UTILIZATION_CAP` and the predicted tenant latency —
    the candidate's (contention-bounded) remote latency plus the M/G/1
    waiting caused by the load already admitted there
    (:meth:`EdgeScheduler.tenant_wait_ms`) — stays within the SLO.  Rejected
    users fall back to local inference.

    Attributes:
        slo_ms: motion-to-photon latency budget per user.
    """

    #: Hard ceiling on an edge's admitted busy fraction.
    UTILIZATION_CAP = 0.95

    def __init__(self, slo_ms: float) -> None:
        if not slo_ms > 0.0:
            raise ConfigurationError(f"SLO must be > 0 ms, got {slo_ms}")
        self.slo_ms = slo_ms
        self.scheduler = EdgeScheduler()

    def assign(
        self,
        candidates: Sequence[UserCandidate],
        n_edges: int,
        service_scales: Optional[Sequence[float]] = None,
    ) -> List[PlacementDecision]:
        n_edges = self._check_edges(n_edges)
        scales = self._check_scales(service_scales, n_edges)
        # Per-edge admitted load: arrival rate, sum of rate * service, and
        # that sum times the edge's service scale (the busy fraction).
        edge_rates = [0.0] * n_edges
        edge_sums = [0.0] * n_edges
        edge_busy = [0.0] * n_edges
        decisions: List[PlacementDecision] = []
        for candidate in candidates:
            if not candidate.wants_offload:
                decisions.append(
                    PlacementDecision(
                        name=candidate.name,
                        offload=False,
                        edge_index=None,
                        reason="profile prefers local inference",
                    )
                )
                continue
            edge = min(range(n_edges), key=lambda index: edge_busy[index])
            new_sum = edge_sums[edge] + candidate.arrival_rate_per_ms * candidate.service_time_ms
            new_busy = new_sum * scales[edge]
            wait = self.scheduler.tenant_wait_ms(
                candidate.service_time_ms,
                edge_rates[edge],
                edge_busy[edge],
                scale=scales[edge],
            )
            predicted = candidate.remote_latency_ms + wait
            if new_busy <= self.UTILIZATION_CAP and predicted <= self.slo_ms:
                edge_rates[edge] += candidate.arrival_rate_per_ms
                edge_sums[edge] = new_sum
                edge_busy[edge] = new_busy
                decisions.append(
                    PlacementDecision(
                        name=candidate.name,
                        offload=True,
                        edge_index=edge,
                        reason=f"admitted to edge {edge} ({predicted:.1f} ms predicted)",
                    )
                )
            else:
                decisions.append(
                    PlacementDecision(
                        name=candidate.name,
                        offload=False,
                        edge_index=None,
                        reason="rejected: SLO or stability would be violated",
                    )
                )
        return decisions


class EnergyAwareAdmission(AdmissionPolicy):
    """Admit the users that save the most device energy by offloading.

    Offload-preferring users are ranked by their per-frame energy saving and
    admitted best-first onto the least-loaded edge (by busy fraction, service
    scale included) until :attr:`UTILIZATION_CAP` is reached; users whose
    offload would *cost* energy run locally.
    """

    #: Hard ceiling on an edge's admitted busy fraction.
    UTILIZATION_CAP = 0.9

    def assign(
        self,
        candidates: Sequence[UserCandidate],
        n_edges: int,
        service_scales: Optional[Sequence[float]] = None,
    ) -> List[PlacementDecision]:
        n_edges = self._check_edges(n_edges)
        scales = self._check_scales(service_scales, n_edges)
        by_name: dict = {}
        edge_sums = [0.0] * n_edges
        edge_busy = [0.0] * n_edges
        ranked = sorted(
            (c for c in candidates if c.wants_offload),
            key=lambda c: c.energy_saving_mj,
            reverse=True,
        )
        for candidate in ranked:
            if candidate.energy_saving_mj <= 0.0:
                by_name[candidate.name] = PlacementDecision(
                    name=candidate.name,
                    offload=False,
                    edge_index=None,
                    reason="offloading would cost device energy",
                )
                continue
            edge = min(range(n_edges), key=lambda index: edge_busy[index])
            new_sum = edge_sums[edge] + candidate.arrival_rate_per_ms * candidate.service_time_ms
            new_busy = new_sum * scales[edge]
            if new_busy <= self.UTILIZATION_CAP:
                edge_sums[edge] = new_sum
                edge_busy[edge] = new_busy
                by_name[candidate.name] = PlacementDecision(
                    name=candidate.name,
                    offload=True,
                    edge_index=edge,
                    reason=(
                        f"admitted to edge {edge} "
                        f"(saves {candidate.energy_saving_mj:.1f} mJ/frame)"
                    ),
                )
            else:
                by_name[candidate.name] = PlacementDecision(
                    name=candidate.name,
                    offload=False,
                    edge_index=None,
                    reason="rejected: edge utilisation cap reached",
                )
        decisions: List[PlacementDecision] = []
        for candidate in candidates:
            decision = by_name.get(candidate.name)
            if decision is None:
                decision = PlacementDecision(
                    name=candidate.name,
                    offload=False,
                    edge_index=None,
                    reason="profile prefers local inference",
                )
            decisions.append(decision)
        return decisions


#: The admission policies by name, for the CLI's ``fleet --policy`` and a
#: scenario's ``policy`` parameter (this order is the CLI's).  Each entry
#: builds its policy from the fleet's latency SLO in ms.
ADMISSION_POLICIES: Dict[str, Callable[[float], AdmissionPolicy]] = {
    "greedy": lambda slo_ms: GreedySLOAdmission(slo_ms=slo_ms),
    "round-robin": lambda slo_ms: RoundRobinAdmission(),
    "energy": lambda slo_ms: EnergyAwareAdmission(),
}
