"""Edge capacity planning: how many users can one cell serve?

The planner answers the deployment question the single-user paper cannot:
the largest fleet whose p95 motion-to-photon latency still meets an SLO on
a given device/edge/CNN combination.  Feasibility is monotone in the fleet
size — contention only shrinks per-user throughput and edge queueing only
grows with tenants — so the planner exponentially grows an upper bound and
then bisects, evaluating ``O(log N)`` fleets.

Probe evaluation is cheap: under round-robin placement a homogeneous fleet
of ``n`` identical users needs only *one* per-user report (evaluated through
the batch engine of :mod:`repro.batch`, whose results are bit-identical to
the scalar path) plus one wait per distinct tenant count, so each bisection
probe costs O(n_edges) Python-object work instead of O(n).  The probe
computes its loads and waits with the definition the analyzer uses
(:func:`~repro.fleet.edge_scheduler.edge_loads`, which adds an edge's
tenants in deal order and scales the sum, and
:meth:`~repro.fleet.edge_scheduler.EdgeScheduler.tenant_wait_ms`), so its
p95 equals a full round-robin :class:`~repro.fleet.analyzer.FleetAnalyzer`
analysis of the same fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple, Union

import numpy as np

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.device import EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.config.validation import ensure_integer
from repro.core.segments import Segment
from repro.exceptions import ConfigurationError
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeScheduler, edge_loads
from repro.fleet.population import homogeneous
from repro.fleet.results import percentile_method
from repro.fleet.search import bisect_capacity


@dataclass(frozen=True)
class CapacityPlan:
    """Result of an SLO-constrained capacity search.

    Attributes:
        slo_ms: the p95 motion-to-photon latency budget.
        max_users: largest SLO-feasible fleet size (0 when even one user
            misses the SLO).
        p95_at_capacity_ms: fleet p95 latency at ``max_users`` (None when
            infeasible).
        search_ceiling: the upper bound the search was allowed to explore.
        ceiling_reached: True when ``max_users`` hit the ceiling, i.e. the
            true capacity may be larger.
        evaluations: number of fleet analyses the search performed.
    """

    slo_ms: float
    max_users: int
    p95_at_capacity_ms: Optional[float]
    search_ceiling: int
    ceiling_reached: bool
    evaluations: int

    @property
    def feasible(self) -> bool:
        """Whether the SLO admits at least one user."""
        return self.max_users >= 1

    def summary(self) -> str:
        """One-paragraph text summary."""
        if not self.feasible:
            return (
                f"Capacity plan: SLO of {self.slo_ms:.0f} ms p95 is infeasible "
                f"even for a single user ({self.evaluations} fleets evaluated)."
            )
        ceiling_note = " (search ceiling reached)" if self.ceiling_reached else ""
        return (
            f"Capacity plan: up to {self.max_users} users{ceiling_note} meet the "
            f"{self.slo_ms:.0f} ms p95 SLO "
            f"(p95 at capacity: {self.p95_at_capacity_ms:.1f} ms, "
            f"{self.evaluations} fleets evaluated)."
        )


class _HomogeneousRoundRobinProbe:
    """O(n_edges) p95 probe for homogeneous all-identical round-robin fleets.

    Mirrors ``FleetAnalyzer.analyze`` for the special case the capacity
    planners construct: every user shares one device and application config,
    and the round-robin policy admits every offload-preferring user.  The
    per-user report is evaluated once per probed fleet size through the
    batch engine (the contended channel depends on the fleet size alone, so
    every edge count probed at one size shares it); the loads and waits come
    from the analyzer's own :func:`~repro.fleet.edge_scheduler.edge_loads`
    and :meth:`EdgeScheduler.tenant_wait_ms`, once per distinct tenant count.
    """

    def __init__(
        self,
        device: str,
        edge: Union[str, EdgeServerSpec],
        app: Optional[ApplicationConfig],
        network: Optional[NetworkConfig],
    ) -> None:
        self.device = device
        self.edge = edge
        # Resolve the default application exactly as a fleet analysis does,
        # by asking the population generator itself.
        base_app = homogeneous(1, device=device, app=app).users[0].app
        self.wants_offload = base_app.inference.mode is not ExecutionMode.LOCAL
        self.local_app = base_app.with_mode(ExecutionMode.LOCAL)
        self.remote_app = (
            base_app if self.wants_offload else base_app.with_mode(ExecutionMode.REMOTE)
        )
        self.network = network if network is not None else NetworkConfig()
        self.contention = ContentionModel(network=self.network)
        self.scheduler = EdgeScheduler()
        self.frame_rate_fps = base_app.frame_rate_fps
        self._local_latency: Optional[float] = None
        self._remote_cache: Dict[int, tuple] = {}
        self._p95_cache: Dict[Tuple[int, int], float] = {}

    # -- batch-evaluated per-user reports -------------------------------------

    def _local_latency_ms(self) -> float:
        from repro.batch import OperatingPoint, evaluate_points

        if self._local_latency is None:
            batch = evaluate_points(
                [
                    OperatingPoint(
                        app=self.local_app,
                        network=self.network,
                        device=self.device,
                        edge=self.edge,
                    )
                ],
                include_aoi=False,
            )
            self._local_latency = float(batch.total_latency_ms[0])
        return self._local_latency

    def _remote_stats(self, n_users: int) -> tuple:
        """(total latency, edge service time) under ``n_users`` contenders."""
        from repro.batch import OperatingPoint, evaluate_points

        cached = self._remote_cache.get(n_users)
        if cached is None:
            contended = self.contention.network_for(n_users)
            batch = evaluate_points(
                [
                    OperatingPoint(
                        app=self.remote_app,
                        network=contended,
                        device=self.device,
                        edge=self.edge,
                    )
                ],
                include_aoi=False,
            )
            cached = (
                float(batch.total_latency_ms[0]),
                float(batch.segment_latency_ms(Segment.REMOTE_INFERENCE)[0]),
            )
            self._remote_cache[n_users] = cached
        return cached

    # -- p95 ------------------------------------------------------------------

    def p95_latency_ms(self, n_users: int, n_edges: int) -> float:
        """Fleet p95 motion-to-photon latency, identical to the analyzer's."""
        cached = self._p95_cache.get((n_users, n_edges))
        if cached is not None:
            return cached
        if not self.wants_offload:
            # Nobody offloads: every user sees the uncontended local latency.
            latencies = np.full(n_users, self._local_latency_ms())
        else:
            remote_latency, service_ms = self._remote_stats(n_users)
            arrival = self.frame_rate_fps / 1e3
            # Round robin deals users 0..n-1 onto edges cyclically, so edge i
            # carries ceil or floor of n / n_edges tenants.
            base, extra = divmod(n_users, n_edges)
            tenant_counts = [base + 1 if index < extra else base for index in range(n_edges)]
            # Edges with the same tenant count share loads and waits, and
            # round robin produces at most two distinct counts.
            counts = sorted({count for count in tenant_counts if count > 0})
            rates, busy = edge_loads(
                np.asarray([arrival]),
                np.asarray([service_ms]),
                [np.zeros(count, dtype=np.intp) for count in counts],
                [1.0] * len(counts),
            )
            wait_by_count = {
                count: self.scheduler.tenant_wait_ms(service_ms, rate, load, arrival)
                for count, rate, load in zip(counts, rates.tolist(), busy.tolist())
            }
            per_edge_latency = [
                remote_latency + wait_by_count.get(count, 0.0)
                for count in tenant_counts
            ]
            latencies = np.repeat(np.asarray(per_edge_latency), tenant_counts)
        method = percentile_method(latencies)
        p95 = float(np.percentile(latencies, 95, method=method))
        self._p95_cache[n_users, n_edges] = p95
        return p95


def plan_capacity(
    device: str = "XR1",
    edge: Union[str, EdgeServerSpec] = "EDGE-AGX",
    slo_ms: float = 100.0,
    app: Optional[ApplicationConfig] = None,
    network: Optional[NetworkConfig] = None,
    n_edges: int = 1,
    max_users: int = 4096,
) -> CapacityPlan:
    """Maximum SLO-feasible fleet size for one device/edge/CNN combination.

    Builds homogeneous offloading fleets of growing size and reports the
    largest one whose p95 motion-to-photon latency meets the SLO.  Users are
    dealt round robin, which offloads everyone, so the plan reflects the
    infrastructure's raw capacity rather than an admission policy's gating —
    and lets every bisection probe run through the O(n_edges) homogeneous
    probe instead of an O(n) per-user analysis.  An SLO that not even one
    user meets plans zero users.
    """
    if not slo_ms > 0.0:
        raise ConfigurationError(f"SLO must be > 0 ms, got {slo_ms}")
    n_edges = ensure_integer("n_edges", n_edges)
    if n_edges < 1:
        raise ConfigurationError(f"need at least one edge server, got {n_edges}")
    max_users = ensure_integer("max_users", max_users)
    probe = _HomogeneousRoundRobinProbe(device=device, edge=edge, app=app, network=network)

    def feasible(n_users: int) -> bool:
        return probe.p95_latency_ms(n_users, n_edges) <= slo_ms

    capacity, ceiling_reached, evaluations = bisect_capacity(feasible, max_users)
    return CapacityPlan(
        slo_ms=slo_ms,
        max_users=capacity,
        p95_at_capacity_ms=(
            probe.p95_latency_ms(capacity, n_edges) if capacity >= 1 else None
        ),
        search_ceiling=max_users,
        ceiling_reached=ceiling_reached,
        evaluations=evaluations,
    )


@dataclass(frozen=True)
class EdgePlan:
    """Result of an SLO-constrained edge-count search.

    Attributes:
        slo_ms: the p95 motion-to-photon latency budget.
        n_users: the fleet size the edge tier was sized for.
        n_edges: smallest edge-server count meeting the SLO.
        p95_ms: fleet p95 latency at ``n_edges``.
        evaluations: number of fleet probes the search performed.
    """

    slo_ms: float
    n_users: int
    n_edges: int
    p95_ms: float
    evaluations: int

    def summary(self) -> str:
        """One-line text summary."""
        return (
            f"Edge plan: {self.n_edges} edge server(s) serve {self.n_users} users "
            f"within the {self.slo_ms:.0f} ms p95 SLO "
            f"(p95: {self.p95_ms:.1f} ms, {self.evaluations} fleets evaluated)."
        )


def plan_edges(
    device: str = "XR1",
    edge: Union[str, EdgeServerSpec] = "EDGE-AGX",
    n_users: int = 64,
    slo_ms: float = 100.0,
    app: Optional[ApplicationConfig] = None,
    network: Optional[NetworkConfig] = None,
    max_edges: int = 64,
) -> EdgePlan:
    """Smallest edge-server count serving ``n_users`` within the SLO.

    The inverse question of :func:`plan_capacity`: instead of asking how
    many users a fixed deployment supports, size the edge tier for a fixed
    fleet.  Adding edge servers only dilutes each server's tenant load (the
    shared channel is unaffected), so the fleet p95 is non-increasing in the
    edge count and a bisection over ``[1, max_edges]`` finds the boundary.

    Raises:
        ConfigurationError: when the SLO is unmeetable even at ``max_edges``
            — the binding constraint is then the contended channel or the
            per-frame compute itself, which no amount of edge servers fixes.
            The search always terminates: ``max_edges`` is probed first, so
            an unmeetable SLO costs exactly one evaluation.
    """
    if not slo_ms > 0.0:
        raise ConfigurationError(f"SLO must be > 0 ms, got {slo_ms}")
    n_users = ensure_integer("n_users", n_users)
    max_edges = ensure_integer("max_edges", max_edges)
    if n_users < 1:
        raise ConfigurationError(f"n_users must be >= 1, got {n_users}")
    if max_edges < 1:
        raise ConfigurationError(f"max_edges must be >= 1, got {max_edges}")
    # One probe for every edge count: the fleet size, and so the per-user
    # report, stays fixed.
    probe = _HomogeneousRoundRobinProbe(device=device, edge=edge, app=app, network=network)
    probed: Set[int] = set()

    def p95_for(count: int) -> float:
        probed.add(count)
        return probe.p95_latency_ms(n_users, count)

    # Probe the ceiling first: if the SLO cannot be met with every edge
    # server available, no smaller count can meet it either and the search
    # must fail loudly instead of returning a bogus plan.
    if p95_for(max_edges) > slo_ms:
        raise ConfigurationError(
            f"SLO of {slo_ms:.1f} ms p95 is unmeetable for {n_users} users on "
            f"{device} even with {max_edges} edge server(s) "
            f"(p95 {p95_for(max_edges):.1f} ms): the contended channel or the "
            f"per-frame compute is binding, not the edge count"
        )
    low, high = 0, max_edges  # p95(low) > slo (sentinel), p95(high) <= slo
    while high - low > 1:
        mid = (low + high) // 2
        if p95_for(mid) <= slo_ms:
            high = mid
        else:
            low = mid
    return EdgePlan(
        slo_ms=slo_ms,
        n_users=n_users,
        n_edges=high,
        p95_ms=p95_for(high),
        evaluations=len(probed),
    )
