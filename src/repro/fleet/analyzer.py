"""The :class:`FleetAnalyzer` facade — multi-user fleet performance analysis.

Scales the paper's single-user analytical framework to ``N`` users sharing
one Wi-Fi channel and a pool of edge GPUs::

    from repro.fleet import FleetAnalyzer, homogeneous

    fleet = homogeneous(64, device="XR1")
    analyzer = FleetAnalyzer(fleet, edge="EDGE-AGX", slo_ms=100.0)
    print(analyzer.analyze().summary())

Composition: the single-user model's reports (batch-evaluated through
:mod:`repro.batch`, on the paper's coefficient set), per-user network
parameters adjusted by the :class:`ContentionModel` of the shared channel,
per-tenant edge queueing delay from the :class:`EdgeScheduler`, and
placements chosen by an :class:`AdmissionPolicy`.

An analysis groups the users into *kinds* (one device, one application
config object) and resolves per kind the mode variants, the reports
(batch-evaluated once per ``(device, app, network)``), their totals and the
edge service time (the remote report's remote-inference segment).  Each
edge's load comes from :func:`~repro.fleet.edge_scheduler.edge_loads`, which
adds its offloaders in population order and scales the sum by the edge's
service scale, and an offloader's wait from :meth:`EdgeScheduler.tenant_wait_ms
<repro.fleet.edge_scheduler.EdgeScheduler.tenant_wait_ms>`, once per (kind,
edge).  Per user remain the candidate, decision and outcome records and the
admission policy's loop.  A homogeneous 10k-user fleet under greedy SLO
admission needs two model evaluations and took 0.08-0.17 s on a 2-vCPU box.

With a single user the analyzer degenerates exactly to the paper's model:
contention leaves the channel untouched at ``N == 1`` and a sole edge tenant
sees zero queueing, so the reported numbers equal
``XRPerformanceModel.analyze()`` verbatim.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.config.validation import ensure_integer
from repro.core.results import PerformanceReport
from repro.core.segments import Segment
from repro.devices.resolve import EdgeLike, resolve_edge_spec
from repro.exceptions import ConfigurationError
from repro.faults.schedule import EpochFaultState
from repro.fleet.admission import (
    AdmissionPolicy,
    PlacementDecision,
    RoundRobinAdmission,
    UserCandidate,
)
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeScheduler, edge_loads
from repro.fleet.population import FleetPopulation, UserProfile
from repro.fleet.results import FleetReport, UserOutcome

PopulationLike = Union[FleetPopulation, Sequence[UserProfile]]
_ReportKey = Tuple[str, ApplicationConfig, NetworkConfig]
_Reports = Dict[_ReportKey, PerformanceReport]


def _resolve_population(population: PopulationLike) -> FleetPopulation:
    if isinstance(population, FleetPopulation):
        return population
    return FleetPopulation(users=tuple(population))


@dataclass(frozen=True)
class _Kind:
    """What the users of one kind share: everything but name and placement.

    ``local_app`` and ``remote_app`` are the app in each placement's mode
    (``remote_app`` is the app itself when it prefers the edge); the other
    fields mean what they mean on :class:`UserProfile` and
    :class:`UserCandidate`.
    """

    device: str
    wants_offload: bool
    local_app: ApplicationConfig
    remote_app: ApplicationConfig
    frame_rate_fps: float
    arrival_rate_per_ms: float


def _kind(device: str, app: ApplicationConfig) -> _Kind:
    wants_offload = app.inference.mode is not ExecutionMode.LOCAL
    return _Kind(
        device=device,
        wants_offload=wants_offload,
        local_app=app.with_mode(ExecutionMode.LOCAL),
        remote_app=app if wants_offload else app.with_mode(ExecutionMode.REMOTE),
        frame_rate_fps=app.frame_rate_fps,
        arrival_rate_per_ms=app.frame_rate_fps / 1e3,
    )


class FleetAnalyzer:
    """Fleet-scale latency/energy/AoI analysis on shared infrastructure.

    Args:
        population: the fleet's users (a :class:`FleetPopulation` or any
            sequence of :class:`UserProfile`).
        edge: edge server model shared by all ``n_edges`` servers (catalog
            name or spec), mirroring the paper's homogeneous-edge assumption
            (Eq. 15).
        n_edges: number of identical edge servers behind the cell.
        network: single-user network configuration of the shared channel.
        policy: admission/placement policy (defaults to round-robin).
        slo_ms: optional per-user motion-to-photon SLO recorded on reports
            (must be > 0 when given).
        include_aoi: evaluate the AoI model per user (on by default).
        fault_state: optional composed fault state (one epoch of a
            :class:`~repro.faults.schedule.FaultSchedule`): dead edges leave
            the admission pool (offload-preferring users re-route to the
            survivors, or run locally when none remain), brownout/straggler
            windows inflate the affected edges' service times, and link
            degradation reshapes the shared channel before contention.  The
            report then carries availability/degradation metrics.  ``None``
            (the default) is bit-exact with the pre-fault analyzer.
    """

    def __init__(
        self,
        population: PopulationLike,
        edge: EdgeLike = "EDGE-AGX",
        n_edges: int = 1,
        network: Optional[NetworkConfig] = None,
        policy: Optional[AdmissionPolicy] = None,
        slo_ms: Optional[float] = None,
        include_aoi: bool = True,
        fault_state: Optional[EpochFaultState] = None,
    ) -> None:
        n_edges = ensure_integer("n_edges", n_edges)
        if n_edges < 1:
            raise ConfigurationError(f"need at least one edge server, got {n_edges}")
        if slo_ms is not None and not slo_ms > 0.0:
            raise ConfigurationError(f"SLO must be > 0 ms, got {slo_ms}")
        self.population = _resolve_population(population)
        self.edge = resolve_edge_spec(edge)
        if self.edge is None:
            raise ConfigurationError("edge must name an edge server, got None")
        self.n_edges = n_edges
        self.network = network if network is not None else NetworkConfig()
        if fault_state is not None:
            if fault_state.n_edges != n_edges:
                raise ConfigurationError(
                    f"fault state describes {fault_state.n_edges} edge(s), "
                    f"but the analyzer has {n_edges}"
                )
            # Link degradation reshapes the channel before contention (the
            # contention model below wraps the faulted network).
            self.network = fault_state.apply_to_network(self.network)
        self.fault_state = fault_state
        self.policy = policy if policy is not None else RoundRobinAdmission()
        self.contention = ContentionModel(network=self.network)
        self.scheduler = EdgeScheduler()
        self.slo_ms = slo_ms
        self.include_aoi = include_aoi

    def _prime_reports(self, reports: _Reports, keys: Sequence[_ReportKey]) -> None:
        """Batch-evaluate the keys ``reports`` lacks into it, all at once.

        An analysis keeps one such dict and reads each report from it once per
        kind and network.  One call to the vectorized batch engine replaces
        one scalar ``analyze()`` per key; the resulting reports are
        bit-identical.
        """
        from repro.batch import OperatingPoint, evaluate_points

        missing = [key for key in dict.fromkeys(keys) if key not in reports]
        if not missing:
            return
        batch = evaluate_points(
            [
                OperatingPoint(app=app, network=network, device=device, edge=self.edge)
                for device, app, network in missing
            ],
            include_aoi=self.include_aoi,
        )
        for index, key in enumerate(missing):
            reports[key] = batch.report_at(index)

    def _kinds(self) -> Tuple[List[_Kind], List[int]]:
        """The population's kinds in first-use order, and each user's kind.

        Users share a kind when they share a device and an application config
        object.  The population holds every app, so an app's ``id`` is stable
        for the whole analysis, and grouping hashes no nested config.
        """
        kinds: List[_Kind] = []
        kind_of_user: List[int] = []
        index_of: Dict[Tuple[str, int], int] = {}
        for user in self.population:
            key = (user.device, id(user.app))
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(kinds)
                kinds.append(_kind(user.device, user.app))
            kind_of_user.append(index)
        return kinds, kind_of_user

    # -- pipeline stages -----------------------------------------------------------

    def _candidates(
        self, reports: _Reports, kinds: Sequence[_Kind], kind_of_user: Sequence[int]
    ) -> Tuple[List[float], List[UserCandidate]]:
        """Each kind's edge service time, and per-user statistics for the policy.

        Remote statistics are evaluated under the contention of *all*
        offload-preferring users — an upper bound on the contention any
        admitted subset will actually see — so SLO-guarding policies err
        towards rejecting rather than admitting users into violation.
        With a single user this bound coincides with the uncontended
        channel, preserving the single-user equivalence.  A kind's edge
        service time, the edge GPU's busy time per frame, is its remote
        report's remote-inference segment (Eqs. 13-15), which no network
        term enters.
        """
        users_of = Counter(kind_of_user)
        n_wants = sum(
            users_of[index] for index, kind in enumerate(kinds) if kind.wants_offload
        )
        remote_network = self.contention.network_for(max(n_wants, 1))
        # Evaluate every kind's local and remote report in one vectorized
        # batch instead of one call per kind.
        keys: List[_ReportKey] = []
        for kind in kinds:
            keys.append((kind.device, kind.local_app, self.network))
            keys.append((kind.device, kind.remote_app, remote_network))
        self._prime_reports(reports, keys)
        service_ms: List[float] = []
        fields_of = []
        for kind in kinds:
            local = reports[kind.device, kind.local_app, self.network]
            remote = reports[kind.device, kind.remote_app, remote_network]
            service_ms.append(remote.latency.segment_ms(Segment.REMOTE_INFERENCE))
            fields_of.append(
                {
                    "wants_offload": kind.wants_offload,
                    "frame_rate_fps": kind.frame_rate_fps,
                    "service_time_ms": service_ms[-1],
                    "local_latency_ms": local.total_latency_ms,
                    "remote_latency_ms": remote.total_latency_ms,
                    "local_energy_mj": local.total_energy_mj,
                    "remote_energy_mj": remote.total_energy_mj,
                }
            )
        return service_ms, [
            UserCandidate(name=user.name, **fields_of[index])
            for user, index in zip(self.population, kind_of_user)
        ]

    # -- fleet analysis --------------------------------------------------------------

    def analyze(self) -> FleetReport:
        """Evaluate the whole fleet and aggregate into a :class:`FleetReport`."""
        with telemetry.get().span(
            "fleet.analyze", users=len(self.population), edges=self.n_edges
        ):
            return self._analyze()

    def _placements_under_faults(
        self, candidates: List[UserCandidate]
    ) -> Tuple[List[PlacementDecision], int]:
        """Placements re-routed around dead edges.

        The admission policy sees only the surviving edges (as *slots*) and
        their service scales; its slot indices are then mapped back onto the
        physical pool.  With no edge alive every offload-preferring user is
        forced local.  With no fault state the policy sees the full pool
        untouched.
        """
        fault_state = self.fault_state
        if fault_state is None:
            return self.policy.assign(candidates, self.n_edges), 0
        alive = fault_state.alive_edges
        if not alive:
            forced_local = sum(1 for c in candidates if c.wants_offload)
            decisions = [
                PlacementDecision(
                    name=candidate.name,
                    offload=False,
                    edge_index=None,
                    reason=(
                        "forced local: every edge server is down"
                        if candidate.wants_offload
                        else "profile prefers local inference"
                    ),
                )
                for candidate in candidates
            ]
            return decisions, forced_local
        scales = [fault_state.service_scale(edge) for edge in alive]
        if len(alive) == self.n_edges:
            return self.policy.assign(candidates, self.n_edges, service_scales=scales), 0
        slot_decisions = self.policy.assign(candidates, len(alive), service_scales=scales)
        decisions = [
            replace(
                decision,
                edge_index=alive[decision.edge_index],
                reason=(
                    f"re-routed to edge {alive[decision.edge_index]} "
                    f"(degraded pool: {len(alive)}/{self.n_edges} alive)"
                ),
            )
            if decision.offload and decision.edge_index is not None
            else decision
            for decision in slot_decisions
        ]
        return decisions, 0

    def _analyze(self) -> FleetReport:
        fault_state = self.fault_state
        reports: _Reports = {}
        kinds, kind_of_user = self._kinds()
        service_ms, candidates = self._candidates(reports, kinds, kind_of_user)
        decisions, forced_local = self._placements_under_faults(candidates)

        offloaders = [user for user, decision in enumerate(decisions) if decision.offload]
        contended = (
            self.contention.network_for(len(offloaders)) if offloaders else self.network
        )

        # Service-time multiplier per edge (1.0 everywhere absent faults;
        # multiplying by exactly 1.0 leaves every float untouched, keeping
        # the no-fault path bit-identical).
        edge_scale = [
            fault_state.service_scale(index) if fault_state is not None else 1.0
            for index in range(self.n_edges)
        ]

        # Offered load per edge server: each edge's offloaders' kinds in
        # population order, the order that fixes the float sums.
        offloader_kinds = np.asarray(kind_of_user, dtype=np.intp)[offloaders]
        offloader_edges = np.asarray(
            [decisions[user].edge_index for user in offloaders], dtype=np.intp
        )
        rates, busy = edge_loads(
            np.asarray([kind.arrival_rate_per_ms for kind in kinds]),
            np.asarray(service_ms),
            [offloader_kinds[offloader_edges == edge] for edge in range(self.n_edges)],
            edge_scale,
        )
        # Python floats, so that no NumPy scalar reaches the outcomes.
        edge_rates, edge_busy = rates.tolist(), busy.tolist()

        # Every (kind, placement) the decisions use, in first-use order.  The
        # reports _candidates did not already cover are batch-evaluated (the
        # post-admission contention level can differ from the admission bound
        # when a policy rejects users); then each report is read once.
        report_keys: Dict[Tuple[int, bool], _ReportKey] = {}
        for index, offload in dict.fromkeys(
            zip(kind_of_user, [decision.offload for decision in decisions])
        ):
            kind = kinds[index]
            report_keys[index, offload] = (
                (kind.device, kind.remote_app, contended)
                if offload
                else (kind.device, kind.local_app, self.network)
            )
        self._prime_reports(reports, list(report_keys.values()))
        placed = {}
        for placement, (device, app, network) in report_keys.items():
            report = reports[device, app, network]
            fresh_fraction = None
            if report.aoi is not None and report.aoi.roi:
                fresh_fraction = len(report.aoi.fresh_sensors()) / len(report.aoi.roi)
            placed[placement] = (
                app,
                network,
                report,
                report.total_latency_ms,
                report.total_energy_mj,
                fresh_fraction,
            )

        # Outcome fields per (kind, placement, edge): an offloader's wait
        # depends only on its kind and its edge's load and service scale.
        fields_of: Dict[Tuple[int, bool, Optional[int]], dict] = {}
        outcomes: List[UserOutcome] = []
        for user, index, decision in zip(self.population, kind_of_user, decisions):
            key = (index, decision.offload, decision.edge_index)
            fields = fields_of.get(key)
            if fields is None:
                kind = kinds[index]
                app, network, report, latency_ms, energy_mj, fresh_fraction = placed[
                    index, decision.offload
                ]
                edge = decision.edge_index
                wait_ms = (
                    self.scheduler.tenant_wait_ms(
                        service_ms[index],
                        edge_rates[edge],
                        edge_busy[edge],
                        kind.arrival_rate_per_ms,
                        edge_scale[edge],
                    )
                    if decision.offload
                    else 0.0
                )
                # Waiting for a contended edge keeps the radio idle-listening;
                # bill that time at the radio idle power (W * ms = mJ).
                wait_energy_mj = (
                    network.radio_idle_power_w * wait_ms if wait_ms != math.inf else 0.0
                )
                fields = fields_of[key] = {
                    "device": kind.device,
                    "mode": app.inference.mode.value,
                    "offloaded": decision.offload,
                    "edge_index": edge,
                    "throughput_mbps": network.throughput_mbps,
                    "edge_wait_ms": wait_ms,
                    "latency_ms": latency_ms + wait_ms,
                    "energy_mj": energy_mj + wait_energy_mj,
                    "report": report,
                    "aoi_fresh_fraction": fresh_fraction,
                }
            outcomes.append(UserOutcome(user=user.name, **fields))
        if fault_state is not None:
            registry = telemetry.get()
            if registry.enabled and fault_state.any_fault:
                registry.add("faults.fleet.analyses")
                registry.add("faults.fleet.forced_local", forced_local)
                registry.add(
                    "faults.fleet.edges_dead",
                    fault_state.n_edges - fault_state.n_edges_alive,
                )
        return FleetReport.from_outcomes(
            outcomes,
            edge_utilizations=edge_busy,
            slo_ms=self.slo_ms,
            availability=(
                fault_state.availability if fault_state is not None else 1.0
            ),
            n_edges_alive=(
                fault_state.n_edges_alive if fault_state is not None else None
            ),
            fault_forced_local=forced_local,
        )
