"""repro.fleet — multi-user fleet simulation and edge capacity planning.

Scales the single-user analytical framework of :mod:`repro.core` to fleets
of XR users sharing one Wi-Fi channel and a pool of edge GPUs:

* user populations (:mod:`repro.fleet.population`),
* shared-channel throughput contention (:mod:`repro.fleet.contention`),
* multi-tenant edge GPU queueing (:mod:`repro.fleet.edge_scheduler`),
* admission control and offload placement (:mod:`repro.fleet.admission`),
* the :class:`FleetAnalyzer` facade (:mod:`repro.fleet.analyzer`),
* SLO-constrained capacity planning (:mod:`repro.fleet.capacity`),
* aggregate fleet reports (:mod:`repro.fleet.results`).

Quickstart::

    from repro.fleet import FleetAnalyzer, homogeneous, plan_capacity

    fleet = homogeneous(64, device="XR1")
    report = FleetAnalyzer(fleet, edge="EDGE-AGX", slo_ms=100.0).analyze()
    print(report.summary())
    print(plan_capacity(device="XR1", edge="EDGE-AGX", slo_ms=100.0).summary())
"""

from repro.fleet.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    EnergyAwareAdmission,
    GreedySLOAdmission,
    PlacementDecision,
    RoundRobinAdmission,
    UserCandidate,
)
from repro.fleet.analyzer import FleetAnalyzer
from repro.fleet.capacity import CapacityPlan, EdgePlan, plan_capacity, plan_edges
from repro.fleet.search import bisect_capacity
from repro.fleet.contention import ContentionModel
from repro.fleet.edge_scheduler import EdgeScheduler
from repro.fleet.population import (
    FleetPopulation,
    UserProfile,
    homogeneous,
    mixed_devices,
)
from repro.fleet.results import FleetReport, UserOutcome

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "CapacityPlan",
    "ContentionModel",
    "EdgePlan",
    "EdgeScheduler",
    "EnergyAwareAdmission",
    "FleetAnalyzer",
    "FleetPopulation",
    "FleetReport",
    "GreedySLOAdmission",
    "PlacementDecision",
    "RoundRobinAdmission",
    "UserCandidate",
    "UserOutcome",
    "UserProfile",
    "bisect_capacity",
    "homogeneous",
    "mixed_devices",
    "plan_capacity",
    "plan_edges",
]
