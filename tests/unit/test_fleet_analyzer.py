"""Unit tests for the fleet analyzer, report aggregation, and capacity planner."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.config.application import ApplicationConfig, ExecutionMode
from repro.core.framework import XRPerformanceModel
from repro.exceptions import ConfigurationError
from repro.faults.schedule import EpochFaultState
from repro.fleet import (
    CapacityPlan,
    EdgePlan,
    EdgeScheduler,
    EnergyAwareAdmission,
    FleetAnalyzer,
    FleetPopulation,
    FleetReport,
    GreedySLOAdmission,
    RoundRobinAdmission,
    UserCandidate,
    UserOutcome,
    UserProfile,
    bisect_capacity,
    homogeneous,
    mixed_devices,
    plan_capacity,
    plan_edges,
)
from repro.fleet.results import percentile_method

SLO_MS = 800.0


def _cycling_workloads(n_users, apps, device="XR1"):
    """``n_users`` users on one device cycling through ``apps``."""
    return FleetPopulation(
        users=tuple(
            UserProfile(name=f"user-{index:04d}", device=device, app=apps[index % len(apps)])
            for index in range(n_users)
        )
    )


@pytest.fixture
def remote_fleet_app() -> ApplicationConfig:
    return ApplicationConfig.object_detection_default().with_mode(ExecutionMode.REMOTE)


class TestSingleUserEquivalence:
    @pytest.mark.parametrize("mode", (ExecutionMode.LOCAL, ExecutionMode.REMOTE))
    def test_one_user_reproduces_single_user_model_exactly(self, mode):
        app = ApplicationConfig.object_detection_default().with_mode(mode)
        single = XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze(app)
        fleet = FleetAnalyzer(homogeneous(1, device="XR1", app=app)).analyze()
        assert fleet.p50_latency_ms == single.total_latency_ms
        assert fleet.p95_latency_ms == single.total_latency_ms
        assert fleet.p99_latency_ms == single.total_latency_ms
        assert fleet.outcomes[0].energy_mj == single.total_energy_mj
        assert fleet.outcomes[0].edge_wait_ms == 0.0

    def test_one_user_aoi_matches(self, remote_fleet_app):
        single = XRPerformanceModel(device="XR1", edge="EDGE-AGX").analyze(
            remote_fleet_app
        )
        fleet = FleetAnalyzer(
            homogeneous(1, device="XR1", app=remote_fleet_app)
        ).analyze()
        outcome = fleet.outcomes[0]
        assert outcome.report.aoi.roi == single.aoi.roi


class TestFleetEffects:
    def test_more_users_never_faster(self, remote_fleet_app):
        def p95(n):
            return FleetAnalyzer(
                homogeneous(n, device="XR1", app=remote_fleet_app)
            ).analyze().p95_latency_ms

        assert p95(1) <= p95(2) <= p95(3)

    def test_saturated_edge_reports_infinite_latency(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(16, device="XR1", app=remote_fleet_app)
        ).analyze()
        assert report.p95_latency_ms == math.inf
        assert max(report.edge_utilizations) >= 1.0

    def test_saturated_edge_is_infinite_for_every_tenant(self):
        # A light tenant must not be reported with a finite wait when the
        # edge's aggregate load (dominated by heavy tenants) is unstable.
        heavy = ApplicationConfig(
            frame_side_px=1400.0, frame_rate_fps=25.0
        ).with_mode(ExecutionMode.REMOTE)
        light = ApplicationConfig(frame_side_px=100.0, frame_rate_fps=10.0).with_mode(
            ExecutionMode.REMOTE
        )
        report = FleetAnalyzer(
            _cycling_workloads(4, (heavy, light)), edge="EDGE-TX2"
        ).analyze()
        assert max(report.edge_utilizations) >= 1.0
        assert all(
            math.isinf(outcome.latency_ms)
            for outcome in report.outcomes
            if outcome.offloaded
        )

    def test_greedy_never_admits_users_into_violation(self):
        # Contention-bounded candidates: the SLO guard must hold in the
        # final contended report, not just against uncontended numbers.
        app = ApplicationConfig(frame_rate_fps=5.0).with_mode(ExecutionMode.REMOTE)
        slo = 551.0
        report = FleetAnalyzer(
            homogeneous(50, device="XR1", app=app),
            policy=GreedySLOAdmission(slo_ms=slo),
            slo_ms=slo,
        ).analyze()
        assert all(
            outcome.meets_slo(slo)
            for outcome in report.outcomes
            if outcome.offloaded
        )

    def test_greedy_policy_keeps_fleet_finite(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(16, device="XR1", app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
            slo_ms=SLO_MS,
        ).analyze()
        assert report.p95_latency_ms < math.inf
        assert max(report.edge_utilizations) < 1.0
        assert 0 < report.n_offloaded < report.n_users

    def test_extra_edges_raise_offload_count(self, remote_fleet_app):
        def offloaded(n_edges):
            return FleetAnalyzer(
                homogeneous(16, device="XR1", app=remote_fleet_app),
                n_edges=n_edges,
                policy=GreedySLOAdmission(slo_ms=SLO_MS),
            ).analyze().n_offloaded

        assert offloaded(2) > offloaded(1)

    def test_offloaders_share_contended_throughput(self, remote_fleet_app, network):
        report = FleetAnalyzer(
            homogeneous(4, device="XR1", app=remote_fleet_app)
        ).analyze()
        throughputs = {outcome.throughput_mbps for outcome in report.outcomes}
        assert len(throughputs) == 1
        assert throughputs.pop() < network.throughput_mbps

    def test_mixed_device_fleet_counts(self, remote_fleet_app):
        report = FleetAnalyzer(
            mixed_devices(6, devices=("XR1", "XR3"), app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
        ).analyze()
        assert report.device_counts == {"XR1": 3, "XR3": 3}

    def test_users_of_one_kind_share_reports(self, remote_fleet_app):
        registry = telemetry.enable()
        try:
            FleetAnalyzer(
                homogeneous(500, device="XR1", app=remote_fleet_app),
                policy=RoundRobinAdmission(),
            ).analyze()
        finally:
            telemetry.disable()
        batch = registry.snapshot()["spans"]["fleet.analyze"]["children"][
            "batch.evaluate_points"
        ]
        # Round robin admits every user, so the contention the candidates
        # were evaluated under is the fleet's: one call, local and remote.
        assert batch["count"] == 1
        assert batch["counters"]["points"] == 2

    def test_each_analysis_evaluates_its_own_reports(self, remote_fleet_app):
        analyzer = FleetAnalyzer(
            homogeneous(50, device="XR1", app=remote_fleet_app),
            policy=RoundRobinAdmission(),
        )
        registry = telemetry.enable()
        try:
            first = analyzer.analyze()
            second = analyzer.analyze()
        finally:
            telemetry.disable()
        batch = registry.snapshot()["spans"]["fleet.analyze"]["children"][
            "batch.evaluate_points"
        ]
        # No report outlives its analysis, so a second run evaluates afresh
        # and reads the same fleet.
        assert batch["count"] == 2
        assert second == first

    def test_zero_edges_rejected(self, remote_fleet_app):
        with pytest.raises(ConfigurationError):
            FleetAnalyzer(homogeneous(2, app=remote_fleet_app), n_edges=0)
        for n_edges in (2.5, float("nan"), 2.0):
            with pytest.raises(ConfigurationError, match="n_edges must be an integer"):
                FleetAnalyzer(homogeneous(8), n_edges=n_edges)

    def test_numpy_integer_edge_count_accepted(self):
        report = FleetAnalyzer(homogeneous(8), n_edges=np.int64(2)).analyze()
        assert report == FleetAnalyzer(homogeneous(8), n_edges=2).analyze()

    def test_missing_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="edge must name an edge server"):
            FleetAnalyzer(homogeneous(8), edge=None)

    @pytest.mark.parametrize("slo_ms", (float("nan"), -1.0, 0.0))
    def test_invalid_slo_rejected(self, slo_ms):
        with pytest.raises(ConfigurationError, match="SLO must be > 0 ms"):
            FleetAnalyzer(homogeneous(8), slo_ms=slo_ms)


# -- the kind-grouped analyzer against the per-user algorithm --------------------


def _local_app(user):
    return user.app.with_mode(ExecutionMode.LOCAL)


def _remote_app(user):
    if user.wants_offload:
        return user.app
    return user.app.with_mode(ExecutionMode.REMOTE)


def _scalar_service_time_ms(analyzer: FleetAnalyzer, user) -> float:
    """The scalar model's remote inference time of the user's remote app."""
    latency = XRPerformanceModel(device=user.device, edge=analyzer.edge).latency_model
    app = _remote_app(user)
    compute = latency.client_compute(app)
    return latency.remote_inference_ms(
        app, compute, latency.edge_compute(compute), latency.encoding_numerator(app)
    )


def reference_candidates(analyzer: FleetAnalyzer, reports: dict):
    """Per-user candidates: each user resolves its own apps and reports."""
    population = analyzer.population
    n_wants = sum(1 for user in population if user.wants_offload)
    remote_network = analyzer.contention.network_for(max(n_wants, 1))
    keys = []
    for user in population:
        keys.append((user.device, _local_app(user), analyzer.network))
        keys.append((user.device, _remote_app(user), remote_network))
    analyzer._prime_reports(reports, keys)
    candidates = []
    for user in population:
        local = reports[user.device, _local_app(user), analyzer.network]
        remote = reports[user.device, _remote_app(user), remote_network]
        candidates.append(
            UserCandidate(
                name=user.name,
                wants_offload=user.wants_offload,
                frame_rate_fps=user.frame_rate_fps,
                service_time_ms=_scalar_service_time_ms(analyzer, user),
                local_latency_ms=local.total_latency_ms,
                remote_latency_ms=remote.total_latency_ms,
                local_energy_mj=local.total_energy_mj,
                remote_energy_mj=remote.total_energy_mj,
            )
        )
    return candidates


def reference_analyze(analyzer: FleetAnalyzer) -> FleetReport:
    """The per-user algorithm that the kind-grouped analyzer reproduces.

    Every user resolves its own reports and edge wait, and takes its edge
    service time from the scalar model.  Its reports are batch-evaluated
    with the same keys, in the same order, as the analyzer's own analysis.
    """
    population = analyzer.population
    network = analyzer.network
    fault_state = analyzer.fault_state
    reports = {}
    candidates = reference_candidates(analyzer, reports)
    decisions, forced_local = analyzer._placements_under_faults(candidates)
    by_name = {candidate.name: candidate for candidate in candidates}
    offloaders = [decision for decision in decisions if decision.offload]
    contended = (
        analyzer.contention.network_for(len(offloaders)) if offloaders else network
    )
    edge_scale = [
        fault_state.service_scale(index) if fault_state is not None else 1.0
        for index in range(analyzer.n_edges)
    ]
    # Each edge sums its tenants' raw rate * service, and its service scale
    # multiplies the sum once.
    edge_rates = [0.0] * analyzer.n_edges
    edge_sums = [0.0] * analyzer.n_edges
    for decision in offloaders:
        candidate = by_name[decision.name]
        edge = decision.edge_index
        edge_rates[edge] += candidate.arrival_rate_per_ms
        edge_sums[edge] += candidate.arrival_rate_per_ms * candidate.service_time_ms
    edge_busy = [
        total * scale if total else 0.0 for total, scale in zip(edge_sums, edge_scale)
    ]
    analyzer._prime_reports(
        reports,
        [
            (user.device, _remote_app(user), contended)
            if decision.offload
            else (user.device, _local_app(user), network)
            for user, decision in zip(population, decisions)
        ],
    )
    outcomes = []
    for user, decision in zip(population, decisions):
        candidate = by_name[user.name]
        if decision.offload:
            app, user_network = _remote_app(user), contended
            edge = decision.edge_index
            scale = edge_scale[edge]
            if edge_busy[edge] >= 1.0:
                wait_ms = math.inf
            else:
                background = max(edge_rates[edge] - candidate.arrival_rate_per_ms, 0.0)
                background_busy = max(
                    edge_busy[edge]
                    - candidate.arrival_rate_per_ms * candidate.service_time_ms * scale,
                    0.0,
                )
                wait_ms = analyzer.scheduler.tagged_waiting_time_ms(
                    candidate.service_time_ms * scale,
                    background,
                    background_busy / background if background > 0.0 else None,
                )
        else:
            app, user_network, wait_ms = _local_app(user), network, 0.0
        report = reports[user.device, app, user_network]
        wait_energy_mj = (
            user_network.radio_idle_power_w * wait_ms if wait_ms != math.inf else 0.0
        )
        fresh_fraction = None
        if report.aoi is not None and report.aoi.roi:
            fresh_fraction = len(report.aoi.fresh_sensors()) / len(report.aoi.roi)
        outcomes.append(
            UserOutcome(
                user=user.name,
                device=user.device,
                mode=app.inference.mode.value,
                offloaded=decision.offload,
                edge_index=decision.edge_index,
                throughput_mbps=user_network.throughput_mbps,
                edge_wait_ms=wait_ms,
                latency_ms=report.total_latency_ms + wait_ms,
                energy_mj=report.total_energy_mj + wait_energy_mj,
                report=report,
                aoi_fresh_fraction=fresh_fraction,
            )
        )
    return FleetReport.from_outcomes(
        outcomes,
        edge_utilizations=edge_busy,
        slo_ms=analyzer.slo_ms,
        availability=fault_state.availability if fault_state is not None else 1.0,
        n_edges_alive=fault_state.n_edges_alive if fault_state is not None else None,
        fault_forced_local=forced_local,
    )


POPULATIONS = ("homogeneous", "mixed_devices", "mixed_workloads", "with_mode")
POLICIES = ("round-robin", "greedy", "energy")
FAULTS = (None, "dead-edge", "all-dead", "brownout", "straggler", "link")
#: Two seeded cases per (population, policy, fault state) combination.
N_CASES = 2 * len(POPULATIONS) * len(POLICIES) * len(FAULTS)


def _seeded_population(kind: str, rng: random.Random):
    remote = ApplicationConfig.object_detection_default().with_mode(ExecutionMode.REMOTE)
    local = remote.with_mode(ExecutionMode.LOCAL)
    edited = ApplicationConfig(
        frame_side_px=rng.choice((300.0, 600.0)),
        frame_rate_fps=rng.choice((5.0, 15.0, 30.0)),
    ).with_mode(ExecutionMode.REMOTE)
    devices = ("XR1", "XR2", "XR3", "XR6")
    n_users = rng.randint(1, 24)
    if kind == "homogeneous":
        return homogeneous(
            n_users, device=rng.choice(devices), app=rng.choice((remote, local, edited))
        )
    if kind == "mixed_devices":
        return mixed_devices(
            n_users,
            devices=tuple(rng.sample(devices, rng.randint(2, 4))),
            app=rng.choice((remote, edited)),
        )
    apps = [remote, local, edited]
    rng.shuffle(apps)
    population = _cycling_workloads(n_users, apps, device=rng.choice(devices))
    if kind == "with_mode":
        # Every user gets an app object of its own, so users of one
        # workload hold equal apps in distinct objects.
        return FleetPopulation(
            users=tuple(
                replace(user, app=user.app.with_mode(ExecutionMode.REMOTE))
                for user in population
            )
        )
    return population


def _fault_state(kind, n_edges: int, rng: random.Random):
    if kind is None:
        return None
    capacity = [1.0] * n_edges
    service = [1.0] * n_edges
    throughput_factor, handoff_boost = 1.0, 0.0
    if kind == "dead-edge":
        capacity[rng.randrange(n_edges)] = 0.0
    elif kind == "all-dead":
        capacity = [0.0] * n_edges
    elif kind == "brownout":
        capacity = [rng.choice((0.25, 0.5, 1.0)) for _ in range(n_edges)]
    elif kind == "straggler":
        service[rng.randrange(n_edges)] = rng.choice((1.5, 3.0))
    else:
        throughput_factor, handoff_boost = 0.5, 0.05
    return EpochFaultState(
        0, n_edges, tuple(capacity), tuple(service), throughput_factor, handoff_boost
    )


def _analyzer_args(case: int) -> dict:
    """Seeded analyzer arguments for one case.

    The cases cycle through every population, policy and fault state, with
    ``n_edges`` in 1..5 and AoI on and off.
    """
    population = POPULATIONS[case % len(POPULATIONS)]
    policy = POLICIES[case // len(POPULATIONS) % len(POLICIES)]
    fault = FAULTS[case // (len(POPULATIONS) * len(POLICIES)) % len(FAULTS)]
    rng = random.Random(case)
    n_edges = 1 + case % 5
    slo_ms = rng.uniform(500.0, 1500.0)
    return {
        "population": _seeded_population(population, rng),
        "n_edges": n_edges,
        "policy": {
            "round-robin": RoundRobinAdmission(),
            "greedy": GreedySLOAdmission(slo_ms=slo_ms),
            "energy": EnergyAwareAdmission(),
        }[policy],
        "slo_ms": slo_ms,
        "include_aoi": case % 2 == 0,
        "fault_state": _fault_state(fault, n_edges, rng),
    }


def _assert_same_report(report: FleetReport, expected: FleetReport) -> None:
    # repr renders every float exactly, so equal reprs mean equal bits.
    assert repr(report) == repr(expected)
    for outcome, reference in zip(report.outcomes, expected.outcomes):
        assert repr(outcome.report) == repr(reference.report)


class TestKindsMatchPerUserReference:
    @pytest.mark.parametrize("case", range(N_CASES))
    def test_report_matches_reference_bit_for_bit(self, case):
        args = _analyzer_args(case)
        report = FleetAnalyzer(**args).analyze()
        _assert_same_report(report, reference_analyze(FleetAnalyzer(**args)))

    @pytest.mark.parametrize("case", range(len(POPULATIONS)))
    def test_candidates_match_reference(self, case):
        args = _analyzer_args(case)
        analyzer = FleetAnalyzer(**args)
        _, candidates = analyzer._candidates({}, *analyzer._kinds())
        assert repr(candidates) == repr(reference_candidates(FleetAnalyzer(**args), {}))

    def test_one_wait_per_kind_and_edge(self, monkeypatch):
        apps = tuple(
            ApplicationConfig(frame_side_px=side, frame_rate_fps=2.0).with_mode(
                ExecutionMode.REMOTE
            )
            for side in (300.0, 450.0, 600.0)
        )
        args = {
            "population": _cycling_workloads(24, apps),
            "n_edges": 4,
            "policy": RoundRobinAdmission(),
        }
        calls = []
        tenant_wait_ms = EdgeScheduler.tenant_wait_ms

        def counting(self, *wait_args):
            calls.append(wait_args)
            return tenant_wait_ms(self, *wait_args)

        monkeypatch.setattr(EdgeScheduler, "tenant_wait_ms", counting)
        report = FleetAnalyzer(**args).analyze()
        monkeypatch.undo()
        # 24 offloaders on stable edges: one wait per (kind, edge) is 12.
        assert report.n_offloaded == 24
        assert max(report.edge_utilizations) < 1.0
        assert 0 < len(calls) <= 3 * 4
        _assert_same_report(report, reference_analyze(FleetAnalyzer(**args)))


class TestFleetReport:
    def test_summary_mentions_percentiles_and_energy(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(8, device="XR1", app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
            slo_ms=SLO_MS,
        ).analyze()
        text = report.summary()
        for token in ("p50", "p95", "p99", "fleet total", "SLO"):
            assert token in text

    def test_energy_aggregates_sum_per_user(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(4, device="XR1", app=remote_fleet_app),
            policy=GreedySLOAdmission(slo_ms=SLO_MS),
        ).analyze()
        assert report.total_energy_mj == pytest.approx(
            sum(outcome.energy_mj for outcome in report.outcomes)
        )

    def test_slo_violation_count(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(3, device="XR1", app=remote_fleet_app),
            slo_ms=1.0,  # impossible budget: everyone violates
        ).analyze()
        assert report.slo_violations == report.n_users
        assert not report.meets_slo()

    def test_meets_slo_requires_a_budget(self, remote_fleet_app):
        report = FleetAnalyzer(
            homogeneous(1, device="XR1", app=remote_fleet_app)
        ).analyze()
        with pytest.raises(ValueError):
            report.meets_slo()

    def test_zero_outcomes_yield_well_defined_report(self):
        # Regression: an all-rejected admission round used to blow up inside
        # NumPy's percentile machinery; it must degrade to NaN percentiles
        # with the SLO reported as not met.
        report = FleetReport.from_outcomes([], slo_ms=100.0)
        assert report.n_users == 0
        assert math.isnan(report.p50_latency_ms)
        assert math.isnan(report.p95_latency_ms)
        assert math.isnan(report.p99_latency_ms)
        assert math.isnan(report.mean_latency_ms)
        assert report.total_energy_mj == 0.0
        assert report.slo_violations == 0
        assert not report.meets_slo()
        assert not report.meets_slo(1e9)
        assert "0 users" in report.summary()

    def test_saturated_percentiles_use_order_statistics(self):
        finite = np.array([1.0, 2.0, 4.0])
        saturated = np.array([1.0, 2.0, math.inf])
        assert percentile_method(finite) == "linear"
        assert percentile_method(saturated) == "lower"
        # Linear interpolation next to an infinite sample would give NaN.
        with np.errstate(invalid="ignore"):
            assert math.isnan(np.percentile(saturated, 99, method="linear"))
        assert np.percentile(saturated, 99, method=percentile_method(saturated)) == 2.0


class TestBisectCapacity:
    def test_exact_threshold_found(self):
        capacity, capped, _ = bisect_capacity(lambda n: n <= 37, max_users=4096)
        assert capacity == 37
        assert not capped

    def test_infeasible_at_one(self):
        capacity, capped, evaluations = bisect_capacity(lambda n: False)
        assert capacity == 0
        assert not capped
        assert evaluations == 1

    def test_ceiling_reached(self):
        capacity, capped, _ = bisect_capacity(lambda n: True, max_users=100)
        assert capacity == 100
        assert capped

    def test_logarithmic_evaluation_count(self):
        _, _, evaluations = bisect_capacity(lambda n: n <= 1000, max_users=4096)
        assert evaluations <= 2 * math.ceil(math.log2(4096)) + 2

    def test_invalid_ceiling_rejected(self):
        with pytest.raises(ConfigurationError):
            bisect_capacity(lambda n: True, max_users=0)


class TestPlanCapacity:
    def test_capacity_is_the_slo_boundary(self):
        plan = plan_capacity(device="XR1", edge="EDGE-AGX", slo_ms=SLO_MS)
        assert isinstance(plan, CapacityPlan)
        assert plan.feasible
        assert plan.p95_at_capacity_ms <= SLO_MS
        # One more user must violate the SLO.
        beyond = FleetAnalyzer(
            homogeneous(plan.max_users + 1, device="XR1"),
            policy=RoundRobinAdmission(),
        ).analyze()
        assert beyond.p95_latency_ms > SLO_MS

    def test_more_edges_mean_more_capacity(self):
        single = plan_capacity(device="XR1", slo_ms=SLO_MS, n_edges=1)
        double = plan_capacity(device="XR1", slo_ms=SLO_MS, n_edges=2)
        assert double.max_users > single.max_users

    def test_impossible_slo_is_infeasible(self):
        plan = plan_capacity(device="XR1", slo_ms=1.0)
        assert not plan.feasible
        assert plan.max_users == 0
        assert "infeasible" in plan.summary()

    def test_summary_mentions_capacity(self):
        plan = plan_capacity(device="XR1", slo_ms=SLO_MS)
        assert str(plan.max_users) in plan.summary()

    def test_all_local_fleet_is_planned_at_its_uncontended_p95(self):
        # Nobody offloads, so every user sees the same local latency: the
        # planner fits no user below the fleet's p95 and all 64 at or above it.
        app = ApplicationConfig().with_mode(ExecutionMode.LOCAL)
        p95 = FleetAnalyzer(homogeneous(64, device="XR1", app=app), n_edges=2).analyze()
        p95 = p95.p95_latency_ms
        plans = {
            slo: plan_capacity(device="XR1", app=app, n_edges=2, max_users=64, slo_ms=slo)
            for slo in (math.nextafter(p95, 0.0), p95, p95 + 1.0)
        }
        assert [plan.max_users for plan in plans.values()] == [0, 64, 64]
        assert plans[p95].p95_at_capacity_ms == p95

    def test_invalid_slo_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_capacity(slo_ms=-5.0)
        with pytest.raises(ConfigurationError):
            plan_capacity(slo_ms=float("nan"))

    def test_fractional_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="n_edges must be an integer"):
            plan_capacity(n_edges=1.5)
        with pytest.raises(ConfigurationError, match="max_users must be an integer"):
            plan_capacity(max_users=10.5)
        with pytest.raises(ConfigurationError, match="at least one edge"):
            plan_capacity(n_edges=0)


class TestPlanEdges:
    def test_minimal_edge_count_found(self):
        plan = plan_edges(device="XR1", n_users=8, slo_ms=SLO_MS, max_edges=16)
        assert isinstance(plan, EdgePlan)
        assert 1 <= plan.n_edges <= 16
        assert plan.p95_ms <= SLO_MS
        assert str(plan.n_edges) in plan.summary()
        if plan.n_edges > 1:
            # One fewer edge must violate the SLO (minimality).
            fewer = FleetAnalyzer(
                homogeneous(8, device="XR1"),
                n_edges=plan.n_edges - 1,
                policy=RoundRobinAdmission(),
            ).analyze()
            assert fewer.p95_latency_ms > SLO_MS

    def test_edge_counts_share_one_report_evaluation(self):
        # The contended channel depends on the fleet size alone, so the seven
        # edge counts the search probes share one per-user report.
        registry = telemetry.enable()
        try:
            plan = plan_edges(device="XR1", n_users=16, slo_ms=900.0, max_edges=64)
        finally:
            telemetry.disable()
        assert registry.snapshot()["spans"]["batch.evaluate_points"]["count"] == 1
        assert plan == EdgePlan(
            slo_ms=900.0, n_users=16, n_edges=8, p95_ms=796.5988697397872, evaluations=7
        )

    def test_unmeetable_slo_terminates_with_configuration_error(self):
        # The channel (not the edge count) is binding at a 1 ms SLO: the
        # search must probe the ceiling once and fail loudly instead of
        # looping or returning a bogus plan.
        with pytest.raises(ConfigurationError, match="unmeetable"):
            plan_edges(device="XR1", n_users=8, slo_ms=1.0, max_edges=8)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_edges(slo_ms=0.0)
        with pytest.raises(ConfigurationError):
            plan_edges(slo_ms=float("nan"))
        with pytest.raises(ConfigurationError):
            plan_edges(n_users=0)
        with pytest.raises(ConfigurationError):
            plan_edges(n_users=2.5)
        with pytest.raises(ConfigurationError):
            plan_edges(max_edges=0)
        with pytest.raises(ConfigurationError):
            plan_edges(max_edges=2.5)
