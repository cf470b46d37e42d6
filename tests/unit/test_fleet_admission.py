"""Unit tests for the admission-control and placement policies."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.fleet.admission import (
    EnergyAwareAdmission,
    GreedySLOAdmission,
    RoundRobinAdmission,
    UserCandidate,
)


def make_candidate(
    name: str,
    wants_offload: bool = True,
    service_time_ms: float = 10.0,
    remote_latency_ms: float = 700.0,
    local_energy_mj: float = 1000.0,
    remote_energy_mj: float = 600.0,
) -> UserCandidate:
    return UserCandidate(
        name=name,
        wants_offload=wants_offload,
        frame_rate_fps=30.0,
        service_time_ms=service_time_ms,
        local_latency_ms=300.0,
        remote_latency_ms=remote_latency_ms,
        local_energy_mj=local_energy_mj,
        remote_energy_mj=remote_energy_mj,
    )


class TestRoundRobin:
    def test_cycles_edges(self):
        candidates = [make_candidate(f"u{i}") for i in range(5)]
        decisions = RoundRobinAdmission().assign(candidates, n_edges=2)
        assert [d.edge_index for d in decisions] == [0, 1, 0, 1, 0]
        assert all(d.offload for d in decisions)

    def test_respects_local_preference(self):
        candidates = [
            make_candidate("remote"),
            make_candidate("local", wants_offload=False),
        ]
        decisions = RoundRobinAdmission().assign(candidates, n_edges=1)
        assert decisions[0].offload
        assert not decisions[1].offload
        assert decisions[1].edge_index is None

    def test_zero_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundRobinAdmission().assign([make_candidate("u")], n_edges=0)


@pytest.mark.parametrize(
    "policy",
    (RoundRobinAdmission(), GreedySLOAdmission(slo_ms=10_000.0), EnergyAwareAdmission()),
    ids=("round-robin", "greedy", "energy"),
)
class TestEdgeCount:
    def test_fractional_edge_count_rejected(self, policy):
        candidates = [make_candidate(f"u{i}") for i in range(3)]
        for n_edges in (2.5, float("nan"), 2.0):
            with pytest.raises(ConfigurationError, match="n_edges must be an integer"):
                policy.assign(candidates, n_edges=n_edges)

    def test_numpy_integer_edge_count_accepted(self, policy):
        candidates = [make_candidate(f"u{i}") for i in range(3)]
        assert policy.assign(candidates, n_edges=np.int64(2)) == policy.assign(
            candidates, n_edges=2
        )


class TestGreedySLO:
    def test_admits_until_stability_cap(self):
        # Each user offers rho = 0.03 * 10 = 0.3; the cap of 0.95 fits three.
        candidates = [make_candidate(f"u{i}") for i in range(6)]
        policy = GreedySLOAdmission(slo_ms=10_000.0)
        decisions = policy.assign(candidates, n_edges=1)
        assert [d.offload for d in decisions] == [True, True, True, False, False, False]

    def test_rejects_when_predicted_latency_misses_slo(self):
        candidates = [make_candidate(f"u{i}") for i in range(4)]
        # Uncontended remote latency already eats most of the budget; the
        # first tenant fits, queueing pushes the rest over.
        policy = GreedySLOAdmission(slo_ms=705.0)
        decisions = policy.assign(candidates, n_edges=1)
        assert decisions[0].offload
        assert not all(d.offload for d in decisions[1:])

    def test_slo_too_tight_for_anyone(self):
        decisions = GreedySLOAdmission(slo_ms=100.0).assign(
            [make_candidate("u0")], n_edges=1
        )
        assert not decisions[0].offload

    def test_spreads_across_edges(self):
        candidates = [make_candidate(f"u{i}") for i in range(4)]
        decisions = GreedySLOAdmission(slo_ms=10_000.0).assign(candidates, n_edges=2)
        edges = [d.edge_index for d in decisions if d.offload]
        assert set(edges) == {0, 1}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedySLOAdmission(slo_ms=0.0)
        with pytest.raises(ConfigurationError):
            GreedySLOAdmission(slo_ms=float("nan"))


class TestEnergyAware:
    def test_biggest_savers_admitted_first(self):
        # Per-user rho is 0.03 * 7.8 = 0.234: the fixed cap of 0.9 fits three
        # of the four, and the fourth (0.936) would still fit under 0.95.
        assert EnergyAwareAdmission.UTILIZATION_CAP == 0.9
        candidates = [
            make_candidate(name, service_time_ms=7.8, remote_energy_mj=energy)
            for name, energy in (
                ("small", 950.0),
                ("medium", 700.0),
                ("large", 100.0),
                ("larger", 400.0),
            )
        ]
        decisions = EnergyAwareAdmission().assign(candidates, n_edges=1)
        decisions = {d.name: d for d in decisions}
        assert decisions["large"].offload
        assert decisions["larger"].offload
        assert decisions["medium"].offload
        assert not decisions["small"].offload
        assert "cap" in decisions["small"].reason

    def test_energy_losers_stay_local(self):
        candidates = [make_candidate("loser", remote_energy_mj=2000.0)]
        decisions = EnergyAwareAdmission().assign(candidates, n_edges=1)
        assert not decisions[0].offload
        assert "cost" in decisions[0].reason

    def test_preserves_candidate_order(self):
        candidates = [
            make_candidate("b", remote_energy_mj=100.0),
            make_candidate("a", remote_energy_mj=900.0),
        ]
        decisions = EnergyAwareAdmission().assign(candidates, n_edges=1)
        assert [d.name for d in decisions] == ["b", "a"]

    def test_local_preference_respected(self):
        candidates = [make_candidate("local", wants_offload=False)]
        decisions = EnergyAwareAdmission().assign(candidates, n_edges=1)
        assert not decisions[0].offload


class TestServiceScales:
    """Policies weigh each edge's load by its service scale (brownout, straggler)."""

    @pytest.mark.parametrize(
        "policy",
        (GreedySLOAdmission(slo_ms=10_000.0), EnergyAwareAdmission()),
        ids=("greedy", "energy"),
    )
    def test_cap_and_least_loaded_edge_use_scaled_load(self, policy):
        # Each user offers rho = 0.3, 0.9 on edge 0 (scale 3).  Unscaled, the
        # six users would alternate edges; scaled, edge 0 takes only the
        # first and edge 1 fills up to the cap.
        candidates = [make_candidate(f"u{i}") for i in range(6)]
        decisions = policy.assign(candidates, n_edges=2, service_scales=[3.0, 1.0])
        assert [d.edge_index for d in decisions] == [0, 1, 1, 1, None, None]
        unscaled = policy.assign(candidates, n_edges=2)
        assert [d.edge_index for d in unscaled] == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize(
        "policy",
        (RoundRobinAdmission(), GreedySLOAdmission(slo_ms=10_000.0), EnergyAwareAdmission()),
        ids=("round-robin", "greedy", "energy"),
    )
    def test_unit_scales_change_nothing(self, policy):
        candidates = [make_candidate(f"u{i}", service_time_ms=4.0) for i in range(9)]
        assert policy.assign(candidates, 2, service_scales=[1.0, 1.0]) == policy.assign(
            candidates, 2
        )

    def test_round_robin_ignores_scales(self):
        candidates = [make_candidate(f"u{i}") for i in range(5)]
        policy = RoundRobinAdmission()
        assert policy.assign(candidates, 2, service_scales=[3.0, 1.0]) == policy.assign(
            candidates, 2
        )

    def test_greedy_predicts_the_scaled_wait(self):
        # Two users of rho 0.15 on one edge: unscaled, the second waits
        # 0.66 ms behind the first; at scale 2 it waits 3.2 ms, past the SLO.
        candidates = [make_candidate(f"u{i}", service_time_ms=5.0) for i in range(2)]
        policy = GreedySLOAdmission(slo_ms=702.0)
        assert all(d.offload for d in policy.assign(candidates, 1))
        scaled = policy.assign(candidates, 1, service_scales=[2.0])
        assert [d.offload for d in scaled] == [True, False]

    @pytest.mark.parametrize(
        "policy",
        (GreedySLOAdmission(slo_ms=10_000.0), EnergyAwareAdmission()),
        ids=("greedy", "energy"),
    )
    def test_invalid_scales_rejected(self, policy):
        candidates = [make_candidate("u")]
        for scales in ([1.0], [1.0, 0.0], [1.0, float("nan")], [1.0, float("inf")]):
            with pytest.raises(ConfigurationError, match="service scales"):
                policy.assign(candidates, 2, service_scales=scales)


class TestCandidateDerivedQuantities:
    def test_arrival_rate(self):
        assert make_candidate("u").arrival_rate_per_ms == pytest.approx(0.03)

    def test_energy_saving(self):
        candidate = make_candidate("u", local_energy_mj=900.0, remote_energy_mj=650.0)
        assert candidate.energy_saving_mj == pytest.approx(250.0)
