"""Unit tests for the offloading planner."""

import pytest

from repro.config.application import ExecutionMode
from repro.core.energy import XREnergyModel
from repro.core.latency import XRLatencyModel
from repro.core.offloading import OffloadingPlanner, placement_candidates
from repro.core.power import PowerModel
from repro.exceptions import ConfigurationError


@pytest.fixture
def planner(device_spec, edge_spec):
    latency = XRLatencyModel(device=device_spec, edge=edge_spec)
    power = PowerModel(coefficients=latency.coefficients, device=device_spec)
    energy = XREnergyModel(latency_model=latency, power_model=power)
    return OffloadingPlanner(latency_model=latency, energy_model=energy)


class TestCandidates:
    def test_three_candidates_by_default(self, planner, app):
        candidates = planner.candidates(app)
        modes = [candidate.inference.mode for candidate in candidates]
        assert modes == [ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT]

    def test_multi_edge_candidates_split_evenly(self, planner, app):
        remote = planner.candidates(app, n_edge_servers=2)[1]
        assert remote.inference.edge_shares == (0.5, 0.5)

    def test_invalid_edge_count_rejected(self, planner, app):
        with pytest.raises(ConfigurationError):
            planner.candidates(app, n_edge_servers=0)

    def test_candidates_accessor_is_memoized(self, planner, app):
        first = planner.candidates(app)
        assert planner.candidates(app) is first
        assert planner.candidates(app, n_edge_servers=2) is not first

    def test_candidates_accessor_matches_module_level_derivation(self, planner, app):
        assert planner.candidates(app, n_edge_servers=2) == placement_candidates(
            app, n_edge_servers=2
        )

    def test_candidates_accessor_does_not_change_ranking(self, planner, app, network):
        """rank() through the accessor is identical to per-candidate evaluation."""
        ranked = planner.rank(app, network)
        rescored = sorted(
            (planner.evaluate(candidate, network) for candidate in planner.candidates(app)),
            key=lambda decision: decision.score,
        )
        assert [d.mode for d in ranked] == [d.mode for d in rescored]
        assert [d.score for d in ranked] == [d.score for d in rescored]


class TestRanking:
    def test_rank_returns_sorted_decisions(self, planner, app, network):
        decisions = planner.rank(app, network)
        scores = [decision.score for decision in decisions]
        assert scores == sorted(scores)
        assert len(decisions) == 3

    def test_best_is_first_of_rank(self, planner, app, network):
        assert planner.best(app, network).mode is planner.rank(app, network)[0].mode

    def test_latency_objective_scores_with_latency(self, planner, app, network):
        decision = planner.evaluate(app, network)
        assert decision.score == pytest.approx(decision.total_latency_ms)

    def test_energy_objective(self, device_spec, edge_spec, app, network):
        latency = XRLatencyModel(device=device_spec, edge=edge_spec)
        power = PowerModel(coefficients=latency.coefficients, device=device_spec)
        energy = XREnergyModel(latency_model=latency, power_model=power)
        planner = OffloadingPlanner(latency, energy, objective="energy")
        decision = planner.evaluate(app, network)
        assert decision.score == pytest.approx(decision.total_energy_mj)

    def test_weighted_objective_between_the_two(self, device_spec, edge_spec, app, network):
        latency = XRLatencyModel(device=device_spec, edge=edge_spec)
        power = PowerModel(coefficients=latency.coefficients, device=device_spec)
        energy = XREnergyModel(latency_model=latency, power_model=power)
        planner = OffloadingPlanner(latency, energy, objective="weighted", latency_weight=0.5)
        decision = planner.evaluate(app, network)
        assert min(decision.total_latency_ms, decision.total_energy_mj) <= decision.score
        assert decision.score <= max(decision.total_latency_ms, decision.total_energy_mj)

    def test_invalid_objective_rejected(self, planner):
        with pytest.raises(ConfigurationError):
            OffloadingPlanner(planner.latency_model, planner.energy_model, objective="speed")

    def test_describe_mentions_mode(self, planner, app, network):
        decision = planner.evaluate(app, network)
        assert decision.mode.value in decision.describe()
