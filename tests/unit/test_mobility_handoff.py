"""Unit tests for mobility (random walk) and handoff models (Eq. 17)."""

import hashlib
import json

import numpy as np
import pytest

from repro.adaptive import make_trace
from repro.config.network import HandoffConfig
from repro.exceptions import ConfigurationError
from repro.network.handoff import HandoffModel
from repro.network.mobility import CoverageLayout, RandomWalkMobility


class TestCoverageLayout:
    def test_grid_size(self):
        layout = CoverageLayout(rows=3, cols=4)
        assert len(layout.zones) == 12

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            CoverageLayout(rows=0, cols=3)


class TestRandomWalk:
    def test_handoff_probability_in_unit_interval(self):
        mobility = RandomWalkMobility(layout=CoverageLayout(), speed_m_per_s=1.4)
        probability = mobility.handoff_probability(33.3)
        assert 0.0 <= probability <= 1.0

    def test_stationary_device_never_hands_off(self):
        mobility = RandomWalkMobility(layout=CoverageLayout(), speed_m_per_s=0.0)
        assert mobility.handoff_probability(1000.0) == 0.0

    def test_faster_devices_hand_off_more(self):
        layout = CoverageLayout()
        slow = RandomWalkMobility(layout=layout, speed_m_per_s=1.0)
        fast = RandomWalkMobility(layout=layout, speed_m_per_s=10.0)
        assert fast.handoff_probability(100.0) > slow.handoff_probability(100.0)

    def test_walk_statistics_match_analytics(self, rng):
        mobility = RandomWalkMobility(
            layout=CoverageLayout(rows=9, cols=9), speed_m_per_s=8.0, pause_probability=0.0
        )
        trace = mobility.walk(n_steps=8000, step_interval_ms=100.0, rng=rng)
        analytical = mobility.handoff_probability(100.0)
        empirical = sum(trace.handoff_flags) / len(trace.handoff_flags)
        assert empirical == pytest.approx(analytical, rel=0.15)

    def test_start_zone_must_exist(self):
        with pytest.raises(ConfigurationError):
            RandomWalkMobility(layout=CoverageLayout(rows=2, cols=2), start_zone=(9, 9))


class TestZeroVelocityWalks:
    def test_zero_velocity_walk_never_moves(self, rng):
        mobility = RandomWalkMobility(layout=CoverageLayout(), speed_m_per_s=0.0)
        trace = mobility.walk(n_steps=500, step_interval_ms=33.0, rng=rng)
        assert sum(trace.handoff_flags) == 0

    def test_zero_velocity_handoff_probability_is_zero(self):
        mobility = RandomWalkMobility(layout=CoverageLayout(), speed_m_per_s=0.0)
        assert mobility.handoff_probability(33.0) == 0.0

    def test_always_paused_walk_never_moves(self, rng):
        mobility = RandomWalkMobility(
            layout=CoverageLayout(), speed_m_per_s=10.0, pause_probability=1.0
        )
        assert mobility.handoff_probability(100.0) == 0.0
        trace = mobility.walk(n_steps=200, step_interval_ms=100.0, rng=rng)
        assert sum(trace.handoff_flags) == 0


class TestSingleZoneLayouts:
    def test_single_zone_has_no_neighbors(self):
        layout = CoverageLayout(rows=1, cols=1)
        assert layout.zones == ((0, 0),)
        assert layout.neighbors((0, 0)) == []

    def test_walk_on_single_zone_stays_put(self, rng):
        layout = CoverageLayout(rows=1, cols=1)
        mobility = RandomWalkMobility(
            layout=layout, speed_m_per_s=50.0, pause_probability=0.0
        )
        trace = mobility.walk(n_steps=300, step_interval_ms=100.0, rng=rng)
        assert sum(trace.handoff_flags) == 0

    def test_single_zone_analytical_probability_is_still_defined(self):
        # The fluid-flow boundary-crossing rate does not know the graph has
        # nowhere to go; it only depends on speed and cell radius.
        layout = CoverageLayout(rows=1, cols=1, cell_radius_m=25.0)
        mobility = RandomWalkMobility(layout=layout, speed_m_per_s=1.4)
        assert 0.0 < mobility.handoff_probability(100.0) < 1.0

    def test_handoff_model_on_single_zone_layout(self):
        # A device that never moves never leaves its zone.
        model = HandoffModel(HandoffConfig(enabled=True, device_speed_m_per_s=0.0))
        assert model.mean_handoff_latency_ms(33.3) == 0.0


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestGridParity:
    """Neighbour order, walks and traces as recorded from networkx's ``grid_2d_graph``.

    ``RandomWalkMobility.walk`` indexes the neighbour list with its RNG, so
    the neighbour order is part of every seeded trajectory and trace.
    """

    @pytest.mark.parametrize(
        "rows, cols, zone, expected",
        [
            (3, 3, (0, 0), [(1, 0), (0, 1)]),
            (3, 3, (0, 1), [(1, 1), (0, 0), (0, 2)]),
            (3, 3, (1, 0), [(0, 0), (2, 0), (1, 1)]),
            (3, 3, (1, 1), [(0, 1), (2, 1), (1, 0), (1, 2)]),
            (3, 3, (2, 2), [(1, 2), (2, 1)]),
            (1, 5, (0, 0), [(0, 1)]),
            (1, 5, (0, 2), [(0, 1), (0, 3)]),
            (1, 5, (0, 4), [(0, 3)]),
            (5, 1, (0, 0), [(1, 0)]),
            (5, 1, (2, 0), [(1, 0), (3, 0)]),
            (5, 1, (4, 0), [(3, 0)]),
        ],
    )
    def test_neighbor_order(self, rows, cols, zone, expected):
        assert CoverageLayout(rows=rows, cols=cols).neighbors(zone) == expected

    def test_zones_are_row_major(self):
        layout = CoverageLayout(rows=2, cols=3)
        assert layout.zones == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))

    def test_seeded_walk_on_default_grid(self):
        mobility = RandomWalkMobility(
            layout=CoverageLayout(), speed_m_per_s=50.0, pause_probability=0.1
        )
        trace = mobility.walk(12, 500.0, np.random.default_rng(0))
        # The zones (1,1) -> (2,1) -> (1,1) -> (1,2) -> (1,1): four moves.
        assert [i for i, flag in enumerate(trace.handoff_flags) if flag] == [0, 5, 6, 9]

    @pytest.mark.parametrize(
        "rows, cols, seed, digest, moves",
        [
            (3, 3, 1, "2017ad3866d6bde40d24f21e326466ec1c82774e8659f60a2e86df22e148438c", 101),
            (1, 5, 2, "ff38fef1a52f3a59ae4fabf13700802a03d1c3dd786aca930265e54d0e9ce425", 109),
            (5, 1, 3, "5a43c7aeb55c5953b0c9ba86b0532d9f4f34393d3728a08497dfefbb4699fb31", 101),
            (4, 6, 4, "82c625a16944e1b2942cf1ddac311663c2ff0fbb3647bc5b8bf21230858e3f52", 94),
            (9, 9, 5, "6a81f1fe2ad50508e8e3e957e90d34bd8c64d5788e7484aa12b3c6a4e8c9bb03", 90),
        ],
    )
    def test_seeded_walks(self, rows, cols, seed, digest, moves):
        layout = CoverageLayout(rows=rows, cols=cols)
        mobility = RandomWalkMobility(layout=layout, speed_m_per_s=50.0, pause_probability=0.1)
        trace = mobility.walk(400, 500.0, np.random.default_rng(seed))
        assert sum(trace.handoff_flags) == moves
        assert _digest(trace.handoff_flags) == digest

    def test_mobility_trace_digest(self):
        trace = make_trace("mobility", 2000, seed=7)
        assert (
            _digest(trace.to_dict())
            == "a123b92a7dcb3864aa3f9d76ba22121f2781ad24a7a8dfdf72ffa1ce7c4e7100"
        )


class TestZoneValidation:
    @pytest.mark.parametrize("zone", [(-1, 1), (1, 3), (1,), (1, 1, 1), [1, 1]])
    def test_start_zone_outside_layout_rejected(self, zone):
        # An unhashable list must fail as a ConfigurationError, not a TypeError.
        with pytest.raises(ConfigurationError):
            RandomWalkMobility(layout=CoverageLayout(), start_zone=zone)

    @pytest.mark.parametrize("zone", [(3, 0), (-1, 0), (0, 3), (0, -1), (1,), [1, 1]])
    def test_zone_outside_layout_rejected(self, zone):
        layout = CoverageLayout()
        with pytest.raises(ConfigurationError):
            layout.neighbors(zone)
        with pytest.raises(ConfigurationError):
            layout.check_zone(zone)


class TestHandoffModel:
    def test_disabled_handoff_costs_nothing(self):
        model = HandoffModel(HandoffConfig(enabled=False))
        assert model.mean_handoff_latency_ms(33.3) == 0.0

    def test_explicit_probability_used(self):
        config = HandoffConfig(enabled=True, handoff_probability=0.1, handoff_latency_ms=200.0)
        model = HandoffModel(config)
        assert model.mean_handoff_latency_ms(33.3) == pytest.approx(20.0)

    def test_eq17_is_product_of_latency_and_probability(self):
        config = HandoffConfig(enabled=True)
        model = HandoffModel(config)
        period = 33.3
        expected = model.single_handoff_latency_ms() * model.handoff_probability(period)
        assert model.mean_handoff_latency_ms(period) == pytest.approx(expected)
