"""Random-walk mobility over a cellular coverage layout.

The paper models XR device mobility with a random-walk model and derives the
per-frame handoff probability ``P(HO)`` from it (Eq. 17, citing location
management analyses).  This module provides:

* :class:`CoverageLayout` — a hexagonal-like grid of circular coverage zones,
  each adjacent to the zones above, below, left and right of it,
* :class:`RandomWalkMobility` — a discrete-time random walk of the XR device,
  with both an analytical boundary-crossing probability and a Monte-Carlo
  trajectory sampler used by the simulated testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ModelDomainError


@dataclass
class CoverageLayout:
    """A grid of circular wireless coverage zones.

    Attributes:
        rows: number of zone rows.
        cols: number of zone columns.
        cell_radius_m: radius of each coverage zone.
        zones: the ``(row, col)`` zones in row-major order (derived).
    """

    rows: int = 3
    cols: int = 3
    cell_radius_m: float = 50.0
    zones: Tuple[Tuple[int, int], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError(
                f"layout must have positive dimensions, got {self.rows}x{self.cols}"
            )
        if self.cell_radius_m <= 0.0:
            raise ConfigurationError(
                f"cell radius must be > 0 m, got {self.cell_radius_m}"
            )
        self.zones = tuple((row, col) for row in range(self.rows) for col in range(self.cols))

    def check_zone(self, zone: Tuple[int, int]) -> None:
        """Raise ConfigurationError unless ``zone`` is a zone of the layout."""
        if zone not in self.zones:
            raise ConfigurationError(f"zone {zone!r} is outside the layout")

    def neighbors(self, zone: Tuple[int, int]) -> List[Tuple[int, int]]:
        """Adjacent zones, up/down/left/right: the walk's RNG indexes this order."""
        self.check_zone(zone)
        row, col = zone
        steps = ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1))
        return [(r, c) for r, c in steps if 0 <= r < self.rows and 0 <= c < self.cols]


@dataclass
class RandomWalkMobility:
    """Discrete-time random walk of the XR device over a coverage layout.

    Attributes:
        layout: the coverage layout the device roams over.
        speed_m_per_s: device speed.
        start_zone: starting zone (defaults to the layout centre).
        pause_probability: probability of not moving during a step.
    """

    layout: CoverageLayout
    speed_m_per_s: float = 1.4
    start_zone: Optional[Tuple[int, int]] = None
    pause_probability: float = 0.2

    def __post_init__(self) -> None:
        if self.speed_m_per_s < 0.0:
            raise ConfigurationError(
                f"speed must be >= 0 m/s, got {self.speed_m_per_s}"
            )
        if not 0.0 <= self.pause_probability <= 1.0:
            raise ConfigurationError(
                f"pause probability must be in [0, 1], got {self.pause_probability}"
            )
        if self.start_zone is None:
            self.start_zone = (self.layout.rows // 2, self.layout.cols // 2)
        self.layout.check_zone(self.start_zone)

    # -- analytical boundary-crossing probability --------------------------------

    def handoff_probability(self, interval_ms: float) -> float:
        """Probability the device crosses a zone boundary within ``interval_ms``.

        Under a random-walk/fluid-flow approximation, the boundary-crossing
        rate of a device moving at speed ``v`` inside a circular zone of
        radius ``R`` is ``v / (pi * R / 2) = 2 v / (pi R)`` crossings per
        second; the per-interval probability follows from the exponential
        residence-time approximation and is additionally scaled by the
        probability that the device is actually moving.
        """
        if interval_ms < 0.0:
            raise ModelDomainError(f"interval must be >= 0 ms, got {interval_ms}")
        if self.speed_m_per_s == 0.0 or interval_ms == 0.0:
            return 0.0
        crossing_rate_per_s = (
            2.0 * self.speed_m_per_s / (math.pi * self.layout.cell_radius_m)
        )
        moving_fraction = 1.0 - self.pause_probability
        interval_s = interval_ms / 1e3
        return moving_fraction * (1.0 - math.exp(-crossing_rate_per_s * interval_s))

    # -- Monte-Carlo trajectory ----------------------------------------------------

    def walk(
        self, n_steps: int, step_interval_ms: float, rng: np.random.Generator
    ) -> "MobilityTrace":
        """Sample a zone-level random-walk trajectory.

        Each step the device either pauses (with ``pause_probability``) or
        attempts to move towards a uniformly random neighbouring zone; the
        move succeeds with the analytical boundary-crossing probability for
        the step interval, which keeps the Monte-Carlo and analytical
        handoff statistics consistent.
        """
        if n_steps <= 0:
            raise ValueError(f"n_steps must be > 0, got {n_steps}")
        if step_interval_ms <= 0.0:
            raise ValueError(f"step interval must be > 0 ms, got {step_interval_ms}")
        handoffs: List[bool] = []
        crossing_probability = self.handoff_probability(step_interval_ms) / max(
            1.0 - self.pause_probability, 1e-9
        )
        crossing_probability = min(1.0, crossing_probability)
        current = self.start_zone
        for _ in range(n_steps):
            moved = False
            if rng.random() >= self.pause_probability:
                if rng.random() < crossing_probability:
                    neighbors = self.layout.neighbors(current)
                    if neighbors:
                        current = neighbors[rng.integers(0, len(neighbors))]
                        moved = True
            handoffs.append(moved)
        return MobilityTrace(handoff_flags=handoffs)


@dataclass(frozen=True)
class MobilityTrace:
    """Zone-level trajectory produced by :meth:`RandomWalkMobility.walk`.

    Attributes:
        handoff_flags: per step, whether the device moved to another zone.
    """

    handoff_flags: List[bool]
