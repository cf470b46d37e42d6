"""Offloading decision helpers built on top of the analytical models.

The paper's framework models both local and remote execution (and split
execution across the client and multiple edge servers); a common consumer
question is "where should this frame's inference run?".
:class:`OffloadingPlanner` answers it by evaluating the candidate placements
with the latency and energy models and ranking them under a configurable
objective (latency, energy, or a weighted combination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config.application import ApplicationConfig, ExecutionMode
from repro.config.network import NetworkConfig
from repro.core.energy import XREnergyModel
from repro.core.latency import XRLatencyModel
from repro.core.results import EnergyBreakdown, LatencyBreakdown
from repro.exceptions import ConfigurationError

#: Supported ranking objectives.
OBJECTIVES = ("latency", "energy", "weighted")


def placement_candidates(
    app: ApplicationConfig, n_edge_servers: int = 1
) -> Tuple[ApplicationConfig, ...]:
    """The candidate placements of one application: local, remote, even split.

    This is the pure derivation behind :meth:`OffloadingPlanner.candidates`;
    it needs no models, so consumers that only want the placement variants
    (e.g. the adaptive layer's candidate grids) can use it directly.
    """
    return tuple(
        app.with_placement(mode, n_edge_servers)
        for mode in (ExecutionMode.LOCAL, ExecutionMode.REMOTE, ExecutionMode.SPLIT)
    )


@dataclass(frozen=True)
class OffloadingDecision:
    """Outcome of evaluating one candidate placement.

    Attributes:
        mode: the placement (local / remote / split).
        edge_shares: per-edge task shares used by the candidate.
        latency: the latency breakdown of the candidate.
        energy: the energy breakdown of the candidate.
        score: the objective value used for ranking (lower is better).
    """

    mode: ExecutionMode
    edge_shares: Tuple[float, ...]
    latency: LatencyBreakdown
    energy: EnergyBreakdown
    score: float

    @property
    def total_latency_ms(self) -> float:
        """End-to-end latency of the candidate."""
        return self.latency.total_ms

    @property
    def total_energy_mj(self) -> float:
        """End-to-end energy of the candidate."""
        return self.energy.total_mj

    def describe(self) -> str:
        """One-line human-readable description."""
        shares = ", ".join(f"{share:.2f}" for share in self.edge_shares) or "-"
        return (
            f"{self.mode.value:>6s} (edge shares: {shares}): "
            f"{self.total_latency_ms:.1f} ms, {self.total_energy_mj:.1f} mJ"
        )


class OffloadingPlanner:
    """Ranks inference placements for one application/network configuration."""

    def __init__(
        self,
        latency_model: XRLatencyModel,
        energy_model: XREnergyModel,
        objective: str = "latency",
        latency_weight: float = 0.5,
    ) -> None:
        if objective not in OBJECTIVES:
            raise ConfigurationError(
                f"objective must be one of {OBJECTIVES}, got {objective!r}"
            )
        if not 0.0 <= latency_weight <= 1.0:
            raise ConfigurationError(
                f"latency weight must be in [0, 1], got {latency_weight}"
            )
        self.latency_model = latency_model
        self.energy_model = energy_model
        self.objective = objective
        self.latency_weight = latency_weight
        self._candidate_cache: Dict[
            Tuple[ApplicationConfig, int], Tuple[ApplicationConfig, ...]
        ] = {}

    # -- candidate construction ------------------------------------------------------

    def candidates(
        self, app: ApplicationConfig, n_edge_servers: int = 1
    ) -> Tuple[ApplicationConfig, ...]:
        """The candidate placements of ``app``: local, remote, and an even split.

        Memoized per planner, so repeated :meth:`rank` calls (and adaptive
        controllers re-ranking every epoch) do not re-derive the three
        placements each time.
        """
        key = (app, n_edge_servers)
        cached = self._candidate_cache.get(key)
        if cached is None:
            cached = placement_candidates(app, n_edge_servers=n_edge_servers)
            self._candidate_cache[key] = cached
        return cached

    # -- scoring ------------------------------------------------------------------------

    def _score(self, latency: LatencyBreakdown, energy: EnergyBreakdown) -> float:
        if self.objective == "latency":
            return latency.total_ms
        if self.objective == "energy":
            return energy.total_mj
        # Weighted objective on normalised quantities: milliseconds and
        # millijoules are of similar magnitude for the paper's workloads, so a
        # simple convex combination is adequate for ranking.
        return (
            self.latency_weight * latency.total_ms
            + (1.0 - self.latency_weight) * energy.total_mj
        )

    def evaluate(
        self, app: ApplicationConfig, network: Optional[NetworkConfig] = None
    ) -> OffloadingDecision:
        """Evaluate a single, fully-specified placement."""
        if network is None:
            network = NetworkConfig()
        latency = self.latency_model.end_to_end(app, network)
        energy = self.energy_model.from_latency_breakdown(latency, app, network)
        return OffloadingDecision(
            mode=app.inference.mode,
            edge_shares=tuple(app.inference.edge_shares),
            latency=latency,
            energy=energy,
            score=self._score(latency, energy),
        )

    def rank(
        self,
        app: ApplicationConfig,
        network: Optional[NetworkConfig] = None,
        n_edge_servers: int = 1,
    ) -> List[OffloadingDecision]:
        """Evaluate all candidate placements, best (lowest score) first.

        The three candidates differ structurally (execution mode), so the
        batch engine cannot group them; per-candidate scalar evaluation is
        the faster path here and honours any customized energy model.
        """
        candidates = self.candidates(app, n_edge_servers=n_edge_servers)
        decisions = [self.evaluate(candidate, network) for candidate in candidates]
        return sorted(decisions, key=lambda decision: decision.score)

    def best(
        self,
        app: ApplicationConfig,
        network: Optional[NetworkConfig] = None,
        n_edge_servers: int = 1,
    ) -> OffloadingDecision:
        """The best placement under the configured objective."""
        return self.rank(app, network, n_edge_servers=n_edge_servers)[0]
