"""Handoff probability and latency models (Eq. 17).

The average per-frame handoff latency in the end-to-end model is::

    L_HO = l_HO * P(HO)

written once, in :func:`handoff_ms`, which the scalar model and the batch
engine both call.  ``P(HO)`` comes either from the configuration directly
or from the random-walk mobility model; ``l_HO`` is the configured latency
of one handoff (``HandoffConfig.handoff_latency_ms``).
"""

from __future__ import annotations

from repro.config.network import HandoffConfig
from repro.core.numeric import ArrayLike
from repro.exceptions import ModelDomainError
from repro.network.mobility import CoverageLayout, RandomWalkMobility


def handoff_ms(handoff_latency_ms: ArrayLike, handoff_probability: ArrayLike) -> ArrayLike:
    """Eq. (17): the average handoff latency charged to one frame.

    ``L_HO = l_HO * P(HO)``, on floats or on aligned NumPy arrays.
    """
    return handoff_latency_ms * handoff_probability


class HandoffModel:
    """Average per-frame handoff latency model.

    Args:
        config: the handoff configuration (enabled flag, explicit probability
            or mobility parameters, single-handoff latency).  ``P(HO)`` comes
            from the configured probability when set, otherwise from a random
            walk over a 3x3 layout with the configured cell radius and speed.
    """

    def __init__(self, config: HandoffConfig) -> None:
        self.config = config
        layout = CoverageLayout(cell_radius_m=config.cell_radius_m)
        self.mobility = RandomWalkMobility(
            layout=layout, speed_m_per_s=config.device_speed_m_per_s
        )

    # -- components ---------------------------------------------------------------

    def single_handoff_latency_ms(self) -> float:
        """Latency ``l_HO`` of one handoff."""
        return self.config.handoff_latency_ms

    def handoff_probability(self, frame_period_ms: float) -> float:
        """Per-frame handoff probability ``P(HO)``."""
        if frame_period_ms < 0.0:
            raise ModelDomainError(
                f"frame period must be >= 0 ms, got {frame_period_ms}"
            )
        if not self.config.enabled:
            return 0.0
        if self.config.handoff_probability is not None:
            return self.config.handoff_probability
        return self.mobility.handoff_probability(frame_period_ms)

    # -- Eq. (17) -------------------------------------------------------------------

    def mean_handoff_latency_ms(self, frame_period_ms: float) -> float:
        """Average handoff latency charged to one frame, ``l_HO * P(HO)``."""
        if not self.config.enabled:
            return 0.0
        return handoff_ms(
            self.single_handoff_latency_ms(), self.handoff_probability(frame_period_ms)
        )
