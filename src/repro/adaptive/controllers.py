"""Operating-point controllers for the adaptive runtime.

A controller sees the current epoch's :class:`EpochConditions` *before*
committing to an operating point (conditions are measured at the epoch
boundary and held for the epoch), decides an index into the runtime's
candidate list, and may update internal state from the realised
:class:`~repro.adaptive.runtime.EpochOutcome` afterwards.

Four controllers are provided, from dumbest to smartest:

* :class:`StaticBaseline` — pins one candidate (the reference every
  adaptive policy is compared against),
* :class:`HysteresisThreshold` — a two-rung ladder (offload / fallback)
  switched by throughput and handoff-probability thresholds with a
  hysteresis band and an upgrade dwell,
* :class:`GreedyBatchSweep` — evaluates the full candidate grid under the
  epoch's conditions through the batch engine and picks the best feasible
  point (per-epoch regret-free: it misses a deadline only in epochs where
  *every* candidate misses),
* :class:`EwmaPredictive` — an EWMA/bandit-style controller: it predicts
  the next conditions with a conservative exponentially-weighted blend
  (pessimistic for throughput, optimistic for handoffs never), selects
  against the prediction, and explores epsilon-greedily among the
  predicted-feasible candidates with a seeded generator.

All controllers are deterministic given their construction arguments (the
exploration in :class:`EwmaPredictive` is driven by a seed), which is what
makes adaptation runs bit-replayable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol, Type, runtime_checkable

import numpy as np

from repro.adaptive.traces import EpochConditions
from repro.config.validation import ensure_integer, ensure_non_negative
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adaptive.runtime import ControlContext, EpochOutcome


@runtime_checkable
class Controller(Protocol):
    """The contract :class:`~repro.adaptive.runtime.AdaptiveRuntime` drives.

    ``state`` returns everything ``decide`` and ``observe`` mutate as one
    value that compares by ``==``, and ``restore`` puts such a value back;
    ``restore(state())`` must be a no-op.  The co-simulation
    (:class:`~repro.cosim.engine.CoSimulation`) relies on the pair because
    its best-response search calls ``decide`` several times per epoch, each
    time from the epoch-start state.  The single-user runtime calls neither.
    """

    name: str

    def reset(self, context: "ControlContext") -> None:
        """Prepare for a fresh run (called once before the first epoch)."""

    def decide(
        self, epoch: int, conditions: EpochConditions, context: "ControlContext"
    ) -> int:
        """Choose a candidate index for the epoch that is about to run."""

    def observe(
        self, epoch: int, conditions: EpochConditions, outcome: "EpochOutcome"
    ) -> None:
        """Digest the realised outcome of the epoch just decided."""

    def state(self) -> object:
        """The controller's mutable state as an equality-comparable value."""

    def restore(self, state: object) -> None:
        """Return to a value previously taken by :meth:`state`."""


class ControllerBase:
    """No-op ``reset``/``observe`` so controllers implement ``decide``.

    ``state``/``restore`` get no default: ``()`` would be silently wrong for
    a stateful subclass, so every controller states its own.
    """

    name = "controller"

    def reset(self, context: "ControlContext") -> None:
        del context

    def observe(
        self, epoch: int, conditions: EpochConditions, outcome: "EpochOutcome"
    ) -> None:
        del epoch, conditions, outcome


class StaticBaseline(ControllerBase):
    """Always run the same operating point.

    Args:
        index: candidate index to pin.
    """

    def __init__(self, index: int) -> None:
        self.index = ensure_non_negative(
            "candidate index", ensure_integer("candidate index", index)
        )
        self.name = f"static[{self.index}]"

    def reset(self, context: "ControlContext") -> None:
        if self.index >= context.n_candidates:
            raise ConfigurationError(
                f"static index {self.index} out of range for "
                f"{context.n_candidates} candidates"
            )

    def decide(
        self, epoch: int, conditions: EpochConditions, context: "ControlContext"
    ) -> int:
        del epoch, conditions, context
        return self.index

    def state(self) -> tuple:
        return ()

    def restore(self, state: tuple) -> None:
        del state


class HysteresisThreshold(ControllerBase):
    """Two-rung offload/fallback ladder with a hysteresis band.

    The controller engages the *offload* rung when the channel is good
    (throughput at or above :attr:`HIGH_MBPS` and handoff probability at or
    below :attr:`HANDOFF_CAP`) and drops to the *fallback* rung as soon as
    the channel leaves the band (throughput below :attr:`LOW_MBPS` or
    handoff probability above the cap).  In between, it keeps its current
    rung — the hysteresis that suppresses flapping.  Downgrades are
    immediate; upgrades additionally wait :attr:`MIN_DWELL_EPOCHS` after any
    switch.

    The rungs are derived from the candidate set at :meth:`reset` time:

    * *offload* is the context's selection under the **worst in-band**
      conditions (:attr:`LOW_MBPS`, :attr:`HANDOFF_CAP`) — by latency
      monotonicity it therefore meets the deadline at every epoch the
      controller keeps it engaged,
    * *fallback* is the selection under hostile conditions (throughput at
      the floor, certain handoff), which lands on a condition-independent
      (local) candidate whenever one is feasible.
    """

    name = "hysteresis"

    #: Throughput hysteresis band edges (Mbps).
    LOW_MBPS = 30.0
    HIGH_MBPS = 60.0
    #: Handoff probability above which offloading disengages.
    HANDOFF_CAP = 0.1
    #: Epochs to hold a rung before upgrading again.
    MIN_DWELL_EPOCHS = 3

    def __init__(self) -> None:
        self.offload_index = 0
        self.fallback_index = 0
        self._current: Optional[int] = None
        self._last_switch_epoch = 0

    def reset(self, context: "ControlContext") -> None:
        band_edge = EpochConditions(
            time_ms=0.0,
            throughput_mbps=self.LOW_MBPS,
            handoff_probability=self.HANDOFF_CAP,
        )
        self.offload_index = context.select(context.sweep(band_edge))
        hostile = EpochConditions(
            time_ms=0.0, throughput_mbps=0.5, handoff_probability=1.0
        )
        self.fallback_index = context.select(context.sweep(hostile))
        self._current = None
        self._last_switch_epoch = 0

    def decide(
        self, epoch: int, conditions: EpochConditions, context: "ControlContext"
    ) -> int:
        del context
        in_band = (
            conditions.throughput_mbps >= self.LOW_MBPS
            and conditions.handoff_probability <= self.HANDOFF_CAP
        )
        engage = (
            conditions.throughput_mbps >= self.HIGH_MBPS
            and conditions.handoff_probability <= self.HANDOFF_CAP
        )
        if self._current is None:
            self._current = self.offload_index if engage else self.fallback_index
            self._last_switch_epoch = epoch
            return self._current
        if not in_band and self._current != self.fallback_index:
            # Safety downgrade: never deferred by the dwell.
            self._current = self.fallback_index
            self._last_switch_epoch = epoch
        elif (
            engage
            and self._current != self.offload_index
            and epoch - self._last_switch_epoch >= self.MIN_DWELL_EPOCHS
        ):
            self._current = self.offload_index
            self._last_switch_epoch = epoch
        return self._current

    def state(self) -> tuple:
        # The rungs are fixed at reset, so they are configuration, not state.
        return (self._current, self._last_switch_epoch)

    def restore(self, state: tuple) -> None:
        self._current, self._last_switch_epoch = state


class GreedyBatchSweep(ControllerBase):
    """Full-grid sweep per epoch through the batch engine.

    Evaluates every candidate under the epoch's (measured) conditions —
    nearly free thanks to the runtime's pre-warmed vectorized sweep — and
    picks the context's best feasible point.  Per-epoch regret-free: in
    any epoch where at least one candidate meets the deadline, its choice
    meets the deadline, so its miss count is a lower bound over all static
    policies.
    """

    name = "greedy-sweep"

    def decide(
        self, epoch: int, conditions: EpochConditions, context: "ControlContext"
    ) -> int:
        del epoch
        return context.select(context.sweep(conditions))

    def state(self) -> tuple:
        return ()

    def restore(self, state: tuple) -> None:
        del state


class EwmaPredictive(ControllerBase):
    """EWMA/bandit-style predictive controller.

    Tracks exponentially-weighted moving averages of the observed channel
    and selects against a *conservative* prediction: the predicted
    throughput is ``min(observed, ewma)`` and the predicted handoff
    probability is ``max(observed, ewma)``.  Since end-to-end latency is
    monotone (non-increasing in throughput, non-decreasing in handoff
    probability), any candidate feasible under the prediction is feasible
    under the true conditions — the controller pays for prediction lag
    with conservatism, never with deadline misses.

    A seeded epsilon-greedy exploration over the predicted-feasible set
    adds the bandit flavour: with probability :attr:`EPSILON` the controller
    tries a random feasible candidate instead of the objective's pick,
    which keeps its outcome statistics fresh across regime changes while
    remaining deadline-safe and bit-deterministic for a fixed seed.

    Args:
        seed: exploration seed.
    """

    name = "ewma-predictive"

    #: EWMA smoothing factor in (0, 1]; higher tracks faster.
    ALPHA = 0.3
    #: Exploration probability.
    EPSILON = 0.1

    def __init__(self, seed: int = 0) -> None:
        self.seed = ensure_non_negative("seed", ensure_integer("seed", seed))
        self._rng = np.random.default_rng(self.seed)
        self._ewma_throughput: Optional[float] = None
        self._ewma_handoff: Optional[float] = None

    def reset(self, context: "ControlContext") -> None:
        del context
        self._rng = np.random.default_rng(self.seed)
        self._ewma_throughput = None
        self._ewma_handoff = None

    def _predict(self, conditions: EpochConditions) -> EpochConditions:
        throughput = conditions.throughput_mbps
        handoff = conditions.handoff_probability
        if self._ewma_throughput is not None:
            throughput = min(throughput, self._ewma_throughput)
            handoff = max(handoff, self._ewma_handoff)
        return EpochConditions(
            time_ms=conditions.time_ms,
            throughput_mbps=throughput,
            handoff_probability=handoff,
        )

    def decide(
        self, epoch: int, conditions: EpochConditions, context: "ControlContext"
    ) -> int:
        del epoch
        predicted = self._predict(conditions)
        evaluation = context.sweep(predicted)
        feasible = np.flatnonzero(evaluation.latency_ms <= context.deadline_ms)
        if feasible.size > 1 and self._rng.random() < self.EPSILON:
            return int(feasible[self._rng.integers(0, feasible.size)])
        return context.select(evaluation)

    def state(self) -> tuple:
        return (
            self._ewma_throughput,
            self._ewma_handoff,
            self._rng.bit_generator.state,
        )

    def restore(self, state: tuple) -> None:
        self._ewma_throughput, self._ewma_handoff, rng_state = state
        # Assigned on the existing generator, so later draws continue the
        # restored stream bit for bit.
        self._rng.bit_generator.state = rng_state

    def observe(
        self, epoch: int, conditions: EpochConditions, outcome: "EpochOutcome"
    ) -> None:
        del epoch, outcome
        if self._ewma_throughput is None:
            self._ewma_throughput = conditions.throughput_mbps
            self._ewma_handoff = conditions.handoff_probability
            return
        self._ewma_throughput = (
            self.ALPHA * conditions.throughput_mbps
            + (1.0 - self.ALPHA) * self._ewma_throughput
        )
        self._ewma_handoff = (
            self.ALPHA * conditions.handoff_probability
            + (1.0 - self.ALPHA) * self._ewma_handoff
        )


#: The adaptive controllers by name, for the CLI's ``--controller`` and a
#: scenario's ``controller`` parameter (this order is the CLI's).
#: :class:`StaticBaseline` is not here: it needs a candidate index, and
#: an ``adapt`` scenario's ``"static"`` replays the runtime's best static
#: point instead.
CONTROLLERS: Dict[str, Type[ControllerBase]] = {
    "hysteresis": HysteresisThreshold,
    "greedy": GreedyBatchSweep,
    "ewma": EwmaPredictive,
}
