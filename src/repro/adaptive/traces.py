"""Condition traces: per-epoch channel/load timelines for runtime adaptation.

The paper's closed forms evaluate *static* operating points, but its system
model is dynamic: the XR device roams (mobility-driven handoffs, Eq. 17),
the wireless channel fades, and the cell's load varies as other users come
and go.  A :class:`ConditionTrace` captures one realisation of that
dynamics as a sequence of per-epoch :class:`EpochConditions` — the
quantities the analytical models take as inputs (wireless throughput
``r_w`` and per-frame handoff probability ``P(HO)``), plus the load/fading
diagnostics they were derived from.

Two families of generators are provided:

* :func:`mobility_fading_trace` composes the existing substrates — a
  :class:`~repro.network.mobility.RandomWalkMobility` walk for handoffs,
  Rician/Rayleigh fading gains, and a seeded birth-death contender process
  fed through the fleet's :class:`~repro.fleet.contention.ContentionModel`
  for the per-user throughput share;
* :func:`drift_trace` / :func:`step_trace` / :func:`burst_trace` are
  synthetic scenarios with known structure (slow degradation, a regime
  change, periodic congestion bursts) used by the controller tests and the
  bundled scenarios.

Every generator is seeded and fully deterministic: the same ``(generator,
parameters, seed)`` triple reproduces the trace bit-for-bit, and
:meth:`ConditionTrace.to_dict` / :meth:`ConditionTrace.from_dict` give a
materialised replay format for traces that came from somewhere else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.config.network import NetworkConfig
from repro.exceptions import ConfigurationError
from repro.fleet.contention import ContentionModel
from repro.network.fading import RicianFading
from repro.network.mobility import CoverageLayout, RandomWalkMobility

#: Floor applied to every generated throughput so the latency models stay in
#: their domain (Eq. 16 divides by ``r_w``).
MIN_THROUGHPUT_MBPS: float = 0.5

#: Handoff probabilities are quantized to this step so that a whole trace
#: contains only a few distinct values.  The batch engine takes the handoff
#: probability as a vectorized condition axis, so the grid no longer buys
#: batching; it stays because the bundled traces' outputs are pinned on it.
HANDOFF_PROBABILITY_STEP: float = 0.005


def quantize_probability(value: float, step: float = HANDOFF_PROBABILITY_STEP) -> float:
    """Clamp ``value`` to [0, 1] and snap it to the coarse probability grid."""
    clamped = min(max(float(value), 0.0), 1.0)
    return min(max(round(clamped / step) * step, 0.0), 1.0)


@dataclass(frozen=True)
class EpochConditions:
    """Channel/load conditions during one control epoch.

    Attributes:
        time_ms: epoch start time on the simulation clock.
        throughput_mbps: per-user wireless throughput ``r_w`` during the
            epoch (already includes contention and fading).
        handoff_probability: per-frame handoff probability ``P(HO)`` during
            the epoch.
        n_contenders: stations sharing the channel (diagnostic; its effect
            is already folded into ``throughput_mbps``).
        fading_gain: small-scale fading power gain applied to the epoch
            (diagnostic, mean 1.0).
    """

    time_ms: float
    throughput_mbps: float
    handoff_probability: float
    n_contenders: int = 1
    fading_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.time_ms < 0.0:
            raise ConfigurationError(f"epoch time must be >= 0 ms, got {self.time_ms}")
        if self.throughput_mbps <= 0.0:
            raise ConfigurationError(
                f"epoch throughput must be > 0 Mbps, got {self.throughput_mbps}"
            )
        if not 0.0 <= self.handoff_probability <= 1.0:
            raise ConfigurationError(
                f"handoff probability must be in [0, 1], got {self.handoff_probability}"
            )
        if self.n_contenders < 1:
            raise ConfigurationError(
                f"n_contenders must be >= 1, got {self.n_contenders}"
            )
        if self.fading_gain <= 0.0:
            raise ConfigurationError(
                f"fading gain must be > 0, got {self.fading_gain}"
            )


@dataclass(frozen=True)
class ConditionTrace:
    """A seeded, replayable timeline of per-epoch conditions.

    Attributes:
        name: scenario identifier (e.g. ``"burst"``).
        epoch_ms: control-epoch length; epoch ``i`` starts at ``i * epoch_ms``.
        epochs: the per-epoch conditions, in time order.
        seed: seed the trace was generated from (None for hand-built or
            deserialised traces).
    """

    name: str
    epoch_ms: float
    epochs: Tuple[EpochConditions, ...]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epoch_ms < math.inf:
            raise ConfigurationError(f"epoch_ms must be a finite number > 0, got {self.epoch_ms}")
        if not self.epochs:
            raise ConfigurationError("a condition trace needs at least one epoch")

    def __len__(self) -> int:
        return len(self.epochs)

    def __iter__(self) -> Iterator[EpochConditions]:
        return iter(self.epochs)

    def __getitem__(self, index: int) -> EpochConditions:
        return self.epochs[index]

    @property
    def n_epochs(self) -> int:
        """Number of control epochs."""
        return len(self.epochs)

    @property
    def duration_ms(self) -> float:
        """Total trace duration."""
        return self.n_epochs * self.epoch_ms

    @property
    def throughput_mbps(self) -> np.ndarray:
        """Per-epoch throughput as an array."""
        return np.asarray([epoch.throughput_mbps for epoch in self.epochs])

    @property
    def handoff_probability(self) -> np.ndarray:
        """Per-epoch handoff probability as an array."""
        return np.asarray([epoch.handoff_probability for epoch in self.epochs])

    # -- replay format -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able replay form; round-trips bit-exactly via :meth:`from_dict`."""
        return {
            "name": self.name,
            "epoch_ms": self.epoch_ms,
            "seed": self.seed,
            "epochs": [asdict(epoch) for epoch in self.epochs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ConditionTrace":
        """Rebuild a trace serialised with :meth:`to_dict`."""
        return cls(
            name=str(payload["name"]),
            epoch_ms=float(payload["epoch_ms"]),
            seed=payload.get("seed"),
            epochs=tuple(
                EpochConditions(**epoch) for epoch in payload["epochs"]
            ),
        )


# ---------------------------------------------------------------------------
# Synthetic scenarios
# ---------------------------------------------------------------------------


def _check_epochs(n_epochs: int) -> None:
    if n_epochs <= 0:
        raise ConfigurationError(f"n_epochs must be > 0, got {n_epochs}")


def _jittered(rng: np.random.Generator, values: np.ndarray, jitter: float) -> np.ndarray:
    if jitter < 0.0:
        raise ConfigurationError(f"jitter must be >= 0, got {jitter}")
    if jitter == 0.0:
        return values
    return values * (1.0 + rng.normal(0.0, jitter, size=values.shape))


def _build(
    name: str,
    epoch_ms: float,
    seed: Optional[int],
    throughput: np.ndarray,
    handoff: np.ndarray,
    contenders: Optional[np.ndarray] = None,
    gains: Optional[np.ndarray] = None,
) -> ConditionTrace:
    n = throughput.shape[0]
    epochs = tuple(
        EpochConditions(
            time_ms=i * epoch_ms,
            throughput_mbps=max(float(throughput[i]), MIN_THROUGHPUT_MBPS),
            handoff_probability=quantize_probability(float(handoff[i])),
            n_contenders=int(contenders[i]) if contenders is not None else 1,
            fading_gain=float(gains[i]) if gains is not None else 1.0,
        )
        for i in range(n)
    )
    return ConditionTrace(name=name, epoch_ms=epoch_ms, epochs=epochs, seed=seed)


def drift_trace(
    n_epochs: int,
    epoch_ms: float = 100.0,
    seed: int = 0,
    start_mbps: float = 180.0,
    end_mbps: float = 4.0,
    handoff_start: float = 0.0,
    handoff_end: float = 0.25,
    jitter: float = 0.02,
) -> ConditionTrace:
    """Slow monotone degradation: the device walks away from its access point.

    Throughput drifts linearly from ``start_mbps`` to ``end_mbps`` with
    multiplicative jitter; the handoff probability ramps up as cell-edge
    conditions make re-association more likely.
    """
    _check_epochs(n_epochs)
    rng = np.random.default_rng(seed)
    ramp = np.linspace(0.0, 1.0, n_epochs)
    throughput = _jittered(rng, start_mbps + (end_mbps - start_mbps) * ramp, jitter)
    handoff = handoff_start + (handoff_end - handoff_start) * ramp
    return _build("drift", epoch_ms, seed, throughput, handoff)


def step_trace(
    n_epochs: int,
    epoch_ms: float = 100.0,
    seed: int = 0,
    high_mbps: float = 180.0,
    low_mbps: float = 6.0,
    step_fraction: float = 0.5,
    handoff_high: float = 0.01,
    handoff_low: float = 0.3,
    jitter: float = 0.02,
) -> ConditionTrace:
    """A regime change: good channel until ``step_fraction``, then congested."""
    _check_epochs(n_epochs)
    if not 0.0 < step_fraction < 1.0:
        raise ConfigurationError(
            f"step_fraction must be in (0, 1), got {step_fraction}"
        )
    rng = np.random.default_rng(seed)
    step_at = int(n_epochs * step_fraction)
    before = np.arange(n_epochs) < step_at
    throughput = _jittered(rng, np.where(before, high_mbps, low_mbps), jitter)
    handoff = np.where(before, handoff_high, handoff_low)
    return _build("step", epoch_ms, seed, throughput, handoff)


def burst_trace(
    n_epochs: int,
    epoch_ms: float = 100.0,
    seed: int = 0,
    base_mbps: float = 180.0,
    burst_mbps: float = 3.0,
    burst_every: int = 50,
    burst_duration: int = 8,
    handoff_base: float = 0.01,
    handoff_burst: float = 0.35,
    jitter: float = 0.02,
) -> ConditionTrace:
    """Periodic congestion bursts (seeded phase): crowd surges, elevator rides.

    Outside bursts the channel is good; during a burst both the throughput
    collapses and the handoff probability spikes, which is the regime where
    offloaded operating points blow through their deadline.
    """
    _check_epochs(n_epochs)
    if burst_every <= 0 or burst_duration <= 0:
        raise ConfigurationError("burst_every and burst_duration must be > 0")
    if burst_duration >= burst_every:
        raise ConfigurationError(
            f"burst_duration ({burst_duration}) must be shorter than "
            f"burst_every ({burst_every})"
        )
    rng = np.random.default_rng(seed)
    phase = int(rng.integers(0, burst_every))
    in_burst = ((np.arange(n_epochs) - phase) % burst_every) < burst_duration
    throughput = _jittered(rng, np.where(in_burst, burst_mbps, base_mbps), jitter)
    handoff = np.where(in_burst, handoff_burst, handoff_base)
    return _build("burst", epoch_ms, seed, throughput, handoff)


# ---------------------------------------------------------------------------
# Composed mobility / fading / fleet-load scenario
# ---------------------------------------------------------------------------


def mobility_fading_trace(
    n_epochs: int,
    epoch_ms: float = 100.0,
    seed: int = 0,
    network: Optional[NetworkConfig] = None,
    layout: Optional[CoverageLayout] = None,
    speed_m_per_s: float = 8.0,
    pause_probability: float = 0.2,
    mean_contenders: int = 12,
    max_contenders: Optional[int] = None,
    rician_k: float = 6.0,
    frame_period_ms: float = 1000.0 / 30.0,
) -> ConditionTrace:
    """Compose mobility, fading and fleet load into one condition timeline.

    Per epoch:

    * a :class:`~repro.network.mobility.RandomWalkMobility` walk over
      ``layout`` decides whether the device crossed a zone boundary; an
      epoch containing a handoff charges its frames the per-frame
      probability ``frame_period_ms / epoch_ms`` (exactly one handoff in
      expectation over the epoch's frames),
    * a seeded birth-death process moves the contender count around
      ``mean_contenders``; the fleet's
      :class:`~repro.fleet.contention.ContentionModel` turns it into the
      per-user throughput share,
    * a Rician fading gain (line-of-sight factor ``rician_k``) multiplies
      the share.
    """
    _check_epochs(n_epochs)
    if mean_contenders < 1:
        raise ConfigurationError(
            f"mean_contenders must be >= 1, got {mean_contenders}"
        )
    network = network if network is not None else NetworkConfig()
    layout = layout if layout is not None else CoverageLayout()
    rng = np.random.default_rng(seed)

    mobility = RandomWalkMobility(
        layout=layout,
        speed_m_per_s=speed_m_per_s,
        pause_probability=pause_probability,
    )
    walk = mobility.walk(n_steps=n_epochs, step_interval_ms=epoch_ms, rng=rng)
    per_frame = min(frame_period_ms / epoch_ms, 1.0)
    handoff = np.where(np.asarray(walk.handoff_flags), per_frame, 0.0)

    ceiling = max_contenders if max_contenders is not None else 4 * mean_contenders
    contention = ContentionModel(network=network)
    fading = RicianFading(k_factor=rician_k)
    gains = fading.sample(rng, size=n_epochs)

    contenders = np.empty(n_epochs, dtype=int)
    throughput = np.empty(n_epochs)
    current = mean_contenders
    for i in range(n_epochs):
        # Mean-reverting birth-death: a random step plus a pull towards the
        # configured mean keeps the process stationary.
        step = int(rng.integers(-2, 3))
        if current > mean_contenders and rng.random() < 0.3:
            step -= 1
        elif current < mean_contenders and rng.random() < 0.3:
            step += 1
        current = min(max(current + step, 1), ceiling)
        contenders[i] = current
        throughput[i] = contention.per_user_throughput_mbps(current) * gains[i]

    return _build(
        "mobility", epoch_ms, seed, throughput, handoff,
        contenders=contenders, gains=gains,
    )


#: Named generators for the bundled scenarios (CLI, specs, tests).
TRACE_GENERATORS: Dict[str, Callable[..., ConditionTrace]] = {
    "drift": drift_trace,
    "step": step_trace,
    "burst": burst_trace,
    "mobility": mobility_fading_trace,
}


def make_trace(name: str, n_epochs: int, **kwargs) -> ConditionTrace:
    """Build one of the bundled scenario traces by name."""
    try:
        generator = TRACE_GENERATORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown trace scenario {name!r}; available: {sorted(TRACE_GENERATORS)}"
        ) from None
    return generator(n_epochs, **kwargs)
