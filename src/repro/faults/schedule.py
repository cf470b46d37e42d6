"""Declarative, epoch-indexed fault schedules.

The reproduction's other subsystems simulate a world where edge servers
never fail; this module supplies the missing adversary.  A
:class:`FaultSchedule` is a named, serializable composition of
:class:`FaultEvent` windows — each one an epoch range during which an edge
server is dead (*outage*), running at a fraction of its capacity
(*brownout*), serving slower than modelled (*straggler window*), or the
wireless link is degraded (throughput drop plus a handoff/loss burst).

Schedules are purely declarative data: the same schedule drives the fleet
analyzer, the adaptive runtime and the co-simulation engine, and
:meth:`FaultSchedule.to_dict` / :meth:`FaultSchedule.from_dict` round-trip
bit-exactly (the same contract as
:class:`repro.adaptive.traces.ConditionTrace`), so a fault scenario can be
committed next to the experiment that pins its recovery metrics.

The per-epoch view consumed by the engines is an :class:`EpochFaultState`:
per-edge capacity factors (0 = removed from the pool), per-edge service-time
inflation, and the link multipliers.  Overlapping events compose —
capacities and factors multiply, handoff boosts add (clamped to 1) — so two
half-brownouts behave like one quarter-capacity window.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError

#: Fault kinds a schedule may compose.
FAULT_KINDS: Tuple[str, ...] = (
    "edge_outage",
    "edge_brownout",
    "link_degradation",
    "straggler",
)


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: a kind, an epoch range, and kind-specific knobs.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        start_epoch: first epoch the fault is active.
        duration_epochs: number of consecutive epochs the fault lasts.
        edge_index: which edge server the fault hits (``None`` = every
            edge); only meaningful for the edge-side kinds.
        capacity_factor: remaining capacity fraction during an
            ``edge_brownout`` (in (0, 1); an outage is capacity 0 by
            definition and must not set this).
        throughput_factor: multiplicative throughput drop of a
            ``link_degradation`` (in (0, 1]).
        handoff_boost: additive per-frame handoff/loss-burst probability of
            a ``link_degradation`` (in [0, 1]).
        service_factor: service-time inflation of a ``straggler`` window
            (>= 1; the edge still completes work, just slower).
    """

    kind: str
    start_epoch: int
    duration_epochs: int
    edge_index: Optional[int] = None
    capacity_factor: float = 1.0
    throughput_factor: float = 1.0
    handoff_boost: float = 0.0
    service_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.start_epoch, int) or isinstance(self.start_epoch, bool):
            raise ConfigurationError(
                f"start_epoch must be an integer, got {self.start_epoch!r}"
            )
        if self.start_epoch < 0:
            raise ConfigurationError(
                f"start_epoch must be >= 0, got {self.start_epoch}"
            )
        if not isinstance(self.duration_epochs, int) or isinstance(
            self.duration_epochs, bool
        ):
            raise ConfigurationError(
                f"duration_epochs must be an integer, got {self.duration_epochs!r}"
            )
        if self.duration_epochs < 1:
            raise ConfigurationError(
                f"duration_epochs must be >= 1, got {self.duration_epochs}"
            )
        if self.edge_index is not None:
            if not isinstance(self.edge_index, int) or isinstance(self.edge_index, bool):
                raise ConfigurationError(
                    f"edge_index must be an integer or None, got {self.edge_index!r}"
                )
            if self.edge_index < 0:
                raise ConfigurationError(
                    f"edge_index must be >= 0, got {self.edge_index}"
                )
            if self.kind == "link_degradation":
                raise ConfigurationError(
                    "link_degradation hits the shared channel; it cannot "
                    f"target edge_index {self.edge_index}"
                )
        if self.kind == "edge_brownout":
            if not 0.0 < self.capacity_factor < 1.0:
                raise ConfigurationError(
                    f"edge_brownout capacity_factor must be in (0, 1), got "
                    f"{self.capacity_factor} (an outage is capacity 0 by definition)"
                )
        elif self.capacity_factor != 1.0:
            raise ConfigurationError(
                f"capacity_factor only applies to edge_brownout events, "
                f"got {self.capacity_factor} on {self.kind!r}"
            )
        if self.kind == "link_degradation":
            if not 0.0 < self.throughput_factor <= 1.0:
                raise ConfigurationError(
                    f"link_degradation throughput_factor must be in (0, 1], got "
                    f"{self.throughput_factor}"
                )
            if not 0.0 <= self.handoff_boost <= 1.0:
                raise ConfigurationError(
                    f"link_degradation handoff_boost must be in [0, 1], got "
                    f"{self.handoff_boost}"
                )
        else:
            if self.throughput_factor != 1.0 or self.handoff_boost != 0.0:
                raise ConfigurationError(
                    f"throughput_factor/handoff_boost only apply to "
                    f"link_degradation events, not {self.kind!r}"
                )
        if self.kind == "straggler":
            if self.service_factor <= 1.0:
                raise ConfigurationError(
                    f"straggler service_factor must be > 1, got {self.service_factor}"
                )
        elif self.service_factor != 1.0:
            raise ConfigurationError(
                f"service_factor only applies to straggler events, "
                f"got {self.service_factor} on {self.kind!r}"
            )

    @property
    def end_epoch(self) -> int:
        """First epoch *after* the fault window (exclusive bound)."""
        return self.start_epoch + self.duration_epochs

    def active_at(self, epoch: int) -> bool:
        """Whether the fault is active during ``epoch``."""
        return self.start_epoch <= epoch < self.end_epoch

    def describe(self) -> str:
        """One-line human-readable form of the event."""
        window = f"epochs [{self.start_epoch}, {self.end_epoch})"
        target = "all edges" if self.edge_index is None else f"edge {self.edge_index}"
        if self.kind == "edge_outage":
            return f"{window}: outage of {target}"
        if self.kind == "edge_brownout":
            return (
                f"{window}: brownout of {target} to "
                f"{self.capacity_factor * 100.0:.0f}% capacity"
            )
        if self.kind == "straggler":
            return f"{window}: straggler window on {target} (service x{self.service_factor:g})"
        return (
            f"{window}: link degradation (throughput x{self.throughput_factor:g}, "
            f"handoff +{self.handoff_boost:g})"
        )


@dataclass(frozen=True)
class EpochFaultState:
    """The composed effect of every active fault during one epoch.

    Attributes:
        epoch: the epoch the state describes.
        n_edges: size of the edge pool the state was resolved against.
        edge_capacity: per-edge remaining capacity fraction in [0, 1]
            (0 = removed from the pool; brownouts compose multiplicatively).
        edge_service_factor: per-edge service-time inflation (>= 1;
            straggler windows compose multiplicatively).
        throughput_factor: multiplicative link throughput factor in (0, 1].
        handoff_boost: additive per-frame handoff probability in [0, 1].
    """

    epoch: int
    n_edges: int
    edge_capacity: Tuple[float, ...]
    edge_service_factor: Tuple[float, ...]
    throughput_factor: float = 1.0
    handoff_boost: float = 0.0

    @property
    def alive_edges(self) -> Tuple[int, ...]:
        """Indices of the edges still in the pool (capacity > 0)."""
        return tuple(i for i, c in enumerate(self.edge_capacity) if c > 0.0)

    @property
    def n_edges_alive(self) -> int:
        """Number of edges still in the pool."""
        return len(self.alive_edges)

    @property
    def availability(self) -> float:
        """Fraction of the pool's nominal capacity still available."""
        if not self.edge_capacity:
            return 1.0
        return sum(self.edge_capacity) / len(self.edge_capacity)

    @property
    def has_link_fault(self) -> bool:
        """Whether the shared channel is degraded this epoch."""
        return self.throughput_factor != 1.0 or self.handoff_boost != 0.0

    @property
    def any_fault(self) -> bool:
        """Whether any fault is active this epoch."""
        return (
            self.has_link_fault
            or any(c != 1.0 for c in self.edge_capacity)
            or any(f != 1.0 for f in self.edge_service_factor)
        )

    def service_scale(self, edge_index: int) -> float:
        """Effective service-time multiplier on one edge.

        A brownout to capacity ``c`` serves every frame ``1/c`` times
        slower; a straggler window multiplies on top.  ``inf`` for a dead
        edge (nothing should be scheduled there — the engines route around
        it first).
        """
        capacity = self.edge_capacity[edge_index]
        if capacity <= 0.0:
            return float("inf")
        return self.edge_service_factor[edge_index] / capacity

    def apply_to_conditions(self, conditions):
        """Fold the link fault into one epoch's channel conditions.

        Duck-typed over any frozen dataclass with ``throughput_mbps`` and
        ``handoff_probability`` fields (i.e. :class:`repro.adaptive.traces
        .EpochConditions`); returns the input object untouched when no link
        fault is active, preserving bit-exact no-fault degeneracy.
        """
        if not self.has_link_fault:
            return conditions
        return dataclasses.replace(
            conditions,
            throughput_mbps=conditions.throughput_mbps * self.throughput_factor,
            handoff_probability=min(
                conditions.handoff_probability + self.handoff_boost, 1.0
            ),
        )

    def apply_to_network(self, network):
        """Fold the link fault into a :class:`~repro.config.network.NetworkConfig`.

        The throughput drop scales ``throughput_mbps``; the loss burst adds
        to the per-frame handoff probability (enabling handoffs if they were
        off — a loss burst costs re-association work either way).  Returns
        the input untouched when no link fault is active.
        """
        if not self.has_link_fault:
            return network
        base_probability = network.handoff.handoff_probability
        handoff = dataclasses.replace(
            network.handoff,
            enabled=True,
            handoff_probability=min(
                (base_probability if base_probability is not None else 0.0)
                + self.handoff_boost,
                1.0,
            ),
        )
        return dataclasses.replace(
            network,
            throughput_mbps=network.throughput_mbps * self.throughput_factor,
            handoff=handoff,
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A named, serializable composition of epoch-indexed fault events.

    Attributes:
        name: schedule identifier (e.g. ``"edge-outage"``).
        events: the fault windows, in declaration order.
        seed: seed the schedule was generated from (None for hand-built or
            deserialised schedules).
    """

    name: str
    events: Tuple[FaultEvent, ...]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"schedule name must be a non-empty string, got {self.name!r}"
            )
        if not self.events:
            raise ConfigurationError("a fault schedule needs at least one event")
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"schedule events must be FaultEvent instances, got {event!r}"
                )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    @property
    def max_edge_index(self) -> Optional[int]:
        """Largest edge index any event targets (None when none do)."""
        indices = [e.edge_index for e in self.events if e.edge_index is not None]
        return max(indices) if indices else None

    @property
    def last_epoch(self) -> int:
        """Exclusive upper bound of the last fault window."""
        return max(event.end_epoch for event in self.events)

    def active(self, epoch: int) -> Tuple[FaultEvent, ...]:
        """Events active during ``epoch``, in declaration order."""
        return tuple(event for event in self.events if event.active_at(epoch))

    def state_at(self, epoch: int, n_edges: int) -> EpochFaultState:
        """Resolve the composed fault state for one epoch over ``n_edges``.

        Overlapping events compose: capacity factors and service factors
        multiply per edge, throughput factors multiply, handoff boosts add
        (clamped to 1).  An outage zeroes the edge's capacity regardless of
        concurrent brownouts.
        """
        if n_edges < 1:
            raise ConfigurationError(f"n_edges must be >= 1, got {n_edges}")
        top = self.max_edge_index
        if top is not None and top >= n_edges:
            raise ConfigurationError(
                f"schedule {self.name!r} targets edge {top}, but only "
                f"{n_edges} edge(s) exist"
            )
        capacity = [1.0] * n_edges
        service = [1.0] * n_edges
        throughput = 1.0
        boost = 0.0
        for event in self.events:
            if not event.active_at(epoch):
                continue
            targets = (
                range(n_edges) if event.edge_index is None else (event.edge_index,)
            )
            if event.kind == "edge_outage":
                for index in targets:
                    capacity[index] = 0.0
            elif event.kind == "edge_brownout":
                for index in targets:
                    capacity[index] *= event.capacity_factor
            elif event.kind == "straggler":
                for index in targets:
                    service[index] *= event.service_factor
            else:  # link_degradation
                throughput *= event.throughput_factor
                boost = min(boost + event.handoff_boost, 1.0)
        return EpochFaultState(
            epoch=epoch,
            n_edges=n_edges,
            edge_capacity=tuple(capacity),
            edge_service_factor=tuple(service),
            throughput_factor=throughput,
            handoff_boost=boost,
        )

    def fault_epochs(self, n_epochs: int) -> Tuple[int, ...]:
        """Epochs in ``range(n_epochs)`` during which any event is active."""
        return tuple(
            epoch
            for epoch in range(n_epochs)
            if any(event.active_at(epoch) for event in self.events)
        )

    def windows(self, n_epochs: int) -> Tuple[Tuple[int, int], ...]:
        """Maximal contiguous ``[start, end)`` runs of faulted epochs."""
        faulted = self.fault_epochs(n_epochs)
        if not faulted:
            return ()
        runs: List[Tuple[int, int]] = []
        start = previous = faulted[0]
        for epoch in faulted[1:]:
            if epoch == previous + 1:
                previous = epoch
                continue
            runs.append((start, previous + 1))
            start = previous = epoch
        runs.append((start, previous + 1))
        return tuple(runs)

    def describe(self) -> str:
        """Multi-line human-readable form of the schedule."""
        lines = [f"fault schedule {self.name!r} — {len(self.events)} event(s)"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)

    # -- replay format -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able replay form; round-trips bit-exactly via :meth:`from_dict`."""
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [asdict(event) for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSchedule":
        """Rebuild a schedule serialised with :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"fault schedule payload must be a mapping, got {payload!r}"
            )
        events = payload.get("events")
        if not isinstance(events, (list, tuple)):
            raise ConfigurationError(
                f"fault schedule 'events' must be a list, got {events!r}"
            )
        built = []
        for entry in events:
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"fault event entries must be tables/objects, got {entry!r}"
                )
            unknown = set(entry) - {f.name for f in dataclasses.fields(FaultEvent)}
            if unknown:
                raise ConfigurationError(
                    f"unknown fault event keys {sorted(unknown)}"
                )
            built.append(FaultEvent(**entry))
        return cls(
            name=str(payload.get("name", "custom")),
            seed=payload.get("seed"),
            events=tuple(built),
        )


class FaultInjector:
    """Memoized per-epoch resolution of a schedule against an edge pool.

    Each engine resolves an epoch's state once per epoch of a run; the memo
    serves repeated runs of one engine, such as one
    :class:`~repro.adaptive.AdaptiveRuntime` run once per controller over
    the same epochs.
    """

    def __init__(self, schedule: FaultSchedule, n_edges: int) -> None:
        if not isinstance(schedule, FaultSchedule):
            raise ConfigurationError(
                f"cannot interpret {schedule!r} as a fault schedule"
            )
        if n_edges < 1:
            raise ConfigurationError(f"n_edges must be >= 1, got {n_edges}")
        top = schedule.max_edge_index
        if top is not None and top >= n_edges:
            raise ConfigurationError(
                f"schedule {schedule.name!r} targets edge {top}, but only "
                f"{n_edges} edge(s) exist"
            )
        self.schedule = schedule
        self.n_edges = n_edges
        self._states: Dict[int, EpochFaultState] = {}

    def state(self, epoch: int) -> EpochFaultState:
        """The composed fault state at ``epoch`` (cached)."""
        cached = self._states.get(epoch)
        if cached is None:
            cached = self.schedule.state_at(epoch, self.n_edges)
            self._states[epoch] = cached
        return cached
