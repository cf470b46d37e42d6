"""Bundled fault schedules and the declarative schedule builder.

Mirrors :mod:`repro.adaptive.traces`' generator registry: each generator is
a named function producing a :class:`~repro.faults.schedule.FaultSchedule`
from a handful of keyword knobs, exposed through :data:`FAULT_GENERATORS`
and :func:`make_schedule` so the CLI and the experiments suite can refer to
schedules by name.  :func:`build_schedule` additionally accepts the
declarative mapping form used by ``[scenario.faults]`` spec sections —
either a generator reference (``schedule = "edge-outage"`` plus overrides)
or an inline ``events`` list in the :meth:`FaultSchedule.to_dict` format.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Mapping

from repro.exceptions import ConfigurationError
from repro.faults.schedule import FaultEvent, FaultSchedule


def edge_outage_schedule(
    *,
    start_epoch: int = 4,
    duration_epochs: int = 4,
    edge_index: int = 0,
) -> FaultSchedule:
    """One edge server drops out of the pool for a window, then returns."""
    return FaultSchedule(
        name="edge-outage",
        events=(
            FaultEvent(
                kind="edge_outage",
                start_epoch=start_epoch,
                duration_epochs=duration_epochs,
                edge_index=edge_index,
            ),
        ),
    )


def brownout_schedule(
    *,
    start_epoch: int = 3,
    duration_epochs: int = 6,
    capacity_factor: float = 0.5,
) -> FaultSchedule:
    """Every edge runs at fractional capacity for a window (rolling brownout)."""
    return FaultSchedule(
        name="brownout",
        events=(
            FaultEvent(
                kind="edge_brownout",
                start_epoch=start_epoch,
                duration_epochs=duration_epochs,
                capacity_factor=capacity_factor,
            ),
        ),
    )


def link_flap_schedule(
    *,
    start_epoch: int = 3,
    duration_epochs: int = 3,
    throughput_factor: float = 0.4,
    handoff_boost: float = 0.2,
    gap_epochs: int = 4,
) -> FaultSchedule:
    """Two short link-degradation bursts separated by a clean gap."""
    first = FaultEvent(
        kind="link_degradation",
        start_epoch=start_epoch,
        duration_epochs=duration_epochs,
        throughput_factor=throughput_factor,
        handoff_boost=handoff_boost,
    )
    second = FaultEvent(
        kind="link_degradation",
        start_epoch=first.end_epoch + gap_epochs,
        duration_epochs=duration_epochs,
        throughput_factor=throughput_factor,
        handoff_boost=handoff_boost,
    )
    return FaultSchedule(name="link-flap", events=(first, second))


def straggler_schedule(
    *,
    start_epoch: int = 4,
    duration_epochs: int = 5,
    edge_index: int = 0,
    service_factor: float = 3.0,
) -> FaultSchedule:
    """One edge serves slowly (e.g. thermal throttling) without leaving the pool."""
    return FaultSchedule(
        name="straggler",
        events=(
            FaultEvent(
                kind="straggler",
                start_epoch=start_epoch,
                duration_epochs=duration_epochs,
                edge_index=edge_index,
                service_factor=service_factor,
            ),
        ),
    )


def random_outages_schedule(
    *,
    seed: int = 0,
    n_epochs: int = 24,
    n_events: int = 3,
    n_edges: int = 2,
    max_duration_epochs: int = 4,
) -> FaultSchedule:
    """Seeded random outages: reproducible chaos for soak-style runs."""
    if n_events < 1:
        raise ConfigurationError(f"n_events must be >= 1, got {n_events}")
    if n_edges < 1:
        raise ConfigurationError(f"n_edges must be >= 1, got {n_edges}")
    if max_duration_epochs < 1:
        raise ConfigurationError(
            f"max_duration_epochs must be >= 1, got {max_duration_epochs}"
        )
    if n_epochs <= max_duration_epochs:
        raise ConfigurationError(
            f"n_epochs ({n_epochs}) must exceed max_duration_epochs "
            f"({max_duration_epochs})"
        )
    rng = random.Random(seed)
    events = tuple(
        FaultEvent(
            kind="edge_outage",
            start_epoch=rng.randrange(0, n_epochs - max_duration_epochs),
            duration_epochs=rng.randint(1, max_duration_epochs),
            edge_index=rng.randrange(n_edges),
        )
        for _ in range(n_events)
    )
    return FaultSchedule(name="random-outages", events=events, seed=seed)


#: Registry of bundled schedule generators, keyed by schedule name.
FAULT_GENERATORS: Dict[str, Callable[..., FaultSchedule]] = {
    "edge-outage": edge_outage_schedule,
    "brownout": brownout_schedule,
    "link-flap": link_flap_schedule,
    "straggler": straggler_schedule,
    "random-outages": random_outages_schedule,
}


def make_schedule(name: str, **kwargs) -> FaultSchedule:
    """Build a bundled schedule by name, forwarding generator overrides."""
    generator = FAULT_GENERATORS.get(name)
    if generator is None:
        raise ConfigurationError(
            f"unknown fault schedule {name!r}; "
            f"available: {', '.join(FAULT_GENERATORS)}"
        )
    try:
        return generator(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for fault schedule {name!r}: {exc}"
        ) from exc


def build_schedule(payload: Mapping) -> FaultSchedule:
    """Build a schedule from the declarative ``[scenario.faults]`` mapping form.

    Two shapes are accepted:

    - generator reference: ``{"schedule": "edge-outage", ...overrides}`` —
      every other key is forwarded to the named generator;
    - inline events: ``{"name": ..., "events": [...]}`` — the
      :meth:`FaultSchedule.to_dict` format.
    """
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"faults section must be a mapping, got {payload!r}"
        )
    if "schedule" in payload:
        if "events" in payload:
            raise ConfigurationError(
                "faults section cannot combine a 'schedule' reference with "
                "inline 'events'"
            )
        kwargs = {key: value for key, value in payload.items() if key != "schedule"}
        return make_schedule(str(payload["schedule"]), **kwargs)
    if "events" in payload:
        return FaultSchedule.from_dict(dict(payload))
    raise ConfigurationError(
        "faults section needs either a 'schedule' reference or an 'events' list"
    )
