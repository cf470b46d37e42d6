"""Deterministic fault injection and recovery accounting.

The package has two layers:

- :mod:`repro.faults.schedule` — the declarative model: seeded,
  serializable :class:`FaultSchedule` objects composing epoch-indexed
  :class:`FaultEvent` windows (edge outages, brownouts, link degradation,
  straggler windows) into per-epoch :class:`EpochFaultState` views that
  the fleet, adaptive and cosim engines consume;
- :mod:`repro.faults.report` — recovery metrics: per-fault-window miss
  rates and time-to-recover epochs folded into a :class:`FaultOutcome`.

Hardened execution (per-task timeouts, crash salvage, the
``REPRO_CHAOS_*`` worker hooks) lives in :mod:`repro.exec`.
"""

from repro.faults.report import FaultOutcome, FaultWindow, fault_outcome
from repro.faults.scenarios import (
    FAULT_GENERATORS,
    build_schedule,
    make_schedule,
)
from repro.faults.schedule import (
    FAULT_KINDS,
    EpochFaultState,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
)

__all__ = [
    "FAULT_GENERATORS",
    "FAULT_KINDS",
    "EpochFaultState",
    "FaultEvent",
    "FaultInjector",
    "FaultOutcome",
    "FaultSchedule",
    "FaultWindow",
    "build_schedule",
    "fault_outcome",
    "make_schedule",
]
