"""Recovery metrics derived from a fault schedule and an observed run.

Given the per-epoch deadline-miss series an engine produced while a
:class:`~repro.faults.schedule.FaultSchedule` was active, this module
computes the metrics the experiments suite pins: availability over the run,
miss rate inside vs. outside fault windows, and — per maximal contiguous
fault window — the *time to recover*: how many epochs after the fault
clears the miss rate needs to fall back to its pre-fault level.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.faults.schedule import FaultSchedule


@dataclass(frozen=True)
class FaultWindow:
    """Recovery bookkeeping for one maximal contiguous fault window.

    Attributes:
        start_epoch: first faulted epoch of the window.
        end_epoch: first epoch after the window (exclusive bound).
        miss_rate: mean deadline-miss fraction over the window's epochs.
        baseline_miss_rate: the miss fraction of the epoch just before the
            window (0.0 for a window starting at epoch 0) — the level the
            system must return to, to count as recovered.
        time_to_recover_epochs: epochs after ``end_epoch`` until the miss
            fraction first returned to the baseline (0 = instant recovery;
            equals the number of remaining epochs when it never recovered).
        recovered: whether the miss fraction returned to the baseline
            before the run ended.
    """

    start_epoch: int
    end_epoch: int
    miss_rate: float
    baseline_miss_rate: float
    time_to_recover_epochs: int
    recovered: bool

    def to_dict(self) -> dict:
        """JSON-able form."""
        return asdict(self)


@dataclass(frozen=True)
class FaultOutcome:
    """Fault-conditioned summary of one run under a schedule.

    Attributes:
        schedule_name: name of the schedule the run was subjected to.
        n_epochs: length of the observed run.
        fault_epoch_fraction: fraction of epochs with any fault active.
        availability: mean per-epoch edge-pool capacity fraction (1.0 for a
            run with no edge-side faults).
        fault_miss_rate: mean deadline-miss fraction over faulted epochs
            (0.0 when no epoch was faulted).
        clear_miss_rate: mean deadline-miss fraction over fault-free epochs
            (0.0 when every epoch was faulted).
        windows: per-window recovery bookkeeping.
        mean_time_to_recover_epochs: mean of the windows'
            ``time_to_recover_epochs`` (0.0 when there are no windows).
    """

    schedule_name: str
    n_epochs: int
    fault_epoch_fraction: float
    availability: float
    fault_miss_rate: float
    clear_miss_rate: float
    windows: Tuple[FaultWindow, ...]
    mean_time_to_recover_epochs: float

    @property
    def n_windows(self) -> int:
        """Number of contiguous fault windows the run crossed."""
        return len(self.windows)

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"faults[{self.schedule_name}]: availability={self.availability:.3f} "
            f"miss(fault)={self.fault_miss_rate:.3f} "
            f"miss(clear)={self.clear_miss_rate:.3f} "
            f"ttr={self.mean_time_to_recover_epochs:.1f} epochs "
            f"over {self.n_windows} window(s)"
        )

    def to_dict(self) -> dict:
        """JSON-able form; nested windows serialise through their own dicts."""
        payload = asdict(self)
        payload["windows"] = [window.to_dict() for window in self.windows]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultOutcome":
        """Rebuild an outcome serialised with :meth:`to_dict`."""
        windows = tuple(
            FaultWindow(**entry) for entry in payload.get("windows", ())
        )
        fields = {key: payload[key] for key in payload if key != "windows"}
        return cls(windows=windows, **fields)


def fault_outcome(
    schedule: Optional[FaultSchedule],
    n_edges: int,
    miss_series: Sequence[float],
) -> Optional[FaultOutcome]:
    """Fold a per-epoch miss series and a schedule into a :class:`FaultOutcome`.

    Args:
        schedule: the schedule the run executed under (``None`` → ``None``,
            so callers can thread an optional schedule straight through).
        n_edges: size of the edge pool the run used.
        miss_series: per-epoch deadline-miss fraction, one entry per epoch.

    Returns:
        The fault-conditioned summary, or ``None`` when no schedule was
        active.
    """
    if schedule is None:
        return None
    if n_edges < 1:
        raise ConfigurationError(f"n_edges must be >= 1, got {n_edges}")
    miss = [float(value) for value in miss_series]
    n_epochs = len(miss)
    if n_epochs == 0:
        raise ConfigurationError("cannot summarise faults over an empty run")

    faulted = set(schedule.fault_epochs(n_epochs))
    availability = sum(
        schedule.state_at(epoch, n_edges).availability for epoch in range(n_epochs)
    ) / n_epochs

    fault_misses = [miss[e] for e in range(n_epochs) if e in faulted]
    clear_misses = [miss[e] for e in range(n_epochs) if e not in faulted]
    fault_miss_rate = sum(fault_misses) / len(fault_misses) if fault_misses else 0.0
    clear_miss_rate = sum(clear_misses) / len(clear_misses) if clear_misses else 0.0

    windows = []
    for start, end in schedule.windows(n_epochs):
        baseline = miss[start - 1] if start > 0 else 0.0
        window_miss = sum(miss[start:end]) / (end - start)
        recovered = False
        ttr = n_epochs - end
        for epoch in range(end, n_epochs):
            if miss[epoch] <= baseline:
                ttr = epoch - end
                recovered = True
                break
        if end >= n_epochs:
            # The run ended inside the window; there is no post-fault epoch
            # to observe recovery at.
            ttr = 0
            recovered = False
        windows.append(
            FaultWindow(
                start_epoch=start,
                end_epoch=end,
                miss_rate=window_miss,
                baseline_miss_rate=baseline,
                time_to_recover_epochs=ttr,
                recovered=recovered,
            )
        )

    mean_ttr = (
        sum(w.time_to_recover_epochs for w in windows) / len(windows)
        if windows
        else 0.0
    )
    return FaultOutcome(
        schedule_name=schedule.name,
        n_epochs=n_epochs,
        fault_epoch_fraction=len(faulted) / n_epochs,
        availability=availability,
        fault_miss_rate=fault_miss_rate,
        clear_miss_rate=clear_miss_rate,
        windows=tuple(windows),
        mean_time_to_recover_epochs=mean_ttr,
    )
