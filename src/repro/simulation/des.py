"""A small discrete-event simulation engine.

The engine is deliberately minimal: a priority queue of timestamped events,
each carrying a callback.  Callbacks may schedule further events.  The AoI
emulation and the pipeline simulator are built on top of it; the queueing
substrate has its own specialised single-server simulator
(:mod:`repro.queueing.simulation`) because the Lindley recursion there is
simpler and faster than going through a general event loop.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List

from repro.exceptions import SimulationError

EventCallback = Callable[["EventScheduler"], None]


@dataclass(order=True)
class _ScheduledEvent:
    time_ms: float
    sequence: int
    callback: EventCallback = field(compare=False)


class EventScheduler:
    """Priority-queue driven discrete-event scheduler.

    Time is in milliseconds, consistent with the rest of the framework.
    """

    def __init__(self) -> None:
        self._queue: List[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now_ms = 0.0

    # -- clock -----------------------------------------------------------------

    @property
    def now_ms(self) -> float:
        """Current simulation time."""
        return self._now_ms

    # -- scheduling -------------------------------------------------------------

    def schedule_at(self, time_ms: float, callback: EventCallback) -> None:
        """Schedule ``callback`` at absolute time ``time_ms``.

        Events due at the same time run in the order they were scheduled.

        Raises:
            SimulationError: when scheduling into the past.
        """
        if time_ms < self._now_ms - 1e-9:
            raise SimulationError(
                f"cannot schedule event at {time_ms} ms, current time is {self._now_ms} ms"
            )
        event = _ScheduledEvent(
            time_ms=float(time_ms), sequence=next(self._sequence), callback=callback
        )
        heapq.heappush(self._queue, event)

    # -- execution ----------------------------------------------------------------

    def run(self, max_events: int = 1_000_000) -> float:
        """Run events in timestamp order until the queue drains.

        Args:
            max_events: safety limit on the number of executed events; the
                run executes at most this many callbacks.

        Returns:
            The simulation time when the run stopped.

        Raises:
            SimulationError: when an event is still due after ``max_events``
                callbacks ran (runaway loop).
        """
        executed = 0
        while self._queue:
            if executed == max_events:
                raise SimulationError(
                    f"event budget of {max_events} exhausted; likely a runaway schedule"
                )
            event = heapq.heappop(self._queue)
            self._now_ms = event.time_ms
            event.callback(self)
            executed += 1
        return self._now_ms
