"""Event-driven single-server queue simulator.

Measures a FIFO queue's per-packet waits instead of taking them from a
closed form.  The AoI emulation (:func:`repro.simulation.sensor_sim.emulate_aoi`)
runs the XR input buffer through it, the buffer-model ablation
(:func:`repro.evaluation.ablations.ablation_buffer_model`) compares its
M/M/1 runs with the M/M/1 and M/D/1 formulas, and the test suite checks the
closed-form queues against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import SimulationError


@dataclass(frozen=True)
class QueueSimulationResult:
    """Outcome of one single-server queue simulation.

    Attributes:
        arrival_times_ms: packet arrival timestamps.
        start_service_times_ms: timestamps at which service began per packet.
        departure_times_ms: service completion timestamps per packet.
        waiting_times_ms: per-packet waiting (pre-service) times.
        sojourn_times_ms: per-packet total time in the system.
    """

    arrival_times_ms: np.ndarray
    start_service_times_ms: np.ndarray
    departure_times_ms: np.ndarray
    waiting_times_ms: np.ndarray
    sojourn_times_ms: np.ndarray

    @property
    def n_packets(self) -> int:
        """Number of packets that went through the queue."""
        return int(len(self.arrival_times_ms))

    @property
    def mean_sojourn_time_ms(self) -> float:
        """Average time in system across packets (0.0 when empty)."""
        if self.n_packets == 0:
            return 0.0
        return float(np.mean(self.sojourn_times_ms))

    @property
    def utilization(self) -> float:
        """Fraction of the simulated horizon the server was busy."""
        if self.n_packets == 0:
            return 0.0
        horizon = float(self.departure_times_ms[-1])
        if horizon <= 0.0:
            return 0.0
        busy = float(np.sum(self.departure_times_ms - self.start_service_times_ms))
        return min(1.0, busy / horizon)


def simulate_single_server_queue(
    arrival_times_ms: Sequence[float],
    service_times_ms: Sequence[float] | Callable[[int, np.random.Generator], float],
    rng: Optional[np.random.Generator] = None,
) -> QueueSimulationResult:
    """Simulate a FIFO single-server queue.

    Args:
        arrival_times_ms: sorted packet arrival timestamps.
        service_times_ms: either a per-packet array of service times, or a
            callable ``(packet_index, rng) -> service_time_ms`` used to draw
            them lazily.
        rng: random generator forwarded to a callable ``service_times_ms``.

    Returns:
        A :class:`QueueSimulationResult` with per-packet timings.

    Raises:
        SimulationError: if the arrival times are not sorted or a drawn
            service time is negative.
    """
    arrivals = np.asarray(arrival_times_ms, dtype=float)
    if arrivals.ndim != 1:
        raise SimulationError("arrival times must be a 1-D sequence")
    if len(arrivals) > 1 and np.any(np.diff(arrivals) < 0.0):
        raise SimulationError("arrival times must be sorted non-decreasingly")
    if rng is None:
        rng = np.random.default_rng(0)

    n = len(arrivals)
    if callable(service_times_ms):
        services = np.array([float(service_times_ms(i, rng)) for i in range(n)])
    else:
        services = np.asarray(service_times_ms, dtype=float)
        if len(services) != n:
            raise SimulationError(
                f"expected {n} service times, got {len(services)}"
            )
    if np.any(services < 0.0):
        raise SimulationError("service times must be >= 0")

    start_service = np.zeros(n)
    departures = np.zeros(n)
    previous_departure = 0.0
    for index in range(n):
        start_service[index] = max(arrivals[index], previous_departure)
        departures[index] = start_service[index] + services[index]
        previous_departure = departures[index]

    waiting = start_service - arrivals
    sojourn = departures - arrivals
    return QueueSimulationResult(
        arrival_times_ms=arrivals,
        start_service_times_ms=start_service,
        departure_times_ms=departures,
        waiting_times_ms=waiting,
        sojourn_times_ms=sojourn,
    )


def simulate_mm1(
    arrival_rate_per_ms: float,
    service_rate_per_ms: float,
    horizon_ms: float,
    rng: Optional[np.random.Generator] = None,
) -> QueueSimulationResult:
    """Convenience wrapper simulating an M/M/1 queue over a time horizon."""
    from repro.queueing.arrivals import PoissonProcess

    if rng is None:
        rng = np.random.default_rng(0)
    arrivals = PoissonProcess(arrival_rate_per_ms).sample_arrival_times(horizon_ms, rng)
    services = rng.exponential(1.0 / service_rate_per_ms, size=len(arrivals))
    return simulate_single_server_queue(arrivals, services, rng=rng)
