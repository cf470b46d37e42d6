"""Test oracles: independent references the suite checks the model against.

Nothing in ``src/`` calls them, so they live with the tests.

* Little's law (``L = lambda * W``) holds for any stationary queueing system,
  so it checks the closed-form queues and the queue simulator against each
  other without further assumptions.
* :func:`simulate_buffer_delays` measures Eq. (7)'s three buffer streams on
  one shared FIFO server, the interference the closed form leaves out.
* :func:`exhaustive_capacity` plans a capacity the slow way, with one full
  fleet analysis per probed fleet size, for the fast probe behind
  ``plan_capacity`` to match.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.fleet import FleetAnalyzer, bisect_capacity, homogeneous
from repro.fleet.admission import RoundRobinAdmission
from repro.fleet.capacity import CapacityPlan
from repro.queueing.arrivals import PoissonProcess
from repro.queueing.simulation import simulate_single_server_queue
from repro.sensors.buffer import BufferDelays


def littles_law_l(arrival_rate_per_ms: float, mean_time_in_system_ms: float) -> float:
    """Mean number in system implied by Little's law, ``L = lambda * W``."""
    if arrival_rate_per_ms < 0.0:
        raise ValueError(f"arrival rate must be >= 0, got {arrival_rate_per_ms}")
    if mean_time_in_system_ms < 0.0:
        raise ValueError(
            f"mean time in system must be >= 0, got {mean_time_in_system_ms}"
        )
    return arrival_rate_per_ms * mean_time_in_system_ms


def littles_law_w(mean_number_in_system: float, arrival_rate_per_ms: float) -> float:
    """Mean time in system implied by Little's law, ``W = L / lambda``."""
    if arrival_rate_per_ms <= 0.0:
        raise ValueError(f"arrival rate must be > 0, got {arrival_rate_per_ms}")
    if mean_number_in_system < 0.0:
        raise ValueError(
            f"mean number in system must be >= 0, got {mean_number_in_system}"
        )
    return mean_number_in_system / arrival_rate_per_ms


def relative_gap(observed: float, expected: float) -> float:
    """Relative difference ``|observed - expected| / max(|expected|, eps)``."""
    denominator = max(abs(expected), 1e-12)
    return abs(observed - expected) / denominator


def simulate_buffer_delays(
    app: ApplicationConfig,
    network: NetworkConfig,
    horizon_ms: float,
    rng: np.random.Generator,
) -> BufferDelays:
    """Per-stream buffering delays measured on one shared input buffer.

    The frame, volumetric and external streams arrive as Poisson processes
    and share one FIFO server with exponential service at
    ``app.buffer_service_rate_hz``.  Each stream's delay is the mean sojourn
    time of its own packets (0.0 for a stream with none).
    """
    frame_rate_per_ms = app.frame_rate_fps / 1e3
    sensor_rate_per_ms = network.total_sensor_arrival_rate_hz / 1e3
    streams = {
        "frame": PoissonProcess(frame_rate_per_ms).sample_arrival_times(horizon_ms, rng),
        "volumetric": PoissonProcess(frame_rate_per_ms).sample_arrival_times(horizon_ms, rng),
        "external": (
            PoissonProcess(sensor_rate_per_ms).sample_arrival_times(horizon_ms, rng)
            if sensor_rate_per_ms > 0.0
            else np.array([], dtype=float)
        ),
    }
    arrivals = np.concatenate(list(streams.values()))
    labels = np.repeat(list(streams), [len(times) for times in streams.values()])
    order = np.argsort(arrivals, kind="mergesort")
    service_rate_per_ms = app.buffer_service_rate_hz / 1e3
    services = rng.exponential(1.0 / service_rate_per_ms, size=len(arrivals))
    sojourns = simulate_single_server_queue(arrivals[order], services).sojourn_times_ms

    def mean_for(name: str) -> float:
        mine = sojourns[labels[order] == name]
        return float(np.mean(mine)) if len(mine) else 0.0

    return BufferDelays(
        frame_ms=mean_for("frame"),
        volumetric_ms=mean_for("volumetric"),
        external_ms=mean_for("external"),
    )


def exhaustive_capacity(
    device: str,
    edge: str,
    slo_ms: float,
    app: Optional[ApplicationConfig] = None,
    network: Optional[NetworkConfig] = None,
    n_edges: int = 1,
    max_users: int = 4096,
) -> CapacityPlan:
    """The capacity plan of full round-robin fleet analyses.

    :func:`repro.fleet.bisect_capacity` over the p95 latency of
    ``FleetAnalyzer(homogeneous(n), policy=RoundRobinAdmission(),
    include_aoi=False).analyze()``, each fleet size analysed once.
    """
    p95: dict = {}

    def p95_of(n_users: int) -> float:
        if n_users not in p95:
            p95[n_users] = FleetAnalyzer(
                homogeneous(n_users, device=device, app=app),
                edge=edge,
                n_edges=n_edges,
                network=network,
                policy=RoundRobinAdmission(),
                slo_ms=slo_ms,
                include_aoi=False,
            ).analyze().p95_latency_ms
        return p95[n_users]

    capacity, ceiling_reached, evaluations = bisect_capacity(
        lambda n_users: p95_of(n_users) <= slo_ms, max_users
    )
    return CapacityPlan(
        slo_ms=slo_ms,
        max_users=capacity,
        p95_at_capacity_ms=p95_of(capacity) if capacity >= 1 else None,
        search_ceiling=max_users,
        ceiling_reached=ceiling_reached,
        evaluations=evaluations,
    )
