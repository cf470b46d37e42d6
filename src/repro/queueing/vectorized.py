"""Vectorized closed-form queueing results (array port of M/M/1).

The scalar class :class:`repro.queueing.mm1.MM1Queue` evaluates one
operating point at a time; the batch evaluation engine (:mod:`repro.batch`)
needs the same closed form over whole arrays of operating points.
``mm1_sojourn_ms`` is an element-wise port of the Eq. (7)/(22) mean sojourn
``1 / (mu - lambda)`` — same equation, same operation order, so a length-1
array reproduces the scalar result bit for bit.  The batch engine's
buffering and AoI terms use it.  The edge GPU's tagged M/G/1 and PS waits
have no array port: they are defined once, per tenant, by
:meth:`repro.fleet.edge_scheduler.EdgeScheduler.tenant_wait_ms`.

Stability is enforced exactly like the scalar class: a zero arrival rate
is a legitimate idle-queue boundary, while ``rho >= 1`` raises
:class:`~repro.exceptions.UnstableQueueError`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.exceptions import UnstableQueueError

ArrayLike = Union[float, np.ndarray]


def _as_array(value: ArrayLike) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _check_rates(arrival_rate_per_ms: np.ndarray, service_rate_per_ms: np.ndarray) -> None:
    if np.any(arrival_rate_per_ms < 0.0):
        raise UnstableQueueError(
            f"arrival rates must be >= 0, got min {np.min(arrival_rate_per_ms)}"
        )
    if np.any(service_rate_per_ms <= 0.0):
        raise UnstableQueueError(
            f"service rates must be > 0, got min {np.min(service_rate_per_ms)}"
        )
    if np.any(arrival_rate_per_ms >= service_rate_per_ms):
        raise UnstableQueueError(
            "M/M/1 requires lambda < mu for stability at every point"
        )


def mm1_sojourn_ms(
    arrival_rate_per_ms: ArrayLike, service_rate_per_ms: ArrayLike
) -> np.ndarray:
    """Element-wise M/M/1 mean sojourn time ``T̄ = 1 / (mu - lambda)`` (ms)."""
    arrival = _as_array(arrival_rate_per_ms)
    service = _as_array(service_rate_per_ms)
    _check_rates(arrival, service)
    return 1.0 / (service - arrival)
