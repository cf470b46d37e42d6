"""Multi-tenant edge GPU scheduling model.

The paper's remote-inference latency (Eq. 13/15) assumes a dedicated edge
GPU.  When several users offload to the same server their frames queue.
:class:`EdgeScheduler` models one edge GPU as a stationary FIFO queue built
on the Pollaczek-Khinchine :class:`repro.queueing.mg1.MG1Queue`, with
service SCV :data:`SERVICE_SCV`: frames are served in arrival order, and the
extra delay a tenant sees is the M/G/1 mean waiting time of the queue formed
by the *other* tenants' frames (the tagged-customer view: with no other
tenants the waiting time is exactly zero and the dedicated-GPU model is
recovered).

Overload (``rho >= 1``) is reported as an *infinite* waiting time rather
than an exception so capacity planners can treat saturation as an ordinary
infeasible point.

The multi-user layers — the fleet analyzer, the admission policies, the
capacity planner and the co-simulation — share one definition of an edge's
load and of a tenant's wait on it.  :func:`edge_loads` adds each edge's
tenants one at a time in placement order, and its busy fraction is the sum
of the tenants' ``rate * service`` times the edge's service scale (a
browned-out or straggling edge serves every frame slower): the scale
multiplies the sum, not each term.  :meth:`EdgeScheduler.tenant_wait_ms`
takes one tenant's own load out of its edge's total and charges it the
tagged wait of the rest.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ModelDomainError
from repro.queueing.mg1 import MG1Queue

#: Squared coefficient of variation of the edge GPU's inference service
#: time.  CNN inference on a dedicated GPU is fairly regular, so it sits
#: between deterministic (0) and exponential (1) service.
SERVICE_SCV = 0.5


def _check_service(service_time_ms: float) -> None:
    if service_time_ms <= 0.0:
        raise ModelDomainError(f"service time must be > 0, got {service_time_ms}")


def edge_loads(
    rate: np.ndarray,
    service: np.ndarray,
    tenants_by_edge: Sequence[np.ndarray],
    scale: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Offered frame rate (frames/ms) and busy fraction of every edge.

    ``tenants_by_edge[e]`` indexes edge ``e``'s tenants into ``rate``
    (frames/ms) and ``service`` (ms per frame) in placement order.  Both sums
    add the tenants one at a time in that order (``np.cumsum`` adds
    sequentially), and the busy fraction is ``(sum of rate * service) *
    scale[e]``.  An edge without tenants carries no load, whatever its scale.
    """
    edge_rate = np.zeros(len(tenants_by_edge))
    edge_busy = np.zeros(len(tenants_by_edge))
    for edge, tenants in enumerate(tenants_by_edge):
        if len(tenants):
            tenant_rate = rate[tenants]
            edge_rate[edge] = np.cumsum(tenant_rate)[-1]
            edge_busy[edge] = np.cumsum(tenant_rate * service[tenants])[-1] * scale[edge]
    return edge_rate, edge_busy


class EdgeScheduler:
    """Queueing model of one shared edge GPU (FIFO M/G/1, :data:`SERVICE_SCV`)."""

    # -- load ----------------------------------------------------------------

    @staticmethod
    def utilization(arrival_rate_per_ms: float, service_time_ms: float) -> float:
        """Server utilisation ``rho = lambda * E[S]``."""
        if arrival_rate_per_ms < 0.0:
            raise ModelDomainError(
                f"arrival rate must be >= 0, got {arrival_rate_per_ms}"
            )
        _check_service(service_time_ms)
        return arrival_rate_per_ms * service_time_ms

    # -- waiting time ----------------------------------------------------------

    def tagged_waiting_time_ms(
        self,
        service_time_ms: float,
        background_arrival_rate_per_ms: float,
        background_service_time_ms: Optional[float] = None,
    ) -> float:
        """Extra delay one tenant sees from the *other* tenants' frames.

        This is the quantity the fleet analyzer adds to the single-user
        remote-inference latency: a sole tenant (background rate 0) waits
        exactly 0 ms, recovering the paper's dedicated-GPU model.

        Args:
            service_time_ms: the tagged tenant's own service time (the
                FIFO wait depends only on the background).
            background_arrival_rate_per_ms: aggregate frame rate of the
                other tenants on the same edge.
            background_service_time_ms: mean service time of the *other*
                tenants' frames; defaults to ``service_time_ms``
                (homogeneous fleet).  In mixed-workload fleets the
                background workload — not the tagged tenant's — determines
                the queue, including whether it is saturated at all.
        """
        _check_service(service_time_ms)
        background_service = (
            background_service_time_ms
            if background_service_time_ms is not None
            else service_time_ms
        )
        rho = self.utilization(background_arrival_rate_per_ms, background_service)
        if rho >= 1.0:
            return math.inf
        queue = MG1Queue(
            arrival_rate_per_ms=background_arrival_rate_per_ms,
            mean_service_time_ms=background_service,
            service_scv=SERVICE_SCV,
        )
        return queue.mean_waiting_time_ms

    def tenant_wait_ms(
        self,
        service_time_ms: float,
        edge_rate_per_ms: float,
        edge_busy: float,
        own_rate_per_ms: float = 0.0,
        scale: float = 1.0,
    ) -> float:
        """Queueing wait of one tenant on an edge loaded as :func:`edge_loads` says.

        Args:
            service_time_ms: the tenant's unscaled service time per frame.
            edge_rate_per_ms: the edge's total frame rate.
            edge_busy: the edge's total busy fraction.
            own_rate_per_ms: the tenant's own frame rate, included in the
                totals; a marginal tenant, not yet placed, passes 0.
            scale: the edge's service scale.

        The tenant's own load ``(own_rate * service) * scale`` comes out of
        the totals, and the rest is the background of
        :meth:`tagged_waiting_time_ms`.  ``inf`` when the edge's total load
        saturates it: no tenant on it has a steady state, however small its
        own share.  Exactly 0 when no other tenant is on the edge.
        """
        _check_service(service_time_ms)
        if edge_busy >= 1.0:
            return math.inf
        background = max(edge_rate_per_ms - own_rate_per_ms, 0.0)
        if background == 0.0:
            return 0.0
        background_busy = max(
            edge_busy - own_rate_per_ms * service_time_ms * scale, 0.0
        )
        return self.tagged_waiting_time_ms(
            service_time_ms * scale, background, background_busy / background
        )
