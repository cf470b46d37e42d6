"""Computation-resource availability model (Eq. 3) and the client/edge relation.

The XR application requests processing-unit allocations from the device OS;
the resulting effective compute resource ``c_client`` is modelled by the
blended quadratic regression of Eq. (3) over the CPU/GPU clocks and the
CPU utilisation share.  The edge server's allocated compute ``c_epsilon``
follows the measured proportionality ``c_epsilon = 11.76 c_client``
(Section IV-B), optionally overridden by an
:class:`~repro.config.device.EdgeServerSpec`'s own scale factor.  Both take
a float or an aligned array of operating points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.application import ApplicationConfig
from repro.config.device import EdgeServerSpec
from repro.core.coefficients import CoefficientSet
from repro.core.numeric import ArrayLike, any_true, at_least
from repro.exceptions import ModelDomainError

#: Lower clamp of the evaluated client compute ``c_client``.  The paper's
#: published Eq. (3) coefficients dip to very small (for some GPU clocks,
#: negative) values outside the fitted domain; the clamp keeps every latency
#: term finite (see docs/ARCHITECTURE.md, "Modelling decisions").
COMPUTE_FLOOR = 0.5


@dataclass(frozen=True)
class ComputeResourceModel:
    """Evaluates allocated compute resources for client and edge devices.

    Attributes:
        coefficients: the regression coefficient set in use.
    """

    coefficients: CoefficientSet

    # -- client ------------------------------------------------------------------

    def client_compute(
        self, cpu_freq_ghz: ArrayLike, gpu_freq_ghz: ArrayLike, cpu_share: float
    ) -> ArrayLike:
        """Allocated client compute ``c_client`` (Eq. 3), clamped at :data:`COMPUTE_FLOOR`."""
        value = self.coefficients.resource.evaluate(cpu_freq_ghz, gpu_freq_ghz, cpu_share)
        return at_least(value, COMPUTE_FLOOR)

    def client_compute_for(self, app: ApplicationConfig) -> float:
        """Client compute for an application configuration's operating point."""
        return self.client_compute(app.cpu_freq_ghz, app.gpu_freq_ghz, app.cpu_share)

    # -- edge --------------------------------------------------------------------

    def edge_compute(
        self, client_compute: ArrayLike, edge: Optional[EdgeServerSpec] = None
    ) -> ArrayLike:
        """Allocated edge compute ``c_epsilon`` for a given client compute.

        Uses the edge server's own ``compute_scale_vs_client`` when a spec is
        provided, otherwise the coefficient set's global scale (11.76 for the
        paper's measurements).
        """
        if any_true(client_compute <= 0.0):
            raise ModelDomainError(
                f"client compute must be > 0, got {client_compute}"
            )
        scale = (
            edge.compute_scale_vs_client
            if edge is not None
            else self.coefficients.edge_compute_scale
        )
        return scale * client_compute
