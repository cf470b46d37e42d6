"""Power model (Eq. 21): mean computation power and per-segment power.

The mean power drawn while the compute complex is busy is the blended
quadratic regression of Eq. (21).  Individual pipeline segments stress
different parts of the SoC (hardware codec for encoding, GPU/NPU for
inference, radio for transmission), so each segment's power is the mean
computation power scaled by a per-segment factor — the same factors the
simulated testbed uses, playing the role of the per-segment power
measurements the paper's testbed provides.  Both take a float or an aligned
array of operating points.

The paper's published Eq. (21) coefficients become negative below roughly
1.3 GHz (CPU) / 0.5 GHz (GPU); the model clamps the mean power at the
device's base power (see docs/ARCHITECTURE.md, "Modelling decisions").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.application import ApplicationConfig
from repro.config.device import DeviceSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.numeric import ArrayLike, at_least
from repro.core.segments import RADIO_SEGMENTS, Segment
from repro.exceptions import ModelDomainError
from repro.measurement.truth import SEGMENT_POWER_FACTORS


@dataclass
class PowerModel:
    """Evaluates segment power draws for one XR device.

    Attributes:
        coefficients: regression coefficient set (Eq. 21 blend).
        device: the XR device specification (base power, thermal fraction).
    """

    coefficients: CoefficientSet
    device: DeviceSpec

    # -- mean computation power (Eq. 21) ---------------------------------------------

    def mean_power_w(
        self, cpu_freq_ghz: ArrayLike, gpu_freq_ghz: ArrayLike, cpu_share: float
    ) -> ArrayLike:
        """Mean computation power ``P_mean`` (W), clamped at the base power."""
        value = self.coefficients.power.evaluate(cpu_freq_ghz, gpu_freq_ghz, cpu_share)
        return at_least(value, max(self.device.base_power_w, 1e-3))

    def mean_power_for(self, app: ApplicationConfig) -> float:
        """Mean computation power at an application's operating point."""
        return self.mean_power_w(app.cpu_freq_ghz, app.gpu_freq_ghz, app.cpu_share)

    # -- per-segment power -------------------------------------------------------------

    def segment_power_w(
        self,
        segment: Segment,
        mean_power_w: ArrayLike,
        network: NetworkConfig | None = None,
    ) -> ArrayLike:
        """Power drawn by the XR device while executing one segment.

        Radio-bound segments (transmission, handoff, cooperation) use the
        radio power from the network configuration when provided; compute
        segments scale the mean computation power ``mean_power_w`` by the
        segment factor.
        """
        if network is not None and segment in RADIO_SEGMENTS:
            if segment is Segment.HANDOFF:
                return network.handoff.power_w
            return network.radio_tx_power_w
        try:
            factor = SEGMENT_POWER_FACTORS[segment.value]
        except KeyError as error:
            raise ModelDomainError(f"no power factor for segment {segment}") from error
        return factor * mean_power_w
