"""Common interface of the baseline analytical models."""

from __future__ import annotations

import abc
from typing import Optional

from repro.config.application import ApplicationConfig
from repro.config.network import NetworkConfig
from repro.exceptions import ModelDomainError
from repro.simulation.testbed import GroundTruthRun


class BaselineModel(abc.ABC):
    """A state-of-the-art analytical model used for comparison (Fig. 5).

    Baselines are calibrated once against a reference ground-truth run (the
    central operating point of the evaluation sweep) and then queried at
    arbitrary operating points.  Querying an uncalibrated baseline raises
    :class:`~repro.exceptions.ModelDomainError`.
    """

    #: Human-readable model name used in reports.
    name: str = "baseline"

    def __init__(self) -> None:
        self._calibrated = False

    def _require_calibration(self) -> None:
        if not self._calibrated:
            raise ModelDomainError(
                f"{self.name} must be calibrated against a reference run before use"
            )

    @abc.abstractmethod
    def calibrate(
        self, reference: GroundTruthRun, network: Optional[NetworkConfig] = None
    ) -> None:
        """Fit the baseline's constants to a reference ground-truth run."""

    @abc.abstractmethod
    def latency_ms(
        self, app: ApplicationConfig, network: Optional[NetworkConfig] = None
    ) -> float:
        """Predicted end-to-end latency at an operating point."""

    @abc.abstractmethod
    def energy_mj(
        self, app: ApplicationConfig, network: Optional[NetworkConfig] = None
    ) -> float:
        """Predicted end-to-end energy at an operating point."""
