"""Frame-by-frame simulation of the XR pipeline on one device.

For every simulated frame the pipeline executes its segments in order
(frame generation, volumetric data, external information, then the
conversion/inference or encoding/transmission/remote-inference branch, then
rendering), each with a stochastic latency and power draw sampled by a
:class:`~repro.simulation.processes.SegmentSampler`.  The result is a
:class:`~repro.simulation.trace.RunTrace` of per-frame latency and energy
measurements — the "Ground Truth" the analytical models are validated
against in Section VIII.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config.application import ApplicationConfig
from repro.config.device import DeviceSpec, EdgeServerSpec
from repro.config.network import NetworkConfig
from repro.core.coefficients import CoefficientSet
from repro.core.latency import XRLatencyModel
from repro.core.segments import COMPUTE_SEGMENTS, Segment
from repro.measurement.truth import TestbedTruth
from repro.simulation.noise import NoiseModel
from repro.simulation.processes import SegmentSampler
from repro.simulation.trace import FrameTrace, RunTrace


@dataclass
class PipelineSimulator:
    """Simulates the object-detection pipeline for one device/edge pair.

    Attributes:
        device: the simulated XR device's specification.
        edge: the edge server specification (None for local-only pipelines).
        exact_coefficients: the truth-exact coefficient set of the device
            (built by :func:`repro.simulation.testbed.truth_coefficients`).
        truth: the hidden testbed truth used for power draws.
        noise: the measurement/OS noise model.
    """

    device: DeviceSpec
    edge: Optional[EdgeServerSpec]
    exact_coefficients: CoefficientSet
    truth: TestbedTruth
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self) -> None:
        self._exact_model = XRLatencyModel(
            device=self.device, edge=self.edge, coefficients=self.exact_coefficients
        )

    # -- single run --------------------------------------------------------------------

    def simulate(
        self,
        app: ApplicationConfig,
        network: Optional[NetworkConfig] = None,
        n_frames: int = 20,
        seed: int = 0,
    ) -> RunTrace:
        """Simulate ``n_frames`` frames and return their traces.

        Args:
            app: application configuration of the run.
            network: network configuration (defaults to the standard topology).
            n_frames: number of frames to simulate.
            seed: RNG seed of the run.
        """
        if n_frames <= 0:
            raise ValueError(f"n_frames must be > 0, got {n_frames}")
        if network is None:
            network = NetworkConfig()
        rng = np.random.default_rng(seed)
        sampler = SegmentSampler(
            exact_model=self._exact_model,
            truth=self.truth,
            device=self.device,
            app=app,
            network=network,
            noise=self.noise,
        )

        frames = []
        included = sampler.expected_breakdown.included_segments
        for frame_index in range(n_frames):
            latencies: Dict[Segment, float] = {}
            energies: Dict[Segment, float] = {}
            handoff_occurred = False
            buffer_delay = 0.0
            for segment in sorted(included, key=lambda s: s.value):
                if segment is Segment.HANDOFF:
                    latency, handoff_occurred = sampler.sample_handoff_ms(rng)
                elif segment is Segment.RENDERING:
                    buffer_delay = sampler.sample_buffer_delay_ms(rng)
                    latency = sampler.sample_latency_ms(segment, rng) + buffer_delay
                else:
                    latency = sampler.sample_latency_ms(segment, rng)
                power = sampler.sample_power_w(segment, rng)
                energy = power * latency
                latencies[segment] = latency
                energies[segment] = energy

            compute_energy = sum(
                energies[segment] for segment in energies if segment in COMPUTE_SEGMENTS
            )
            total_latency = sum(latencies.values())
            thermal = self.device.thermal_fraction * compute_energy
            base = self.device.base_power_w * total_latency
            frames.append(
                FrameTrace(
                    frame_index=frame_index,
                    segment_latency_ms=latencies,
                    segment_energy_mj=energies,
                    thermal_mj=thermal,
                    base_mj=base,
                    handoff_occurred=handoff_occurred,
                    buffer_delay_ms=buffer_delay,
                )
            )
        return RunTrace(frames)

    # -- convenience ---------------------------------------------------------------------

    def expected_breakdown(
        self, app: ApplicationConfig, network: Optional[NetworkConfig] = None
    ):
        """The truth-exact expected latency breakdown (no noise)."""
        if network is None:
            network = NetworkConfig()
        return self._exact_model.end_to_end(app, network)
