"""Simulated testbed: the framework's substitute for the paper's physical testbed.

The paper validates its analytical models against measurements from real XR
devices ("Ground Truth").  Without that hardware, this package produces the
ground truth by simulation:

* :mod:`repro.simulation.noise` — measurement/OS-jitter noise models,
* :mod:`repro.simulation.trace` — per-frame trace containers,
* :mod:`repro.simulation.processes` — stochastic per-segment samplers driven
  by the hidden testbed truth of :mod:`repro.measurement.truth`,
* :mod:`repro.simulation.pipeline_sim` — frame-by-frame simulation of the XR
  pipeline on one device (latency and energy ground truth),
* :mod:`repro.simulation.sensor_sim` — AoI emulation: periodic sensors
  feeding the FIFO input buffer, simulated by
  :func:`repro.queueing.simulation.simulate_single_server_queue` (ground
  truth for Fig. 4(e)/(f)),
* :mod:`repro.simulation.testbed` — the user-facing
  :class:`~repro.simulation.testbed.SimulatedTestbed` orchestrating runs over
  sweeps, mirroring the paper's experimental methodology.
"""

from repro import _lazy_exports

#: Exported name -> defining module, imported on first access.
_LAZY = {
    "NoiseModel": "repro.simulation.noise",
    "PipelineSimulator": "repro.simulation.pipeline_sim",
    "AoIEmulation": "repro.simulation.sensor_sim",
    "emulate_aoi": "repro.simulation.sensor_sim",
    "GroundTruthRun": "repro.simulation.testbed",
    "SimulatedTestbed": "repro.simulation.testbed",
    "truth_coefficients": "repro.simulation.testbed",
    "FrameTrace": "repro.simulation.trace",
    "RunTrace": "repro.simulation.trace",
}

__getattr__, __dir__ = _lazy_exports(__name__, globals(), _LAZY)

__all__ = [
    "AoIEmulation",
    "FrameTrace",
    "GroundTruthRun",
    "NoiseModel",
    "PipelineSimulator",
    "RunTrace",
    "SimulatedTestbed",
    "emulate_aoi",
    "truth_coefficients",
]
