"""Queueing-theory substrate used by the buffering and AoI models.

The paper models the XR input buffer as a stable M/M/1 queue (Eq. 7 and
Eq. 22).  This package provides:

* a Poisson arrival process generator (:mod:`repro.queueing.arrivals`),
* closed-form M/M/1 and M/G/1 (Pollaczek–Khinchine) results
  (:mod:`repro.queueing.mm1`, :mod:`repro.queueing.mg1`),
* an event-driven single-server queue simulator, which runs the AoI
  emulation's input buffer and which the buffer-model ablation compares
  with the closed forms (:mod:`repro.queueing.simulation`).
"""

from repro.queueing.arrivals import PoissonProcess
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import MM1Queue
from repro.queueing.simulation import QueueSimulationResult, simulate_single_server_queue

__all__ = [
    "MG1Queue",
    "MM1Queue",
    "PoissonProcess",
    "QueueSimulationResult",
    "simulate_single_server_queue",
]
