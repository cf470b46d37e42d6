"""Queueing-theory substrate used by the buffering and AoI models.

The paper models the XR input buffer as a stable M/M/1 queue (Eq. 7 and
Eq. 22).  This package provides:

* arrival/service process generators (:mod:`repro.queueing.arrivals`),
* closed-form M/M/1 and M/G/1 (Pollaczek–Khinchine) results
  (:mod:`repro.queueing.mm1`, :mod:`repro.queueing.mg1`),
* an event-driven single-server queue simulator used to validate the
  closed-form results and to drive the simulated testbed's input buffer
  (:mod:`repro.queueing.simulation`),
* Little's-law consistency helpers (:mod:`repro.queueing.littles_law`),
* a vectorized array port of the M/M/1 sojourn time used by the batch
  evaluation engine (:mod:`repro.queueing.vectorized`).
"""

from repro.queueing.arrivals import (
    DeterministicProcess,
    PoissonProcess,
    merge_arrival_times,
)
from repro.queueing.littles_law import littles_law_l, littles_law_w, relative_gap
from repro.queueing.mg1 import MG1Queue
from repro.queueing.mm1 import MM1Queue
from repro.queueing.simulation import QueueSimulationResult, simulate_single_server_queue
from repro.queueing.vectorized import mm1_sojourn_ms

__all__ = [
    "DeterministicProcess",
    "MG1Queue",
    "MM1Queue",
    "PoissonProcess",
    "QueueSimulationResult",
    "littles_law_l",
    "littles_law_w",
    "merge_arrival_times",
    "mm1_sojourn_ms",
    "relative_gap",
    "simulate_single_server_queue",
]
