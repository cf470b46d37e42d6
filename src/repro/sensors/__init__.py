"""External sensors and the XR input buffer.

The XR device receives control and environmental information from external
sensors and devices (roadside units, neighbouring XR devices, IoT devices).
This package models:

* the per-sensor information generation process and its latency contribution
  (Eqs. 5-6) — :mod:`repro.sensors.sensor`,
* the input buffer holding captured frames, volumetric data and external
  information, modelled as an M/M/1 queue (Eq. 7) — :mod:`repro.sensors.buffer`.

The AoI staircase of Fig. 4(f) is computed by :mod:`repro.core.aoi` and
replayed by :mod:`repro.simulation.sensor_sim`.
"""

from repro.sensors.buffer import BufferDelays, InputBuffer
from repro.sensors.sensor import ExternalSensor

__all__ = [
    "BufferDelays",
    "ExternalSensor",
    "InputBuffer",
]
