"""Wireless network substrate.

Covers the pieces of the edge-assisted wireless network the paper's models
touch:

* log-distance path loss (:mod:`repro.network.pathloss`) — off by default,
  matching the paper's baseline assumptions; there is no shadowing,
* the Rician fading sampler of the mobility condition trace
  (:mod:`repro.network.fading`),
* 802.11 link-budget throughput at the edge distance
  (:mod:`repro.network.wifi`),
* random-walk mobility over a cellular coverage layout
  (:mod:`repro.network.mobility`),
* the per-frame handoff latency model (:mod:`repro.network.handoff`).

The free-space propagation delay ``d / c`` is
:func:`repro.units.propagation_delay_ms`.
"""

from repro.network.fading import RicianFading
from repro.network.handoff import HandoffModel
from repro.network.mobility import CoverageLayout, RandomWalkMobility
from repro.network.pathloss import LogDistancePathLoss, free_space_path_loss_db
from repro.network.wifi import WifiLink, shannon_capacity_mbps

__all__ = [
    "CoverageLayout",
    "HandoffModel",
    "LogDistancePathLoss",
    "RandomWalkMobility",
    "RicianFading",
    "WifiLink",
    "free_space_path_loss_db",
    "shannon_capacity_mbps",
]
