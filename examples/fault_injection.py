"""Fault-injection walkthrough: deterministic outages through every layer.

``repro.faults`` provides seeded, declarative fault schedules (outages,
brownouts, link degradation, stragglers) that thread through the fleet
analyzer, the adaptive runtime and the closed-loop co-simulation, plus a
hardened process-pool seam that survives killed and hung workers.  This
walkthrough:

1. builds a bundled edge-outage schedule and prints its epoch timeline;
2. drives the closed-loop co-sim through the outage and reads the recovery
   metrics (availability, fault-window miss rate, time-to-recover);
3. contrasts two adaptive controllers under the same schedule — one steers
   on-device and rides the outage out, the other is pinned to offloading
   and misses every fault epoch;
4. takes a fleet snapshot mid-outage and shows admission re-routing around
   the dead edge;
5. kills a pool worker via the chaos hook and shows the sharded run
   recovering to a bit-identical report, with the retries counted in
   telemetry.

Run with ``python examples/fault_injection.py``.
"""

from __future__ import annotations

import os

from repro import telemetry
from repro.adaptive import (
    AdaptiveRuntime,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
    step_trace,
)
from repro.cosim import run_cosim
from repro.exec import CHAOS_KILL_ENV
from repro.faults import make_schedule
from repro.fleet import FleetAnalyzer, GreedySLOAdmission, homogeneous


def cosim_under(schedule, users=4, n_shards=1):
    """One closed-loop run of the demo fleet under a fault schedule."""
    return run_cosim(
        homogeneous(users, device="XR1"),
        HysteresisThreshold(),
        step_trace(40, seed=11),
        n_shards=n_shards,
        n_edges=2,
        include_aoi=False,
        faults=schedule,
    )


def main() -> None:
    # -- 1. a declarative, replayable schedule -----------------------------
    schedule = make_schedule("edge-outage", start_epoch=10, duration_epochs=6)
    print("=== schedule ===")
    print(schedule.describe())
    print("(bit-exact round-trip:",
          schedule.to_dict() == type(schedule).from_dict(schedule.to_dict()).to_dict(),
          ")")

    # -- 2. the closed loop reacts and recovers ----------------------------
    report = cosim_under(schedule)
    print("\n=== co-sim under the outage ===")
    print(report.summary())
    print(f"availability:            {report.availability:.3f}")
    print(f"fault-window miss rate:  {report.faults.fault_miss_rate:.3f}")
    print(f"time to recover:         {report.mean_time_to_recover_epochs:.0f} epochs")

    # -- 3. controllers see the fault through their sweeps -----------------
    print("\n=== adaptive controllers under the same outage ===")
    adapt_schedule = make_schedule("edge-outage", start_epoch=8, duration_epochs=6)
    for label, controller in [
        ("greedy (steers on-device)", GreedyBatchSweep()),
        ("pinned offloader", None),
    ]:
        runtime = AdaptiveRuntime(
            trace=step_trace(30, seed=7), include_aoi=False, faults=adapt_schedule
        )
        if controller is None:
            offload_index = next(
                i for i, f in enumerate(runtime._offload_fraction) if f > 0
            )
            controller = StaticBaseline(offload_index)
        run = runtime.run(controller)
        outcome = runtime.fault_report(run)
        print(
            f"{label:28s} miss={run.deadline_miss_rate:.3f} "
            f"fault_miss={outcome.fault_miss_rate:.3f} "
            f"ttr={outcome.mean_time_to_recover_epochs:.0f}"
        )

    # -- 4. fleet admission degrades gracefully ----------------------------
    print("\n=== fleet snapshot mid-outage ===")
    fault_state = schedule.state_at(12, 2)
    fleet = FleetAnalyzer(
        homogeneous(12, device="XR1"),
        n_edges=2,
        policy=GreedySLOAdmission(slo_ms=800.0),
        slo_ms=800.0,
        include_aoi=False,
        fault_state=fault_state,
    ).analyze()
    print(fleet.summary())

    # -- 5. chaos: kill a worker, recover bit-identically ------------------
    print("\n=== chaos: killed shard worker ===")
    clean = cosim_under(schedule, users=8, n_shards=2)
    os.environ[CHAOS_KILL_ENV] = "0"
    try:
        registry = telemetry.enable()
        chaos = cosim_under(schedule, users=8, n_shards=2)
    finally:
        telemetry.disable()
        del os.environ[CHAOS_KILL_ENV]
    counters = registry.snapshot()["counters"]
    print(f"broken-pool retries: {counters.get('exec.retry.broken_pool', 0)}")
    print(f"serial re-runs:      {counters.get('exec.serial_reruns', 0)}")
    print(f"bit-identical report after recovery: {chaos.to_dict() == clean.to_dict()}")


if __name__ == "__main__":
    main()
