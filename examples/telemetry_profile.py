"""Telemetry walkthrough: profile a closed-loop run, merge shard snapshots.

``repro.telemetry`` instruments every subsystem with counters, streaming
histograms and nestable wall-time spans, all behind a no-op default that
records nothing until enabled.  This walkthrough:

1. runs a small closed-loop co-simulation with telemetry enabled and
   renders the resulting span tree / counter tables — the in-process
   equivalent of ``python -m repro profile --select cosim_burst_hysteresis``;
2. shows the convergence accounting the instrumentation adds (converged /
   unconverged / oscillating epochs, best-response iterations, damping
   blends) lining up with the report's own ``convergence_rate``;
3. demonstrates snapshot mergeability: two independent runs folded into
   one registry, exactly how process-pool shards report back;
4. strips the wall-time fields and shows two runs agree on everything
   deterministic.

Run with ``python examples/telemetry_profile.py``.
"""

from __future__ import annotations

from repro import telemetry
from repro.adaptive import HysteresisThreshold, make_trace
from repro.cosim import run_cosim
from repro.fleet import homogeneous


def profiled_run(users: int = 16, epochs: int = 40):
    """One instrumented closed-loop run; returns (report, snapshot)."""
    registry = telemetry.enable()
    try:
        report = run_cosim(
            homogeneous(users, device="XR1"),
            HysteresisThreshold(),
            make_trace("burst", epochs, seed=0),
            n_edges=2,
            include_aoi=False,
        )
    finally:
        telemetry.disable()
    return report, registry.snapshot()


def main() -> None:
    # -- 1. profile one run ------------------------------------------------
    report, snapshot = profiled_run()
    print("=== span tree and counters (repro profile, in-process) ===")
    print(telemetry.format_profile(snapshot, telemetry.cache_report()))

    # -- 2. convergence accounting ----------------------------------------
    counters = snapshot["counters"]
    print("\n=== convergence accounting ===")
    print(f"epochs:                  {counters['cosim.epochs']}")
    print(f"  converged:             {counters.get('cosim.epochs_converged', 0)}")
    print(f"  unconverged:           {counters.get('cosim.epochs_unconverged', 0)}")
    print(f"  of which oscillating:  {counters.get('cosim.epochs_oscillating', 0)}")
    print(f"best-response iterations: {counters['cosim.best_response_iterations']}")
    print(f"damping blends:          {counters.get('cosim.damping_blends', 0)}")
    print(f"report.convergence_rate: {report.convergence_rate:.4f}")
    assert counters.get("cosim.epochs_converged", 0) == sum(report.converged)

    # -- 3. snapshots merge like process-pool shards -----------------------
    _, second = profiled_run()
    merged = telemetry.merge_snapshots([snapshot, second])
    print("\n=== merged snapshot (two runs, shard-style) ===")
    print(f"cosim.epochs:   {merged['counters']['cosim.epochs']}  (2x one run)")
    histogram = merged["histograms"]["cosim.iterations_per_epoch"]
    print(f"iterations/epoch histogram count: {histogram['count']}")

    # -- 4. determinism modulo wall time -----------------------------------
    identical = telemetry.strip_timing(snapshot) == telemetry.strip_timing(second)
    print(f"\ntwo runs identical modulo timing: {identical}")
    assert identical


if __name__ == "__main__":
    main()
