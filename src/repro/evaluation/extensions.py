"""Extension experiments beyond the paper's evaluation section.

The paper states several capabilities of the framework without evaluating
them ("path loss ... can be incorporated according to system requirements",
the handoff term of Eq. 17, the multi-edge split of Eq. 15).  These
experiments exercise those code paths so the claims are backed by runnable
results:

* :func:`mobility_extension` — end-to-end latency/energy as the XR device's
  speed grows and vertical handoffs become frequent (Eq. 17 active),
* :func:`pathloss_extension` — transmission latency as a function of the
  device-to-edge distance when the throughput comes from the link budget
  instead of a configured constant,
* :func:`multi_edge_extension` — remote inference latency as the task is
  split across 1..N edge servers (Eq. 15),
* :func:`session_extension` — session-level tails, battery life and thermal
  behaviour of the default workload on a standalone headset,
* :func:`adaptation_extension` — runtime adaptation over a bursty
  channel/load trace: controllers vs the best static operating point
  (:mod:`repro.adaptive`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple


from repro.config.application import ExecutionMode, InferenceConfig
from repro.config.network import HandoffConfig, NetworkConfig
from repro.core.framework import XRPerformanceModel
from repro.core.segments import Segment
from repro.core.session import SessionAnalyzer
from repro.evaluation.report import format_table
from repro.network.wifi import WifiLink


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of one extension experiment: a table plus a headline sentence."""

    name: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    headline: str

    def to_text(self) -> str:
        """Fixed-width rendering."""
        return (
            f"Extension experiment: {self.name}\n"
            + format_table(self.rows, self.headers)
            + f"\n{self.headline}"
        )


def mobility_extension(
    device: str = "XR1", edge: str = "EDGE-AGX", speeds_m_per_s: Tuple[float, ...] = (0.0, 1.4, 5.0, 15.0, 30.0)
) -> ExtensionResult:
    """End-to-end latency/energy vs device speed with handoffs enabled (Eq. 17)."""
    model = XRPerformanceModel(device=device, edge=edge)
    app = model.app.with_mode(ExecutionMode.REMOTE)
    rows: List[Tuple[str, ...]] = []
    latencies: List[float] = []
    for speed in speeds_m_per_s:
        network = NetworkConfig(
            handoff=HandoffConfig(enabled=speed > 0.0, device_speed_m_per_s=max(speed, 0.1))
        )
        latency = model.analyze_latency(app=app, network=network)
        energy = model.analyze_energy(app=app, network=network)
        from repro.core.segments import Segment

        handoff_ms = latency.segment_ms(Segment.HANDOFF)
        latencies.append(latency.total_ms)
        rows.append(
            (
                f"{speed:.1f}",
                f"{handoff_ms:.2f}",
                f"{latency.total_ms:.1f}",
                f"{energy.total_mj:.1f}",
            )
        )
    overhead = (latencies[-1] - latencies[0]) / latencies[0] * 100.0
    return ExtensionResult(
        name="mobility and handoff (Eq. 17)",
        headers=("speed (m/s)", "mean handoff latency (ms)", "E2E latency (ms)", "E2E energy (mJ)"),
        rows=tuple(rows),
        headline=(
            f"moving at {speeds_m_per_s[-1]:.0f} m/s adds {overhead:.1f}% end-to-end latency "
            "through vertical handoffs, a term FACT/LEAF do not model"
        ),
    )


def pathloss_extension(
    distances_m: Tuple[float, ...] = (5.0, 15.0, 30.0, 60.0, 90.0),
    device: str = "XR1",
    edge: str = "EDGE-AGX",
) -> ExtensionResult:
    """Transmission latency vs distance with link-budget throughput (path loss on)."""
    model = XRPerformanceModel(device=device, edge=edge)
    app = model.app.with_mode(ExecutionMode.REMOTE)
    rows: List[Tuple[str, ...]] = []
    throughputs: List[float] = []
    for distance in distances_m:
        network = NetworkConfig(enable_path_loss=True, edge_distance_m=distance)
        link = WifiLink(config=network)
        throughput = link.throughput_mbps()
        throughputs.append(throughput)
        latency = model.analyze_latency(app=app, network=network)
        from repro.core.segments import Segment

        rows.append(
            (
                f"{distance:.0f}",
                f"{throughput:.0f}",
                f"{latency.segment_ms(Segment.TRANSMISSION):.2f}",
                f"{latency.total_ms:.1f}",
            )
        )
    drop = (throughputs[0] - throughputs[-1]) / throughputs[0] * 100.0
    return ExtensionResult(
        name="log-distance path loss and link-budget throughput",
        headers=("distance (m)", "throughput (Mbps)", "transmission (ms)", "E2E latency (ms)"),
        rows=tuple(rows),
        headline=(
            f"link-budget throughput falls by {drop:.0f}% from "
            f"{distances_m[0]:.0f} m to {distances_m[-1]:.0f} m, growing the transmission term "
            "the paper's default configuration keeps constant"
        ),
    )


def multi_edge_extension(
    max_servers: int = 4, device: str = "XR3", edge: str = "EDGE-TX2"
) -> ExtensionResult:
    """Remote-inference latency as the task splits across 1..N edge servers (Eq. 15)."""
    model = XRPerformanceModel(device=device, edge=edge)
    base_app = model.app
    rows: List[Tuple[str, ...]] = []
    remote_latencies: List[float] = []
    for n_servers in range(1, max_servers + 1):
        shares = tuple([1.0 / n_servers] * n_servers)
        app = replace(
            base_app,
            inference=InferenceConfig(
                mode=ExecutionMode.REMOTE, omega_client=0.0, edge_shares=shares
            ),
        )
        breakdown = model.analyze_latency(app=app)
        remote = breakdown.segment_ms(Segment.REMOTE_INFERENCE)
        total = breakdown.total_ms
        remote_latencies.append(remote)
        rows.append((str(n_servers), f"{remote:.2f}", f"{total:.1f}"))
    speedup = remote_latencies[0] / remote_latencies[-1]
    return ExtensionResult(
        name="remote inference split across multiple edge servers (Eq. 15)",
        headers=("edge servers", "remote inference (ms)", "E2E latency (ms)"),
        rows=tuple(rows),
        headline=(
            f"splitting the inference task over {max_servers} servers speeds the remote "
            f"inference segment up {speedup:.1f}x, but the end-to-end gain is bounded by "
            "encoding and transmission, which do not parallelise"
        ),
    )


def adaptation_extension(
    device: str = "XR1",
    edge: str = "EDGE-AGX",
    n_epochs: int = 300,
    seed: int = 7,
    deadline_ms: float = 700.0,
) -> ExtensionResult:
    """Runtime adaptation on a bursty trace: controllers vs the best static point."""
    from repro.adaptive import (
        AdaptiveRuntime,
        EwmaPredictive,
        GreedyBatchSweep,
        HysteresisThreshold,
        burst_trace,
    )

    runtime = AdaptiveRuntime(
        trace=burst_trace(n_epochs, seed=seed),
        device=device,
        edge=edge,
        deadline_ms=deadline_ms,
    )
    static = runtime.static_report()
    greedy = runtime.run(GreedyBatchSweep())
    reports = [
        static,
        runtime.run(HysteresisThreshold()),
        greedy,
        runtime.run(EwmaPredictive()),
    ]
    rows = tuple(
        (
            report.controller,
            f"{report.deadline_miss_rate * 100.0:.1f}%",
            f"{report.p95_latency_ms:.0f}",
            f"{report.mean_quality:.3f}",
            f"{report.total_energy_j:.0f}",
            f"{report.switch_count}",
        )
        for report in reports
    )
    return ExtensionResult(
        name=f"runtime adaptation on {device} (burst trace, {n_epochs} epochs)",
        headers=(
            "controller", "miss rate", "p95 (ms)", "quality", "energy (J)", "switches"
        ),
        rows=rows,
        headline=(
            "adapting the operating point per epoch keeps the deadline-miss rate at "
            f"{greedy.deadline_miss_rate * 100.0:.1f}% while lifting inference "
            f"quality from {static.mean_quality:.2f} (best static) to "
            f"{greedy.mean_quality:.2f}"
        ),
    )


def session_extension(
    device: str = "XR6", edge: str = "EDGE-AGX", n_frames: int = 400, seed: int = 1
) -> ExtensionResult:
    """Session-level latency tails, battery life and thermals on a standalone headset."""
    model = XRPerformanceModel(device=device, edge=edge)
    analyzer = SessionAnalyzer(model, use_simulation=True, seed=seed)
    report = analyzer.analyze_session(n_frames=n_frames)
    rows = (
        ("mean latency (ms)", f"{report.mean_latency_ms:.1f}"),
        ("p95 latency (ms)", f"{report.p95_latency_ms:.1f}"),
        ("p99 latency (ms)", f"{report.p99_latency_ms:.1f}"),
        ("achievable fps", f"{report.achievable_fps:.1f}"),
        ("energy per frame (mJ)", f"{report.mean_energy_mj:.1f}"),
        ("projected battery life (min)", f"{report.battery_life_s / 60.0:.0f}"),
        ("final skin temperature (C)", f"{report.final_temperature_c:.1f}"),
    )
    return ExtensionResult(
        name=f"session-level analysis on {device} ({n_frames} simulated frames)",
        headers=("metric", "value"),
        rows=rows,
        headline=(
            "per-frame models compose into session-level answers: tails come from the "
            "simulated testbed's variability, battery life from the Table I capacities"
        ),
    )
