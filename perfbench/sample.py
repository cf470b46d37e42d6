"""One benchmark sample in a fresh process; prints one JSON line.

Run by ``perfbench/run.py`` with ``src`` on ``PYTHONPATH``::

    python3 perfbench/sample.py --workload suite_bundled --seed 0 --mode time

Modes:

* ``time`` builds the workload (timed as ``setup_s``), runs it once untraced
  (``wall_s``, ``cpu_s``), records the peak RSS and runs the output checks;
* ``trace`` runs the workload untraced twice, then under
  :class:`tracing.Tracer`, and reports per-layer self-time shares, work
  counts and the tracing overhead, plus the exact work-counter snapshot.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

_T0 = time.perf_counter()


def _cpu_s() -> float:
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        self_usage.ru_utime
        + self_usage.ru_stime
        + child_usage.ru_utime
        + child_usage.ru_stime
    )


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, label: str, problems) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def call(self, label: str, fn, *args):
        """Run one operation; a raise counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self._fail(label, [f"raised\n{traceback.format_exc()}"])
            return None

    def check(self, label: str, fn, *args) -> None:
        """Run one output check: ``fn`` returns the list of problems found."""
        self.attempted += 1
        try:
            problems = fn(*args)
        except Exception:
            problems = [f"raised\n{traceback.format_exc()}"]
        if problems:
            self._fail(label, problems)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }


def _output_checks(ledger: Ledger, workload, report) -> None:
    from workloads import scalar_problems

    ledger.check("output checks", workload.checks, report)
    ledger.check("batch vs scalar", scalar_problems, workload.scalar_points)


def time_sample(name: str, seed: int, smoke: bool) -> dict:
    import repro  # noqa: F401  (timed as part of set-up)
    from workloads import build

    workload = build(name, seed, smoke)
    setup_s = time.perf_counter() - _T0
    ledger = Ledger()
    cpu_before = _cpu_s()
    start = time.perf_counter()
    report = ledger.call("run", workload.run, None)
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_s() - cpu_before
    result = {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
    if report is not None:
        result.update(wall_s=wall_s, cpu_s=cpu_s)
        _output_checks(ledger, workload, report)
    result.update(ledger.to_dict())
    return result


def _traced_pass(workload, backend):
    from tracing import Tracer

    with Tracer() as tracer:
        cpu_before = _cpu_s()
        start = time.perf_counter()
        report = workload.run(backend)
        wall_s = time.perf_counter() - start
        cpu_s = _cpu_s() - cpu_before
    return tracer, report, wall_s, cpu_s


def _payload_problems(workload, report, reference: str):
    from workloads import canonical

    if canonical(workload.payload(report)) != reference:
        return ["report payload differs from the first untraced run"]
    return []


def trace_sample(name: str, seed: int, smoke: bool) -> dict:
    from tracing import leftover_wrappers
    from workloads import build, canonical

    import layers

    workload = build(name, seed, smoke)
    ledger = Ledger()
    report = ledger.call("untraced run", workload.run, None)
    if report is None:
        return {"metrics": None, **ledger.to_dict()}
    reference = canonical(workload.payload(report))
    # The first run pays first-call costs (lazy imports, fresh heap pages);
    # a second untraced run is the wall time the traced pass is compared to.
    start = time.perf_counter()
    again = ledger.call("second untraced run", workload.run, None)
    untraced_wall_s = time.perf_counter() - start
    if again is None:
        return {"metrics": None, **ledger.to_dict()}
    ledger.check("second untraced run", _payload_problems, workload, again, reference)

    # The pass on the workload's own backend gives the exec numbers and the
    # tracing overhead; a sharded workload gets a second pass on the serial
    # backend, whose in-process shards the wrappers can see into.
    passes = {}
    backends = [workload.backend]
    if workload.backend not in (None, "serial"):
        backends.append("serial")
    for backend in backends:
        label = f"traced run on the {backend or 'default'} backend"
        traced = ledger.call(label, _traced_pass, workload, backend)
        if traced is None:
            return {"metrics": None, **ledger.to_dict()}
        passes[backend] = traced
        ledger.check(label, _payload_problems, workload, traced[1], reference)
    ledger.check("wrappers restored", leftover_wrappers)
    _output_checks(ledger, workload, report)

    own = passes[workload.backend]
    layer_pass = passes[backends[-1]]
    metrics, counters = layers.per_layer_metrics(layer_pass, own, untraced_wall_s)
    return {"metrics": metrics, "counters": counters, **ledger.to_dict()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("time", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "time":
        result = time_sample(args.workload, args.seed, args.smoke)
    else:
        result = trace_sample(args.workload, args.seed, args.smoke)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
