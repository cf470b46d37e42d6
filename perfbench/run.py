"""Benchmark of the repro XR model stack, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cosim_homog_10k --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the workload is run untraced, each time in a fresh process,
until ``--seconds`` have passed; the end-to-end metrics are the medians over
those samples.  With ``--trace 1`` one process runs the workload untraced,
then traced, and reports the per-layer metrics and the tracing overhead.
Every run also performs the output checks; a check that fails or a run that
raises counts as a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit.  If ``repro`` cannot be imported
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
#: Where the work-counter snapshots of earlier traced runs are kept.
COUNTER_DIR = ROOT / ".perfbench-cache" / "counters"

#: The workloads declared in BENCHMARK.json.  ``adapt_prewarm_4x1k`` is also
#: runnable (``--workload adapt_prewarm_4x1k``) but not declared: the run
#: budget admits three workloads at the run length that keeps them steady.
WORKLOADS = ("cosim_homog_10k", "cosim_mixed_sharded", "suite_bundled")

#: (name, unit) of the end-to-end metrics, reported from untraced samples.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "ratio"),
)

#: One sample process may take this long before it is killed.
SAMPLE_TIMEOUT_S = 170.0


class SampleError(RuntimeError):
    """A sample process died without reporting (not a workload failure)."""


def _child_env() -> Dict[str, str]:
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_sample(workload: str, seed: int, mode: str, smoke: bool) -> dict:
    """Run ``sample.py`` in a fresh process group and parse its JSON line."""
    command = [
        sys.executable,
        str(SAMPLE),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if smoke:
        command.append("--smoke")
    process = subprocess.Popen(
        command,
        cwd=str(ROOT),
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise SampleError(f"{mode} sample of {workload} timed out") from None
    finally:
        # Reap anything the sample left behind in its process group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SampleError(f"{mode} sample of {workload} exited with {process.returncode}")
    return json.loads(lines[-1])


def _code_hash() -> str:
    """Digest of the program and benchmark sources (keys the snapshots)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.suffix in (".py", ".toml", ".json") and path.is_file():
                digest.update(path.relative_to(ROOT).as_posix().encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_counters(workload: str, seed: int, smoke: bool, counters: dict) -> List[str]:
    """Compare against the snapshot an earlier run of the same code left.

    The first traced run of a (code, workload, seed) records its snapshot;
    every later one must reproduce it exactly.
    """
    tag = "-smoke" if smoke else ""
    path = COUNTER_DIR / f"{workload}{tag}-seed{seed}-{_code_hash()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")
        return []
    recorded = json.loads(path.read_text())
    return [
        f"work counter {name}: {counters.get(name)} != {recorded.get(name)} recorded earlier"
        for name in sorted(set(recorded) | set(counters))
        if counters.get(name) != recorded.get(name)
    ]


def timed_run(workload: str, seed: int, seconds: float, smoke: bool):
    """Untraced samples for about ``seconds``; the median of each metric.

    Another sample starts while it is expected to end no later than half a
    sample past ``seconds``, so a run lasts ``seconds`` on average.
    """
    samples = []
    attempted = failed = 0
    problems: List[str] = []
    start = time.perf_counter()
    while True:
        sample = run_sample(workload, seed, "time", smoke)
        attempted += sample["attempted"]
        failed += sample["failed"]
        problems.extend(sample["problems"])
        samples.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(samples) > seconds:
            break
    metrics: Dict[str, float] = {}
    for name, _ in END_TO_END:
        values = [sample[name] for sample in samples if name in sample]
        if values:
            metrics[name] = statistics.median(values)
    metrics["ops_ok_frac"] = 1.0 - failed / attempted
    notes = [f"samples: {len(samples)}"]
    return metrics, attempted, failed, problems, notes


def traced_run(workload: str, seed: int, smoke: bool):
    """One traced sample: per-layer metrics, checks and the counter snapshot."""
    sample = run_sample(workload, seed, "trace", smoke)
    attempted, failed = sample["attempted"], sample["failed"]
    problems = list(sample["problems"])
    metrics = sample["metrics"]
    if metrics is not None:
        attempted += 1
        mismatches = compare_counters(workload, seed, smoke, sample["counters"])
        if mismatches:
            failed += 1
            problems.extend(mismatches)
    return metrics, attempted, failed, problems, []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("adapt_prewarm_4x1k",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="shrunken workload sizes (tests)"
    )
    args = parser.parse_args(argv)

    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.smoke)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, args.smoke)
    except SampleError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics, attempted, failed, problems, notes = result
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    units = {**dict(END_TO_END), **UNITS}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; " + "; ".join(notes))
    payload_metrics = {}
    if metrics is not None:
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.6g} {units[name]}")
            payload_metrics[name] = {"value": value, "unit": units[name]}
    print(
        json.dumps(
            {
                "correct": failed == 0 and metrics is not None,
                "attempted": attempted,
                "failed": failed,
                "metrics": payload_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
