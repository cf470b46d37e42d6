"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro import telemetry  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bench(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT_RE.fullmatch(metric["unit"]), metric


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) <= set(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


def _patched_attributes():
    """Every attribute the tracer patches, with its current value."""
    values = {}
    for _, cls, attr in tracing._method_sites():
        values[(cls, attr)] = vars(cls)[attr]
    for _, attr in tracing.FUNCTION_SPANS:
        for module in tracing._repro_modules():
            if attr in vars(module):
                values[(module, attr)] = vars(module)[attr]
    return values


def test_traced_pass_restores_every_wrapped_function():
    workload = workloads.build("suite_bundled", 0, smoke=True)
    before = _patched_attributes()
    with tracing.Tracer() as tracer:
        assert tracing.leftover_wrappers()
        workload.run(None)
    assert tracer.calls["experiments.run"] == 1
    assert tracing.leftover_wrappers() == []
    assert _patched_attributes() == before
    assert not telemetry.get().enabled


def test_tracer_restores_when_the_traced_code_raises():
    before = _patched_attributes()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert tracing.leftover_wrappers() == []
    assert _patched_attributes() == before
