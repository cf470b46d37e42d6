"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each ``repro`` layer for the
duration of a ``with`` block and restores every original on exit.  Each
wrapper records a span (duration, and the part of it covered by wrapped
children) so a layer's *self* time is its spans' duration minus that of the
wrapped calls nested inside them.  Work counts (calls, points, keys, live
sweeps, child CPU of pool fan-outs) are taken at the same boundaries; the
solver and exec counters come from the existing ``repro.telemetry`` registry,
which the tracer enables for the block.

Module-level functions are replaced in every loaded ``repro`` module that
imported them by name (``repro.adaptive.runtime.evaluate_points`` and the
package re-exports), so callers that bound the name at import time are seen
too.  Parent-side wrappers cannot see inside process-pool workers; only the
fan-out call itself (``ExecutionBackend.map_tasks``) is timed there.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.adaptive.controllers import ControllerBase
from repro.adaptive.runtime import AdaptiveRuntime, ControlContext
from repro.batch import engine as batch_engine
from repro.core.framework import XRPerformanceModel
from repro.cosim.engine import CoSimulation
from repro.exec.backend import ExecutionBackend
from repro.experiments.runner import ExperimentRunner
from repro.fleet.analyzer import FleetAnalyzer
from repro.fleet.edge_scheduler import EdgeScheduler

#: Attribute set on every wrapper; points at the wrapped original.
ORIGINAL_ATTR = "__perfbench_original__"

#: Span name -> (class, method) of the wrapped methods.  Controller
#: ``decide`` and backend ``map_tasks`` are wrapped on every subclass that
#: defines them (see :func:`_method_sites`).
METHOD_SPANS: Tuple[Tuple[str, type, str], ...] = (
    ("core.analyze", XRPerformanceModel, "analyze"),
    ("adaptive.prewarm", ControlContext, "prewarm"),
    ("adaptive.sweep", ControlContext, "sweep"),
    ("adaptive.run", AdaptiveRuntime, "run"),
    ("cosim.init", CoSimulation, "__init__"),
    ("cosim.run", CoSimulation, "run"),
    ("fleet.analyze", FleetAnalyzer, "analyze"),
    ("fleet.edge_wait", EdgeScheduler, "tagged_waiting_time_ms"),
    ("experiments.run", ExperimentRunner, "run"),
)

#: Span name -> module-level function of ``repro.batch.engine``.
FUNCTION_SPANS: Tuple[Tuple[str, str], ...] = (
    ("batch.evaluate_points", "evaluate_points"),
    ("batch.evaluate_grid", "evaluate_grid"),
)


def _subclasses(base: type) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _method_sites() -> List[Tuple[str, type, str]]:
    sites = list(METHOD_SPANS)
    for cls in _subclasses(ControllerBase):
        if "decide" in vars(cls):
            sites.append(("adaptive.decide", cls, "decide"))
    for cls in _subclasses(ExecutionBackend):
        if "map_tasks" in vars(cls):
            sites.append(("exec.map_tasks", cls, "map_tasks"))
    return sites


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Wraps the layer entry points while active; collects spans and counts.

    Use as a context manager; every patched attribute is restored on exit,
    even when the traced code raises.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.child_cpu_s = 0.0
        self.snapshot: Optional[dict] = None
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._previous_registry = None

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.calls[frame[0]] += 1
        self.self_s[frame[0]] += duration - frame[2]
        self.total_s[frame[0]] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _parent(self) -> Optional[str]:
        return self._stack[-1][0] if self._stack else None

    # -- per-span work counts -------------------------------------------------

    def _before(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "batch.evaluate_points":
            points = args[0] if args else kwargs["points"]
            self.counts["batch.evaluate_points.points"] += len(points)
            if self._parent() == "adaptive.sweep":
                self.counts["adaptive.sweep.live"] += 1
        elif name == "batch.evaluate_grid":
            grid = args[0] if args else kwargs["grid"]
            self.counts["batch.evaluate_grid.points"] += grid.n_points

    def _after(self, name: str, args: tuple, result) -> None:
        if name == "adaptive.prewarm":
            keys = int(result)
            self.counts["adaptive.prewarm.keys"] += keys
            self.counts["adaptive.prewarm.evals"] += keys * args[0].n_candidates

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if name == "exec.map_tasks":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                cpu_before = _children_cpu_s()
                frame = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                    tracer.child_cpu_s += _children_cpu_s() - cpu_before

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._before(name, args, kwargs)
                frame = tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                tracer._after(name, args, result)
                return result

        setattr(wrapper, ORIGINAL_ATTR, fn)
        return wrapper

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, cls, attr in _method_sites():
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
            for name, attr in FUNCTION_SPANS:
                original = getattr(batch_engine, attr)
                wrapper = self._wrap(name, original)
                for module in _repro_modules():
                    if vars(module).get(attr) is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        self._previous_registry = telemetry.activate(telemetry.Telemetry())
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.snapshot = telemetry.get().snapshot()
        telemetry.activate(self._previous_registry)
        self._restore()
        return False

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> List[str]:
    """Names of ``repro`` attributes still bound to a tracer wrapper."""
    leftovers = []
    classes = {cls for _, cls, _ in _method_sites()}
    for cls in classes:
        for attr, value in vars(cls).items():
            if hasattr(value, ORIGINAL_ATTR):
                leftovers.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")
    for module in _repro_modules():
        for attr, value in vars(module).items():
            if callable(value) and hasattr(value, ORIGINAL_ATTR):
                leftovers.append(f"{module.__name__}.{attr}")
    return leftovers
