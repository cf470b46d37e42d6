"""The process-local telemetry registry: counters, gauges, histograms, spans.

Everything here is dependency-free (stdlib only): the registry is imported
by every subsystem's hot path, so it must never pull NumPy, the model
packages, or anything that could create an import cycle.

Design contract
---------------
* **Disabled by default, near-zero overhead.**  The module-level active
  registry starts as the :data:`NULL_TELEMETRY` singleton whose recording
  methods are no-ops; instrumentation sites pay one attribute lookup and
  one no-op call.  Sites that would need extra work to *compute* a metric
  guard it with ``telemetry.get().enabled``.
* **Deterministic modulo wall time.**  Counters, gauges and value
  histograms record quantities derived from the simulation itself, so two
  serial runs against fresh registries produce identical snapshots once
  the wall-time fields are removed (:func:`strip_timing` knows exactly
  which fields those are; the determinism tests compare stripped
  snapshots).
* **Mergeable.**  :meth:`Telemetry.merge_snapshot` folds a snapshot from
  another process (a co-sim shard, an experiment worker) into this
  registry; counter addition and histogram bucket addition are associative,
  so shards can be merged in any grouping with identical results.

Spans
-----
``with telemetry.get().span("cosim.run", users=64) as sp: ...`` times a
block and records it into a *tree* keyed by the nesting at runtime: a span
opened while another is active becomes its child.  Keyword attributes (and
:meth:`Span.annotate` calls) fold numeric values into per-node counters.
Every span measures its wall time even on the null registry — ``sp.elapsed_s``
is always valid — which is what lets spans replace the repo's hand-rolled
``time.perf_counter()`` pairs wholesale.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Dict, Iterator, List, Mapping, Optional, Union

from repro.schema import check_schema
from repro.telemetry.histogram import StreamingHistogram

#: Snapshot schema version ("MAJOR.MINOR": bump the major when the JSON
#: layout changes shape, the minor when fields are added).  Loading accepts
#: any 1.x document — see :func:`repro.schema.check_schema` for the exact
#: forward/backward-compatibility contract (the legacy bare ``1`` written
#: by older snapshots reads as ``1.0``).
TELEMETRY_SCHEMA_VERSION = "1.1"

#: Top-level snapshot keys this reader understands; anything else is
#: ignored with a warning instead of breaking the consumer.
_SNAPSHOT_KEYS = ("counters", "gauges", "histograms", "spans")

#: Span-node keys that carry wall time.  :func:`strip_timing` removes
#: exactly these (everything else in a snapshot is deterministic).
SPAN_TIMING_FIELDS = ("total_ms", "min_ms", "max_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms")


class _SpanNode:
    """Aggregated statistics of one span path in the tree."""

    __slots__ = ("count", "timings", "counters", "children")

    def __init__(self) -> None:
        self.count = 0
        self.timings = StreamingHistogram()  # milliseconds
        self.counters: Dict[str, float] = {}
        self.children: Dict[str, "_SpanNode"] = {}

    def child(self, name: str) -> "_SpanNode":
        node = self.children.get(name)
        if node is None:
            node = _SpanNode()
            self.children[name] = node
        return node

    def to_dict(self) -> dict:
        timings = self.timings
        payload: Dict[str, object] = {
            "count": self.count,
            "total_ms": timings.sum,
            "min_ms": timings.min,
            "max_ms": timings.max,
            "mean_ms": timings.mean if timings.count else None,
            "p50_ms": timings.quantile(0.50) if timings.count else None,
            "p95_ms": timings.quantile(0.95) if timings.count else None,
            "p99_ms": timings.quantile(0.99) if timings.count else None,
        }
        if self.counters:
            payload["counters"] = dict(sorted(self.counters.items()))
        if self.children:
            payload["children"] = {
                name: child.to_dict() for name, child in self.children.items()
            }
        return payload

    def merge_dict(self, payload: Mapping) -> None:
        self.count += int(payload.get("count", 0))
        total = payload.get("total_ms")
        if total:
            # Reconstruct a single-bucket approximation: merged wall times
            # keep exact totals/counts; per-merge quantiles are a sketch
            # anyway, so fold the foreign total in as one mean-sized sample
            # per recorded call.
            count = max(int(payload.get("count", 0)), 1)
            mean = float(total) / count
            for _ in range(count):
                self.timings.record(mean)
        for name, value in (payload.get("counters") or {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, child in (payload.get("children") or {}).items():
            self.child(name).merge_dict(child)


def _as_number(value: Union[int, float]) -> Union[int, float]:
    """Coerce to a built-in ``int``/``float``.

    Instrumentation sites hand the registry whatever the models produce,
    which routinely includes NumPy scalars (``np.int64`` switch counts,
    ``np.float64`` sums) — those are not JSON-serializable, and this module
    must stay NumPy-free, so coerce via the numeric protocols instead of
    ``isinstance`` checks against NumPy types.
    """
    if isinstance(value, (int, float)):
        return value
    try:
        return value.__index__()  # integral types (np.int64, ...)
    except (AttributeError, TypeError):
        return float(value)


class Span:
    """A timed block; also usable as a plain stopwatch on the null registry.

    ``elapsed_s`` is valid after ``__exit__`` regardless of whether the
    owning registry records anything, so the experiment runner times each
    scenario with it whether or not telemetry is on.
    """

    __slots__ = ("_telemetry", "name", "_attrs", "_start", "elapsed_s")

    def __init__(self, telemetry: Optional["Telemetry"], name: str, attrs: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self._attrs = attrs
        self._start = 0.0
        self.elapsed_s = 0.0

    def annotate(self, **attrs: float) -> None:
        """Fold numeric attributes into the span's node counters on exit."""
        self._attrs.update(attrs)

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry._enter_span(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed_s = time.perf_counter() - self._start
        telemetry = self._telemetry
        if telemetry is not None:
            telemetry._exit_span(self.name, self.elapsed_s, self._attrs)
        return False


class Telemetry:
    """A recording registry of counters, gauges, histograms and a span tree."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, StreamingHistogram] = {}
        self._root = _SpanNode()
        self._stack: List[_SpanNode] = [self._root]

    # -- scalar instruments ----------------------------------------------------

    def add(self, name: str, value: Union[int, float] = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0) + _as_number(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self.gauges[name] = _as_number(value)

    def record(self, name: str, value: float) -> None:
        """Add one sample to histogram ``name``."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = StreamingHistogram()
            self.histograms[name] = histogram
        histogram.record(float(value))

    # -- spans -----------------------------------------------------------------

    def span(self, name: str, **attrs: float) -> Span:
        """A context manager timing one block into the span tree."""
        return Span(self, name, attrs)

    def _enter_span(self, name: str) -> None:
        self._stack.append(self._stack[-1].child(name))

    def _exit_span(self, name: str, elapsed_s: float, attrs: Mapping) -> None:
        node = self._stack.pop()
        node.count += 1
        node.timings.record(elapsed_s * 1e3)
        for key, value in attrs.items():
            if isinstance(value, (bool, str, bytes)):
                continue
            try:
                number = _as_number(value)
            except (TypeError, ValueError):
                continue
            node.counters[key] = node.counters.get(key, 0) + number

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """The registry's full JSON-able state."""
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
            "spans": {
                name: child.to_dict()
                for name, child in self._root.children.items()
            },
        }

    def merge_snapshot(self, payload: Mapping) -> None:
        """Fold a snapshot (e.g. from a process-pool shard) into this registry.

        Counter and histogram merges are associative and commutative;
        span-tree wall times keep exact call counts and totals (per-node
        quantiles over merged foreign samples are sketched from the
        foreign means).  Shards merged in any grouping therefore agree on
        every deterministic field.
        """
        check_schema(
            payload,
            current=TELEMETRY_SCHEMA_VERSION,
            known_keys=_SNAPSHOT_KEYS,
            consumer="telemetry snapshot",
        )
        for name, value in (payload.get("counters") or {}).items():
            self.add(name, value)
        for name, value in (payload.get("gauges") or {}).items():
            self.gauge(name, value)
        for name, entry in (payload.get("histograms") or {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = StreamingHistogram()
                self.histograms[name] = histogram
            histogram.merge(StreamingHistogram.from_dict(entry))
        for name, child in (payload.get("spans") or {}).items():
            self._root.child(name).merge_dict(child)


class NullTelemetry:
    """The disabled registry: every recording method is a no-op.

    ``span`` still returns a ticking :class:`Span` (with no registry to
    report to) so call sites can rely on ``elapsed_s`` unconditionally.
    """

    enabled = False

    def add(self, name: str, value: Union[int, float] = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def record(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, **attrs: float) -> Span:
        return Span(None, name, attrs)

    def snapshot(self) -> dict:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "spans": {},
        }

    def merge_snapshot(self, payload: Mapping) -> None:
        pass


#: The process-wide disabled singleton.
NULL_TELEMETRY = NullTelemetry()

TelemetryLike = Union[Telemetry, NullTelemetry]

_active: TelemetryLike = NULL_TELEMETRY


def get() -> TelemetryLike:
    """The active registry (the no-op singleton unless enabled)."""
    return _active


def activate(telemetry: TelemetryLike) -> TelemetryLike:
    """Install ``telemetry`` as the active registry; returns the previous one.

    The previous registry makes scoped instrumentation easy::

        previous = activate(Telemetry())
        try:
            ...
        finally:
            activate(previous)
    """
    global _active
    previous = _active
    _active = telemetry
    return previous


def enable() -> Telemetry:
    """Install (and return) a fresh recording registry."""
    telemetry = Telemetry()
    activate(telemetry)
    return telemetry


def disable() -> None:
    """Restore the no-op singleton."""
    activate(NULL_TELEMETRY)


@contextlib.contextmanager
def scoped(telemetry: TelemetryLike) -> Iterator[TelemetryLike]:
    """Make ``telemetry`` the active registry until the block exits.

    An :func:`activate` / restore pair: the previous registry comes back
    on exit, even when the block raises::

        with telemetry.scoped(Telemetry()) as registry:
            ...  # instrumentation records into registry
        snapshot = registry.snapshot()

    Capture wrappers (cosim shards, experiment scenarios) use this so the
    same code path is correct in a process worker and in the in-process
    serial fallback.
    """
    previous = activate(telemetry)
    try:
        yield telemetry
    finally:
        activate(previous)


# ---------------------------------------------------------------------------
# Snapshot helpers
# ---------------------------------------------------------------------------


def _strip_span(node: Mapping) -> dict:
    stripped = {
        key: value for key, value in node.items() if key not in SPAN_TIMING_FIELDS
    }
    if "children" in stripped:
        stripped["children"] = {
            name: _strip_span(child) for name, child in stripped["children"].items()
        }
    return stripped


def strip_timing(snapshot: Mapping) -> dict:
    """A snapshot with every wall-time field removed.

    Span call counts, attribute counters, value histograms, counters and
    gauges survive; span durations do not.  Two serial runs against fresh
    registries produce identical stripped snapshots — the telemetry
    analogue of :meth:`repro.experiments.runner.RunManifest.metric_payload`.
    """
    payload = dict(snapshot)
    payload["spans"] = {
        name: _strip_span(node) for name, node in (snapshot.get("spans") or {}).items()
    }
    return payload


def merge_snapshots(snapshots: List[Mapping]) -> dict:
    """Merge snapshots (in order) into one, via a scratch registry."""
    merged = Telemetry()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return merged.snapshot()


def load_snapshot(path) -> dict:
    """Read a snapshot written by :func:`save_snapshot`, version-checked.

    Older 1.x snapshots (including the legacy integer ``schema_version: 1``)
    load cleanly; unknown top-level keys are dropped with a single warning;
    a different major version raises :class:`ValueError`.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"telemetry snapshot {str(path)!r} is not a JSON object")
    check_schema(
        payload,
        current=TELEMETRY_SCHEMA_VERSION,
        known_keys=_SNAPSHOT_KEYS,
        consumer="telemetry snapshot",
    )
    return {
        "schema_version": payload["schema_version"],
        **{key: payload.get(key) or {} for key in _SNAPSHOT_KEYS},
    }


def save_snapshot(snapshot: Mapping, path) -> None:
    """Write a snapshot as indented JSON (parent directories created)."""
    import os

    directory = os.path.dirname(str(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
