"""The serial backend: the reference semantics every pool must match."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.exec.backend import ExecutionBackend


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — no pool, no recovery machinery.

    This is the backend the others are measured against: the conformance
    suite requires every pooled backend to produce results and merged
    telemetry bit-identical to this one.  ``timeout_s`` is validated but
    not enforced (there is no preemption in-process), and chaos hooks are
    never consulted (they are worker-side by contract).
    """

    name = "serial"

    def map_tasks(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        max_workers: int,
        timeout_s: Optional[float] = None,
        label: str = "exec",
    ) -> list:
        self._resolve_limits(max_workers, timeout_s)
        registry = telemetry.get()
        registry.add(f"{label}.tasks", len(payloads))
        if not payloads:
            return []
        return self._run_serial(fn, payloads)
