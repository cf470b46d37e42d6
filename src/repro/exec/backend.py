"""The :class:`ExecutionBackend` contract and its shared machinery.

Every backend maps a module-level function over a payload sequence and
returns ``[fn(p) for p in payloads]`` — results in payload (index) order,
regardless of completion order, worker crashes, or timeouts.  The serial
path is the *reference semantics*: a pooled backend that loses a worker
re-runs only the failed tasks serially, so every recovery path produces a
result bit-identical to an all-serial run.

Degradations are counted in telemetry under the caller's label:
``<label>.tasks``, ``<label>.retry.broken_pool`` / ``.timeout`` /
``.error``, ``<label>.serial_reruns`` and ``<label>.fallback.unpicklable``.
The counter names are part of the backend contract — the conformance suite
holds every backend to identical merged counters (modulo wall time) on a
clean run.

For tests and chaos drills the process backend honours environment
hooks, read *inside pool workers only* (serial execution never consults
them, so a retried task cannot crash twice):

- ``REPRO_CHAOS_KILL_TASK`` — comma-separated task indices whose worker
  dies with ``os._exit(1)`` (a real SIGCHLD-visible crash);
- ``REPRO_CHAOS_HANG_TASK`` — comma-separated task indices that sleep for
  ``REPRO_CHAOS_HANG_S`` seconds (default 3600) before running, to
  exercise the per-task timeout.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

#: Environment variable naming the per-task timeout (seconds) when the
#: caller does not pass one explicitly.
EXEC_TIMEOUT_ENV = "REPRO_EXEC_TIMEOUT_S"

#: Chaos hooks (see module docstring).
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_TASK"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_S"
CHAOS_HANG_TASK_ENV = "REPRO_CHAOS_HANG_TASK"


def _chaos_indices(env_name: str) -> Tuple[int, ...]:
    raw = os.environ.get(env_name, "")
    indices = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if chunk:
            try:
                indices.append(int(chunk))
            except ValueError:
                continue
    return tuple(indices)


def chaos_hang(index: int) -> None:
    """Sleep if the hang hook is armed for this task index (workers only)."""
    if index in _chaos_indices(CHAOS_HANG_TASK_ENV):
        time.sleep(float(os.environ.get(CHAOS_HANG_ENV, "3600")))


def default_timeout_s() -> Optional[float]:
    """Per-task timeout from :data:`EXEC_TIMEOUT_ENV` (None = no timeout)."""
    raw = os.environ.get(EXEC_TIMEOUT_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{EXEC_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ConfigurationError(
            f"{EXEC_TIMEOUT_ENV} must be positive, got {value}"
        )
    return value


class ExecutionBackend:
    """Maps module-level functions over payloads with deterministic merge.

    Subclasses implement :meth:`map_tasks`.  The contract every
    implementation (including future distributed ones) must honour is
    pinned by the conformance suite in
    ``tests/unit/test_exec_backends.py``:

    * results come back in payload order: ``[fn(p) for p in payloads]``;
    * ``fn`` must be a picklable module-level function of one payload
      (REP003 lints call sites for this);
    * a task the pool loses (crash, hang past ``timeout_s``, exception)
      is re-run serially, so the merged result is bit-identical to a
      serial run;
    * telemetry counters under ``label`` use the shared names listed in
      the module docstring.
    """

    #: Registry key (``"serial"``, ``"process"``).
    name: str = ""

    def map_tasks(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        max_workers: int,
        timeout_s: Optional[float] = None,
        label: str = "exec",
    ) -> list:
        """Run ``fn`` over ``payloads``; results in payload order.

        Args:
            fn: a picklable module-level function of one payload.
            payloads: the task payloads; results come back in the same
                order.
            max_workers: pool size (>= 1; 1 runs everything serially).
            timeout_s: per-task wall-clock timeout; defaults to
                :data:`EXEC_TIMEOUT_ENV` when unset, and no timeout when
                that is unset too.
            label: telemetry counter prefix for this seam.
        """
        raise NotImplementedError

    # -- shared plumbing ----------------------------------------------------

    @staticmethod
    def _resolve_limits(
        max_workers: int, timeout_s: Optional[float]
    ) -> Optional[float]:
        """Validate ``max_workers``/``timeout_s``; returns the timeout."""
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if timeout_s is None:
            timeout_s = default_timeout_s()
        if timeout_s is not None and timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {timeout_s}"
            )
        return timeout_s

    @staticmethod
    def _run_serial(fn: Callable, payloads: Sequence) -> List:
        """The reference path: plain in-order, in-process execution."""
        return [fn(payload) for payload in payloads]
