"""repro.exec — one pluggable execution backend for every pool.

The execution backbone shared by the cosim shard fan-out, the
``ExperimentRunner`` scenario pool, and the bench harness.  A backend
maps a module-level function over payloads and hands back results in
payload order with serial-reference semantics: whatever a pool loses to
crashes, hangs, or unpicklable payloads is repaired by re-running exactly
the failed tasks in-process, so every backend produces bit-identical
results (and, modulo wall time, bit-identical merged telemetry).

Two implementations ship today, selected by name through
:func:`resolve_backend` (explicit argument ▸ ``REPRO_EXEC_BACKEND`` ▸
``"process"``):

* ``"serial"`` — :class:`SerialBackend`, the in-process reference path;
* ``"process"`` — :class:`ProcessPoolBackend`, hardened
  ``ProcessPoolExecutor`` fan-out for CPU-bound work.

The conformance suite (``tests/unit/test_exec_backends.py``) pins the
contract every implementation — including future distributed ones — must
honour; ``docs/ARCHITECTURE.md`` documents the determinism and merge
guarantees in prose.
"""

from repro.exec.backend import (
    CHAOS_HANG_ENV,
    CHAOS_HANG_TASK_ENV,
    CHAOS_KILL_ENV,
    EXEC_TIMEOUT_ENV,
    ExecutionBackend,
    default_timeout_s,
)
from repro.exec.pools import ProcessPoolBackend
from repro.exec.registry import (
    BACKENDS,
    DEFAULT_BACKEND,
    EXEC_BACKEND_ENV,
    backend_names,
    resolve_backend,
)
from repro.exec.serial import SerialBackend

__all__ = [
    "BACKENDS",
    "CHAOS_HANG_ENV",
    "CHAOS_HANG_TASK_ENV",
    "CHAOS_KILL_ENV",
    "DEFAULT_BACKEND",
    "EXEC_BACKEND_ENV",
    "EXEC_TIMEOUT_ENV",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "backend_names",
    "default_timeout_s",
    "resolve_backend",
]
