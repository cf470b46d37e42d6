"""The pooled backend: hardened process fan-out with per-task salvage.

:class:`ProcessPoolBackend` drives a ``ProcessPoolExecutor`` and carries
the per-task recovery discipline: completed futures keep their results,
and only the tasks that crashed, hung past the per-task timeout, or raised
are re-executed serially, in payload order.  Because the serial path *is*
the reference path (the same function on the same payload), a
partially-recovered run is bit-identical to an all-serial run.

Payloads must pickle (probed up front, with a counted in-process fallback
when they do not), a dead worker surfaces as ``BrokenProcessPool``, and a
wedged worker is terminated with the pool.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro import telemetry
from repro.exec.backend import (
    CHAOS_KILL_ENV,
    ExecutionBackend,
    _chaos_indices,
    chaos_hang,
)

_UNPICKLABLE_ERRORS = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    OSError,
    ImportError,
)


def _process_task(args: tuple):
    """Process-worker wrapper: apply chaos hooks, then run the real task."""
    fn, index, payload = args
    if index in _chaos_indices(CHAOS_KILL_ENV):
        os._exit(1)
    chaos_hang(index)
    return fn(payload)


def _submit(pool, fn: Callable, index: int, payload) -> concurrent.futures.Future:
    """Queue one task; a pool that broke while tasks were still being
    queued (a worker died early) fails the rest as if they were queued."""
    try:
        return pool.submit(_process_task, (fn, index, payload))
    except BrokenProcessPool as exc:
        future: concurrent.futures.Future = concurrent.futures.Future()
        future.set_exception(exc)
        return future


def _terminate(pool) -> None:
    """Best-effort hard stop of a pool whose workers may be wedged."""
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, AttributeError, ValueError):
                pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - pre-3.9 signature safety net
        pool.shutdown(wait=False)


class ProcessPoolBackend(ExecutionBackend):
    """Hardened ``ProcessPoolExecutor`` fan-out for CPU-bound tasks.

    Unpicklable payloads fall back to in-process execution (counted);
    ``BrokenProcessPool``, per-task timeouts and task exceptions are
    salvaged by re-running only the failed tasks serially.
    """

    name = "process"

    def __init__(
        self, pool_factory: Optional[Callable[[int], object]] = None
    ):
        """``pool_factory`` overrides the executor constructor (tests)."""
        self._pool_factory = (
            ProcessPoolExecutor if pool_factory is None else pool_factory
        )

    def map_tasks(
        self,
        fn: Callable,
        payloads: Sequence,
        *,
        max_workers: int,
        timeout_s: Optional[float] = None,
        label: str = "exec",
    ) -> list:
        timeout_s = self._resolve_limits(max_workers, timeout_s)
        registry = telemetry.get()
        n_tasks = len(payloads)
        registry.add(f"{label}.tasks", n_tasks)
        if n_tasks == 0:
            return []
        if max_workers == 1 or n_tasks == 1:
            return self._run_serial(fn, payloads)

        try:
            pickle.dumps(list(payloads))
        except _UNPICKLABLE_ERRORS:
            registry.add(f"{label}.fallback.unpicklable")
            return self._run_serial(fn, payloads)

        results: List = [None] * n_tasks
        failed: List[int] = []
        pool = self._pool_factory(min(max_workers, n_tasks))
        pool_dead = False
        try:
            try:
                futures = [
                    _submit(pool, fn, index, payload)
                    for index, payload in enumerate(payloads)
                ]
            except _UNPICKLABLE_ERRORS:
                registry.add(f"{label}.fallback.unpicklable")
                return self._run_serial(fn, payloads)
            for index, future in enumerate(futures):
                if pool_dead:
                    if future.done() and not future.cancelled():
                        try:
                            results[index] = future.result()
                            continue
                        except BaseException:
                            pass
                    failed.append(index)
                    continue
                try:
                    results[index] = future.result(timeout=timeout_s)
                except concurrent.futures.TimeoutError:
                    registry.add(f"{label}.retry.timeout")
                    failed.append(index)
                    # A wedged worker can starve every queued task; stop
                    # waiting, salvage whatever already finished, and hand
                    # the rest to the serial retry.
                    _terminate(pool)
                    pool_dead = True
                except BrokenProcessPool:
                    registry.add(f"{label}.retry.broken_pool")
                    failed.append(index)
                except concurrent.futures.CancelledError:
                    failed.append(index)
                except Exception:
                    # A genuine task exception: retry serially so a
                    # deterministic failure surfaces with a direct
                    # traceback.
                    registry.add(f"{label}.retry.error")
                    failed.append(index)
        finally:
            if not pool_dead:
                pool.shutdown(wait=True)

        if failed:
            registry.add(f"{label}.serial_reruns", len(failed))
            with registry.span(f"{label}.serial_rerun", tasks=len(failed)):
                for index in failed:
                    results[index] = fn(payloads[index])
        return results
