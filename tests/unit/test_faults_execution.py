"""Fault salvage of :class:`repro.exec.ProcessPoolBackend`: per-task
recovery, timeouts, chaos hooks and telemetry, injected through a scripted
executor (no subprocesses) and through the ``REPRO_CHAOS_*`` hooks against
a real pool (what the CI chaos job runs)."""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest
from test_exec_backends import _FakePool, _square

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.exec import (
    CHAOS_HANG_ENV,
    CHAOS_HANG_TASK_ENV,
    CHAOS_KILL_ENV,
    EXEC_TIMEOUT_ENV,
    ProcessPoolBackend,
    default_timeout_s,
)


@pytest.fixture(autouse=True)
def _null_registry():
    telemetry.disable()
    yield
    telemetry.disable()


def _boom(x):
    raise ValueError(f"boom {x}")


def _flaky(x):
    if x == 2:
        raise ValueError("flaky payload")
    return x * x


def _no_pool(max_workers):
    raise AssertionError("this run must not open a pool")


def _run(fn, payloads, pool_factory=None, **kwargs):
    """``map_tasks`` on a process backend (optionally over a scripted pool)."""
    return ProcessPoolBackend(pool_factory=pool_factory).map_tasks(fn, payloads, **kwargs)


class TestValidation:
    def test_max_workers_below_one_rejected(self):
        for max_workers in (0, -2):
            with pytest.raises(ConfigurationError):
                _run(_square, [1], max_workers=max_workers)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            _run(_square, [1, 2], max_workers=2, timeout_s=0.0)

    def test_env_timeout_parsing(self, monkeypatch):
        monkeypatch.delenv(EXEC_TIMEOUT_ENV, raising=False)
        assert default_timeout_s() is None
        monkeypatch.setenv(EXEC_TIMEOUT_ENV, "2.5")
        assert default_timeout_s() == 2.5
        for bad in ("zero", "-1"):
            monkeypatch.setenv(EXEC_TIMEOUT_ENV, bad)
            with pytest.raises(ConfigurationError):
                default_timeout_s()


class TestSerialPaths:
    def test_empty_payloads(self):
        assert _run(_square, [], max_workers=4, pool_factory=_no_pool) == []

    def test_single_worker_runs_serially(self):
        results = _run(_square, [1, 2, 3], max_workers=1, pool_factory=_no_pool)
        assert results == [1, 4, 9]

    def test_single_task_runs_serially(self):
        assert _run(_square, [5], max_workers=4, pool_factory=_no_pool) == [25]

    def test_unpicklable_payload_falls_back(self):
        registry = telemetry.enable()
        payloads = [lambda: 1, lambda: 2]  # lambdas cannot cross a pool
        results = _run(lambda f: f(), payloads, max_workers=2, label="t", pool_factory=_no_pool)
        assert results == [1, 2]
        assert registry.snapshot()["counters"]["t.fallback.unpicklable"] == 1


class TestFakePoolRecovery:
    def test_all_tasks_succeed(self):
        results = _run(_square, [1, 2, 3], max_workers=3, pool_factory=_FakePool({}))
        assert results == [1, 4, 9]

    def test_broken_pool_reruns_only_failed_tasks(self):
        registry = telemetry.enable()
        pool = _FakePool({1: BrokenProcessPool("worker died")})
        results = _run(_square, [1, 2, 3], max_workers=3, label="t", pool_factory=pool)
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        assert counters["t.retry.broken_pool"] == 1
        assert counters["t.serial_reruns"] == 1
        assert counters["t.tasks"] == 3

    def test_task_exception_retried_serially_and_raises_directly(self):
        registry = telemetry.enable()
        pool = _FakePool({0: ValueError("worker-side failure")})
        # The serial retry re-raises the deterministic error with a direct
        # traceback instead of the scripted pool-side one.
        with pytest.raises(ValueError, match="boom"):
            _run(_boom, [7, 8], max_workers=2, label="t", pool_factory=pool)
        # Both tasks error (one scripted, one genuine) before the serial
        # retry surfaces the deterministic failure.
        assert registry.snapshot()["counters"]["t.retry.error"] == 2

    def test_flaky_error_recovers_when_serial_path_succeeds(self):
        # The future raises while the serial path computes the true value:
        # recovery is per task, not all-or-nothing.
        pool = _FakePool({2: ValueError("transient")})
        results = _run(_square, [1, 2, 3, 4], max_workers=4, label="t", pool_factory=pool)
        assert results == [1, 4, 9, 16]

    def test_cancelled_future_joins_serial_retry(self):
        pool = _FakePool({0: concurrent.futures.CancelledError()})
        assert _run(_square, [3, 4], max_workers=2, pool_factory=pool) == [9, 16]


class TestRealPoolChaos:
    def test_plain_pooled_run_matches_serial(self):
        pooled = _run(_square, [1, 2, 3, 4], max_workers=2)
        assert pooled == [_square(p) for p in [1, 2, 3, 4]]

    def test_killed_worker_recovers_per_task(self, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "1")
        registry = telemetry.enable()
        results = _run(_square, [1, 2, 3], max_workers=2, label="t")
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        # Under load the pool can break before any future is collected, so
        # every task may rerun; the per-task pin is in the scripted tests.
        assert counters.get("t.retry.broken_pool", 0) >= 1
        assert 1 <= counters["t.serial_reruns"] <= 3

    def test_hung_worker_times_out_and_recovers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_HANG_TASK_ENV, "0")
        monkeypatch.setenv(CHAOS_HANG_ENV, "30")
        registry = telemetry.enable()
        results = _run(_square, [1, 2, 3], max_workers=2, timeout_s=1.0, label="t")
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        assert counters["t.retry.timeout"] == 1
        assert counters["t.serial_reruns"] >= 1

    def test_chaos_hooks_do_not_reach_serial_retries(self, monkeypatch):
        # The serial retry calls fn directly, bypassing the chaos wrapper.
        monkeypatch.setenv(CHAOS_KILL_ENV, "0,1,2")
        assert _run(_square, [1, 2, 3], max_workers=2) == [1, 4, 9]

    def test_genuine_error_propagates_from_real_pool(self):
        with pytest.raises(ValueError, match="flaky payload"):
            _run(_flaky, [1, 2, 3], max_workers=2)
