"""Conformance suite for :mod:`repro.exec` execution backends.

One parametrized suite holds every backend — serial and process — to the
same contract: results in payload order, identical telemetry counters
on a clean run (modulo wall time, which lives in spans), and salvage that
reproduces the all-serial result bit for bit when a worker dies, hangs, or
raises.  The call-site tests at the bottom pin the same property end to
end: a sharded co-simulation and a pooled experiment suite are
backend-invariant.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import telemetry
from repro.adaptive import HysteresisThreshold, burst_trace
from repro.cosim import run_cosim
from repro.exceptions import ConfigurationError
from repro.exec import (
    CHAOS_KILL_ENV,
    DEFAULT_BACKEND,
    EXEC_BACKEND_ENV,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_names,
    resolve_backend,
)
from repro.experiments import ExperimentRunner, ScenarioSpec, ScenarioSuite
from repro.fleet import homogeneous

BACKEND_NAMES = ("serial", "process")


@pytest.fixture(autouse=True)
def _null_registry():
    telemetry.disable()
    yield
    telemetry.disable()


@pytest.fixture(params=BACKEND_NAMES)
def backend(request):
    return resolve_backend(request.param)


def _square(x):
    return x * x


class _LazyFuture:
    """Resolved at ``result()`` time: a scripted exception wins, otherwise
    the task runs in-process."""

    def __init__(self, fn, args, error=None):
        self._fn = fn
        self._args = args
        self._error = error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._fn(self._args)

    def done(self):
        return True

    def cancelled(self):
        return False


class _FakePool:
    """Executor double whose failures are scripted per task index.

    ``broken_from`` makes ``submit`` refuse that task index and every later
    one, like a pool whose worker died while tasks were still being queued.
    """

    def __init__(self, plan, broken_from=None):
        self.plan = plan
        self.broken_from = broken_from
        self.submitted = 0

    def __call__(self, max_workers):  # pool_factory signature
        return self

    def submit(self, fn, args):
        index = self.submitted
        if self.broken_from is not None and index >= self.broken_from:
            raise BrokenProcessPool("worker died while tasks were queued")
        self.submitted += 1
        return _LazyFuture(fn, args, error=self.plan.get(index))

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestContract:
    """The shared semantics every backend must honour."""

    def test_results_in_payload_order(self, backend):
        payloads = [5, 1, 4, 2, 3]
        assert backend.map_tasks(_square, payloads, max_workers=3) == [
            _square(p) for p in payloads
        ]

    def test_empty_payloads(self, backend):
        assert backend.map_tasks(_square, [], max_workers=4) == []

    def test_single_task(self, backend):
        assert backend.map_tasks(_square, [7], max_workers=4) == [49]

    def test_max_workers_below_one_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            backend.map_tasks(_square, [1], max_workers=0)

    def test_non_positive_timeout_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            backend.map_tasks(_square, [1, 2], max_workers=2, timeout_s=0.0)

    def test_clean_run_counters_identical_across_backends(self):
        # The counter names (and values) are part of the contract: a clean
        # run records exactly the same counters on every backend, so merged
        # telemetry is backend-invariant modulo wall time.
        snapshots = {}
        for name in BACKEND_NAMES:
            registry = telemetry.enable()
            resolve_backend(name).map_tasks(
                _square, [1, 2, 3, 4], max_workers=2, label="conf"
            )
            snapshots[name] = registry.snapshot()["counters"]
            telemetry.disable()
        assert snapshots["serial"] == {"conf.tasks": 4}
        assert snapshots["process"] == snapshots["serial"]


class TestScriptedSalvage:
    """Worker death injected through a scripted executor (no real pools)."""

    @pytest.mark.parametrize("backend_cls", [ProcessPoolBackend], ids=["process"])
    def test_broken_pool_reruns_only_failed_tasks(self, backend_cls):
        registry = telemetry.enable()
        pool = _FakePool({1: BrokenProcessPool("worker died")})
        backend = backend_cls(pool_factory=pool)
        results = backend.map_tasks(
            _square, [1, 2, 3], max_workers=3, label="t"
        )
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        assert counters["t.retry.broken_pool"] == 1
        assert counters["t.serial_reruns"] == 1
        assert counters["t.tasks"] == 3

    @pytest.mark.parametrize("backend_cls", [ProcessPoolBackend], ids=["process"])
    def test_cancelled_future_joins_serial_retry(self, backend_cls):
        pool = _FakePool({0: concurrent.futures.CancelledError()})
        backend = backend_cls(pool_factory=pool)
        assert backend.map_tasks(_square, [3, 4], max_workers=2) == [9, 16]

    def test_pool_broken_while_queueing_reruns_unqueued_tasks(self):
        # A worker can die before the last submit(), which then raises; the
        # unqueued tasks join the serial retry like queued ones.
        registry = telemetry.enable()
        backend = ProcessPoolBackend(pool_factory=_FakePool({}, broken_from=1))
        results = backend.map_tasks(
            _square, [1, 2, 3], max_workers=3, label="t"
        )
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        assert counters["t.retry.broken_pool"] == 2
        assert counters["t.serial_reruns"] == 2


class TestChaosSalvage:
    """Worker death injected through the real pools via ``REPRO_CHAOS_*``."""

    def test_process_worker_kill_recovers(self, monkeypatch):
        monkeypatch.setenv(CHAOS_KILL_ENV, "1")
        registry = telemetry.enable()
        results = resolve_backend("process").map_tasks(
            _square, [1, 2, 3], max_workers=2, label="t"
        )
        assert results == [1, 4, 9]
        counters = registry.snapshot()["counters"]
        assert counters.get("t.retry.broken_pool", 0) >= 1
        # Upper bound is all tasks: under load the pool can break before
        # any future is collected (the per-task pin is in the scripted
        # salvage tests, which are deterministic).
        assert 1 <= counters["t.serial_reruns"] <= 3

    def test_chaos_hooks_never_reach_serial_execution(self, monkeypatch):
        # Serial execution is the reference/recovery path: killing every
        # index must not perturb it, on any backend.
        monkeypatch.setenv(CHAOS_KILL_ENV, "0,1,2")
        for name in BACKEND_NAMES:
            results = resolve_backend(name).map_tasks(
                _square, [1, 2, 3], max_workers=2
            )
            assert results == [1, 4, 9]


class TestPicklability:
    def test_process_backend_falls_back_on_unpicklable_payloads(self):
        registry = telemetry.enable()
        payloads = [lambda: 1, lambda: 2]
        results = resolve_backend("process").map_tasks(
            lambda f: f(), payloads, max_workers=2, label="t"
        )
        assert results == [1, 2]
        counters = registry.snapshot()["counters"]
        assert counters["t.fallback.unpicklable"] == 1


class TestResolveBackend:
    def test_default_is_the_process_pool(self, monkeypatch):
        monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)
        assert DEFAULT_BACKEND == "process"
        assert isinstance(resolve_backend(), ProcessPoolBackend)

    def test_env_override_selects_backend(self, monkeypatch):
        monkeypatch.setenv(EXEC_BACKEND_ENV, "serial")
        assert isinstance(resolve_backend(), SerialBackend)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXEC_BACKEND_ENV, "serial")
        assert isinstance(resolve_backend("process"), ProcessPoolBackend)

    def test_name_normalised(self):
        assert isinstance(resolve_backend("  Serial "), SerialBackend)

    def test_unknown_name_rejected_with_choices(self):
        # "thread" named a backend that was removed.
        for name in ("cluster", "thread"):
            with pytest.raises(ConfigurationError, match="process, serial"):
                resolve_backend(name)

    def test_bad_env_value_rejected(self, monkeypatch):
        for name in ("cluster", "thread"):
            monkeypatch.setenv(EXEC_BACKEND_ENV, name)
            with pytest.raises(ConfigurationError, match="process, serial"):
                resolve_backend()

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_backend_names_sorted(self):
        assert backend_names() == ("process", "serial")

    def test_every_registered_backend_is_an_execution_backend(self):
        for name in backend_names():
            assert isinstance(resolve_backend(name), ExecutionBackend)


def _sharded_cosim(backend):
    return run_cosim(
        homogeneous(8, device="XR1"),
        HysteresisThreshold(),
        burst_trace(12, seed=3),
        n_shards=2,
        n_edges=2,
        include_aoi=False,
        backend=backend,
    )


class TestCallSiteInvariance:
    """The rewired seams are backend-invariant, end to end."""

    def test_sharded_cosim_bit_identical_across_backends(self):
        reference = _sharded_cosim("serial").to_dict()
        assert _sharded_cosim("process").to_dict() == reference

    def test_sharded_cosim_counters_identical_across_backends(self):
        counters = {}
        for name in BACKEND_NAMES:
            registry = telemetry.enable()
            _sharded_cosim(name)
            counters[name] = registry.snapshot()["counters"]
            telemetry.disable()
        assert counters["process"] == counters["serial"]
        assert counters["serial"]["exec.tasks"] == 2
        # Each shard ends its run with at least one charge group.
        assert counters["serial"]["cosim.user_groups"] >= 2

    def test_experiment_suite_backend_invariant(self):
        suite = ScenarioSuite(
            name="tiny",
            specs=(
                ScenarioSpec(name="point", kind="analyze", mode="local"),
                ScenarioSpec(
                    name="grid",
                    kind="sweep",
                    params={
                        "frame_sides_px": [300.0, 500.0],
                        "cpu_freqs_ghz": [1.0, 2.0],
                    },
                ),
            ),
        )
        runner = ExperimentRunner(suite, manifest_dir=None)
        serial = runner.run(write=False).metric_payload()
        pooled = runner.run(
            processes=2, backend="process", write=False
        ).metric_payload()
        assert pooled == serial
