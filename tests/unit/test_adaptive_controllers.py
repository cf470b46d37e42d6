"""Unit tests for the adaptive controllers and the headline QoE guarantees:

* on the bundled drift and burst traces, every adaptive controller achieves
  a deadline-miss rate no worse than the best *static* operating point,
* seeded replays are bit-deterministic: the same trace seed and controller
  produce an identical :class:`AdaptationReport`.
"""

import numpy as np
import pytest

from repro.adaptive.controllers import (
    Controller,
    EwmaPredictive,
    GreedyBatchSweep,
    HysteresisThreshold,
    StaticBaseline,
)
from repro.adaptive.runtime import AdaptiveRuntime
from repro.adaptive.traces import (
    ConditionTrace,
    EpochConditions,
    burst_trace,
    make_trace,
)
from repro.exceptions import ConfigurationError


def _adaptive_controllers():
    return (HysteresisThreshold(), GreedyBatchSweep(), EwmaPredictive())


@pytest.fixture(scope="module")
def burst_runtime():
    return AdaptiveRuntime(trace=burst_trace(150, seed=3))


class TestAcceptance:
    @pytest.mark.parametrize("scenario", ("drift", "burst"))
    def test_adaptive_never_worse_than_best_static(self, scenario):
        runtime = AdaptiveRuntime(trace=make_trace(scenario, 150, seed=3))
        best_static = float(runtime.static_deadline_miss_rates().min())
        for controller in _adaptive_controllers():
            report = runtime.run(controller)
            assert report.deadline_miss_rate <= best_static, controller.name

    def test_scenarios_are_nontrivial_for_static_offload(self, burst_runtime):
        """The pinned top-quality (offloaded) point must actually miss."""
        rates = burst_runtime.static_deadline_miss_rates()
        top_quality = int(np.argmax(burst_runtime.context.quality))
        assert rates[top_quality] > 0.0

    def test_adaptation_beats_best_static_on_quality(self, burst_runtime):
        static = burst_runtime.static_report()
        greedy = burst_runtime.run(GreedyBatchSweep())
        assert greedy.deadline_miss_rate <= static.deadline_miss_rate
        assert greedy.mean_quality > static.mean_quality

    @pytest.mark.parametrize(
        "controller_factory",
        (
            lambda: HysteresisThreshold(),
            lambda: GreedyBatchSweep(),
            lambda: EwmaPredictive(),
            lambda: StaticBaseline(3),
        ),
    )
    def test_seeded_replays_are_bit_deterministic(self, controller_factory):
        reports = []
        for _ in range(2):
            runtime = AdaptiveRuntime(trace=burst_trace(60, seed=9))
            reports.append(runtime.run(controller_factory()))
        assert reports[0] == reports[1]
        assert reports[0].to_dict() == reports[1].to_dict()


class TestStaticBaseline:
    def test_negative_index_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticBaseline(-1)

    def test_fractional_index_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            StaticBaseline(1.5)

    def test_numpy_integer_index_accepted(self):
        controller = StaticBaseline(np.int64(2))
        assert controller.index == 2 and type(controller.index) is int

    def test_pins_its_candidate(self, burst_runtime):
        report = burst_runtime.run(StaticBaseline(5))
        assert set(report.chosen_indices) == {5}
        assert report.switch_count == 0
        assert report.controller == "static[5]"


class TestHysteresisThreshold:
    def _manual_trace(self, pattern, epoch_ms=100.0):
        good = dict(throughput_mbps=200.0, handoff_probability=0.0)
        bad = dict(throughput_mbps=2.0, handoff_probability=0.35)
        epochs = tuple(
            EpochConditions(time_ms=i * epoch_ms, **(good if flag else bad))
            for i, flag in enumerate(pattern)
        )
        return ConditionTrace(name="manual", epoch_ms=epoch_ms, epochs=epochs)

    def test_downgrade_is_immediate_upgrade_waits_for_dwell(self):
        # good x3, bad x1, good x6: the downgrade happens in the bad epoch,
        # the upgrade is deferred by the three-epoch dwell.
        assert HysteresisThreshold.MIN_DWELL_EPOCHS == 3
        trace = self._manual_trace([1, 1, 1, 0, 1, 1, 1, 1, 1, 1])
        runtime = AdaptiveRuntime(trace=trace)
        controller = HysteresisThreshold()
        report = runtime.run(controller)
        chosen = report.chosen_indices
        offload, fallback = controller.offload_index, controller.fallback_index
        assert chosen[:3] == (offload,) * 3
        assert chosen[3] == fallback
        assert chosen[4:6] == (fallback,) * 2  # dwell holds the downgrade
        assert chosen[6:] == (offload,) * 4

    def test_holds_its_rung_inside_the_band(self):
        # Between the band edges the controller neither engages nor drops:
        # the rung it holds depends on where the channel came from.
        low, high = HysteresisThreshold.LOW_MBPS, HysteresisThreshold.HIGH_MBPS
        assert 0.0 < low < high and 0.0 <= HysteresisThreshold.HANDOFF_CAP <= 1.0
        good = dict(throughput_mbps=200.0, handoff_probability=0.0)
        mid = dict(throughput_mbps=(low + high) / 2.0, handoff_probability=0.0)
        bad = dict(throughput_mbps=2.0, handoff_probability=0.35)
        pattern = [good, mid, mid, bad] + [mid] * 6
        trace = ConditionTrace(
            name="manual",
            epoch_ms=100.0,
            epochs=tuple(
                EpochConditions(time_ms=i * 100.0, **conditions)
                for i, conditions in enumerate(pattern)
            ),
        )
        controller = HysteresisThreshold()
        chosen = AdaptiveRuntime(trace=trace).run(controller).chosen_indices
        offload, fallback = controller.offload_index, controller.fallback_index
        assert chosen[:3] == (offload,) * 3
        assert chosen[3:] == (fallback,) * 7

    def test_only_its_two_rungs_are_chosen(self, burst_runtime):
        controller = HysteresisThreshold()
        report = burst_runtime.run(controller)
        assert set(report.chosen_indices) == {
            controller.offload_index,
            controller.fallback_index,
        }

    def test_derived_rungs_differ_and_offload_carries_more_quality(self, burst_runtime):
        controller = HysteresisThreshold()
        controller.reset(burst_runtime.context)
        quality = burst_runtime.context.quality
        assert controller.offload_index != controller.fallback_index
        assert quality[controller.offload_index] > quality[controller.fallback_index]

    def test_zero_misses_on_bundled_traces(self):
        for scenario in ("drift", "step", "burst"):
            runtime = AdaptiveRuntime(trace=make_trace(scenario, 120, seed=5))
            assert runtime.run(HysteresisThreshold()).deadline_miss_rate == 0.0


class TestGreedyBatchSweep:
    def test_satisfies_controller_protocol(self):
        assert isinstance(GreedyBatchSweep(), Controller)

    def test_per_epoch_regret_free(self, burst_runtime):
        """Wherever any candidate is feasible, greedy's choice is feasible."""
        report = burst_runtime.run(GreedyBatchSweep())
        matrix = burst_runtime.static_latency_matrix()
        deadline = burst_runtime.context.deadline_ms
        some_feasible = matrix.min(axis=1) <= deadline
        chosen = np.asarray(report.latency_ms)
        assert np.all(chosen[some_feasible] <= deadline)

    def test_latency_objective_lowers_p95(self, burst_runtime):
        latency_runtime = AdaptiveRuntime(trace=burst_runtime.trace, objective="latency")
        latency_run = latency_runtime.run(GreedyBatchSweep())
        quality_run = burst_runtime.run(GreedyBatchSweep())
        assert quality_run.objective == "quality"
        assert latency_run.p95_latency_ms < quality_run.p95_latency_ms


class TestEwmaPredictive:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed"):
            EwmaPredictive(seed=-1)

    def test_fractional_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="integer"):
            EwmaPredictive(seed=1.7)

    def test_numpy_integer_seed_accepted(self):
        assert EwmaPredictive(seed=np.uint32(7)).seed == 7

    def test_conservative_prediction_never_misses_with_feasible_local(self):
        for scenario in ("drift", "step", "burst"):
            runtime = AdaptiveRuntime(trace=make_trace(scenario, 120, seed=5))
            report = runtime.run(EwmaPredictive())
            assert report.deadline_miss_rate == 0.0, scenario

    def test_observations_blend_at_alpha(self, burst_runtime):
        alpha = EwmaPredictive.ALPHA
        assert 0.0 < alpha <= 1.0
        controller = EwmaPredictive()
        first = EpochConditions(time_ms=0.0, throughput_mbps=100.0, handoff_probability=0.2)
        second = EpochConditions(time_ms=100.0, throughput_mbps=40.0, handoff_probability=0.0)
        controller.observe(0, first, None)
        assert controller.state()[:2] == (100.0, 0.2)
        controller.observe(1, second, None)
        assert controller.state()[:2] == (
            alpha * 40.0 + (1.0 - alpha) * 100.0,
            alpha * 0.0 + (1.0 - alpha) * 0.2,
        )
        controller.reset(burst_runtime.context)
        assert controller.state()[:2] == (None, None)

    def test_exploration_is_seeded(self, burst_runtime):
        a = burst_runtime.run(EwmaPredictive(seed=1))
        b = burst_runtime.run(EwmaPredictive(seed=1))
        c = burst_runtime.run(EwmaPredictive(seed=2))
        assert a == b
        assert a.chosen_indices != c.chosen_indices
