"""Unit tests for the condition-trace generators and the replay format."""

import json

import numpy as np
import pytest

from repro.adaptive.traces import (
    BURST_EPOCHS,
    BURST_INSIDE,
    BURST_OUTSIDE,
    BURST_PERIOD_EPOCHS,
    DRIFT_END,
    DRIFT_START,
    HANDOFF_PROBABILITY_STEP,
    MEAN_CONTENDERS,
    MIN_THROUGHPUT_MBPS,
    STEP_AFTER,
    STEP_BEFORE,
    ConditionTrace,
    EpochConditions,
    burst_trace,
    drift_trace,
    make_trace,
    mobility_fading_trace,
    quantize_probability,
    step_trace,
)
from repro.config.network import NetworkConfig
from repro.exceptions import ConfigurationError
from repro.fleet.contention import ContentionModel


class TestEpochConditions:
    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            EpochConditions(time_ms=-1.0, throughput_mbps=10.0, handoff_probability=0.0)
        with pytest.raises(ConfigurationError):
            EpochConditions(time_ms=0.0, throughput_mbps=0.0, handoff_probability=0.0)
        with pytest.raises(ConfigurationError):
            EpochConditions(time_ms=0.0, throughput_mbps=10.0, handoff_probability=1.5)
        with pytest.raises(ConfigurationError):
            EpochConditions(
                time_ms=0.0, throughput_mbps=10.0, handoff_probability=0.0, n_contenders=0
            )

    def test_quantize_probability_snaps_and_clamps(self):
        assert quantize_probability(-0.3) == 0.0
        assert quantize_probability(1.7) == 1.0
        value = quantize_probability(0.1234)
        assert value == pytest.approx(round(value / HANDOFF_PROBABILITY_STEP) * HANDOFF_PROBABILITY_STEP)


class TestTraceContainer:
    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            ConditionTrace(name="x", epoch_ms=100.0, epochs=())

    def test_bad_epoch_length_rejected(self):
        epoch = EpochConditions(time_ms=0.0, throughput_mbps=10.0, handoff_probability=0.0)
        with pytest.raises(ConfigurationError):
            ConditionTrace(name="x", epoch_ms=0.0, epochs=(epoch,))

    @pytest.mark.parametrize("epoch_ms", [float("nan"), float("inf")])
    def test_non_finite_epoch_length_rejected(self, epoch_ms):
        # A NaN epoch length used to replay with NaN energy.
        epoch = EpochConditions(time_ms=0.0, throughput_mbps=10.0, handoff_probability=0.0)
        with pytest.raises(ConfigurationError, match="epoch_ms"):
            ConditionTrace(name="x", epoch_ms=epoch_ms, epochs=(epoch,))

    def test_length_iteration_and_duration(self):
        trace = drift_trace(25, epoch_ms=50.0, seed=1)
        assert len(trace) == trace.n_epochs == 25
        assert trace.duration_ms == pytest.approx(25 * 50.0)
        assert [epoch.time_ms for epoch in trace] == [i * 50.0 for i in range(25)]
        assert trace[3] is trace.epochs[3]


class TestGenerators:
    @pytest.mark.parametrize("name", ("drift", "step", "burst", "mobility"))
    def test_seeded_generation_is_deterministic(self, name):
        a = make_trace(name, 40, seed=9)
        b = make_trace(name, 40, seed=9)
        assert a == b

    @pytest.mark.parametrize("name", ("drift", "step", "burst", "mobility"))
    def test_different_seeds_differ(self, name):
        a = make_trace(name, 40, seed=1)
        b = make_trace(name, 40, seed=2)
        assert a != b

    @pytest.mark.parametrize("name", ("drift", "step", "burst", "mobility"))
    def test_throughput_floor_and_quantized_handoff(self, name):
        trace = make_trace(name, 60, seed=4)
        assert np.all(trace.throughput_mbps >= MIN_THROUGHPUT_MBPS)
        for value in trace.handoff_probability:
            assert value == pytest.approx(
                round(value / HANDOFF_PROBABILITY_STEP) * HANDOFF_PROBABILITY_STEP
            )

    def test_drift_is_monotone_on_average(self):
        trace = drift_trace(100, seed=0)
        first = trace.throughput_mbps[:20].mean()
        last = trace.throughput_mbps[-20:].mean()
        assert last < first / 5.0

    def test_step_changes_regime_at_fraction(self):
        trace = step_trace(100, seed=0)
        assert trace.throughput_mbps[:50].min() > trace.throughput_mbps[50:].max()
        assert trace.handoff_probability[49] < trace.handoff_probability[50]

    def test_burst_contains_both_regimes(self):
        trace = burst_trace(120, seed=0)
        in_burst = trace.throughput_mbps < 50.0
        assert 0 < in_burst.sum() < 120

    def test_unjittered_drift_runs_between_its_ends(self):
        trace = drift_trace(11, seed=0, jitter=0.0)
        assert (trace[0].throughput_mbps, trace[0].handoff_probability) == DRIFT_START
        assert trace[-1].throughput_mbps == DRIFT_END[0]
        assert trace[-1].handoff_probability == quantize_probability(DRIFT_END[1])
        steps = np.diff(trace.throughput_mbps)
        assert steps == pytest.approx(np.full(10, (DRIFT_END[0] - DRIFT_START[0]) / 10))

    def test_unjittered_step_holds_each_regime(self):
        trace = step_trace(10, seed=0, jitter=0.0)
        for i, epoch in enumerate(trace):
            throughput, handoff = STEP_BEFORE if i < 5 else STEP_AFTER
            assert epoch.throughput_mbps == throughput
            assert epoch.handoff_probability == quantize_probability(handoff)

    def test_bursts_cover_their_share_of_each_period(self):
        periods = 4
        trace = burst_trace(periods * BURST_PERIOD_EPOCHS, seed=7, jitter=0.0)
        pairs = [(e.throughput_mbps, e.handoff_probability) for e in trace]
        inside = (BURST_INSIDE[0], quantize_probability(BURST_INSIDE[1]))
        outside = (BURST_OUTSIDE[0], quantize_probability(BURST_OUTSIDE[1]))
        assert set(pairs) == {inside, outside}
        in_burst = np.asarray([pair == inside for pair in pairs])
        assert in_burst.sum() == periods * BURST_EPOCHS
        # Every period repeats the same phase.
        per_period = in_burst.reshape(periods, BURST_PERIOD_EPOCHS)
        assert np.all(per_period == per_period[0])

    @pytest.mark.parametrize("name", ("drift", "step", "burst"))
    def test_negative_jitter_rejected(self, name):
        with pytest.raises(ConfigurationError, match="jitter"):
            make_trace(name, 10, jitter=-0.01)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            drift_trace(0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trace("tsunami", 10)


class TestMobilityComposition:
    def test_contenders_stay_in_bounds(self):
        trace = mobility_fading_trace(80, seed=5)
        contenders = np.asarray([epoch.n_contenders for epoch in trace])
        assert contenders.min() >= 1
        assert contenders.max() <= 4 * MEAN_CONTENDERS

    def test_handoff_epochs_charge_per_frame_probability(self):
        trace = mobility_fading_trace(200, seed=5, epoch_ms=100.0)
        levels = set(float(v) for v in trace.handoff_probability)
        expected = quantize_probability((1000.0 / 30.0) / 100.0)
        assert levels <= {0.0, expected}
        assert expected in levels

    def test_contention_reduces_throughput_below_single_user(self):
        trace = mobility_fading_trace(80, seed=5)
        contention = ContentionModel(network=NetworkConfig())
        for epoch in trace:
            share = contention.per_user_throughput_mbps(epoch.n_contenders)
            assert epoch.throughput_mbps == max(share * epoch.fading_gain, MIN_THROUGHPUT_MBPS)
        # The fading gain has mean 1, so the contended share keeps the
        # trace well below the 200 Mbps single-user link.
        assert trace.throughput_mbps.mean() < 100.0


class TestReplayFormat:
    def test_dict_round_trip_is_bit_exact(self):
        trace = burst_trace(50, seed=11)
        clone = ConditionTrace.from_dict(trace.to_dict())
        assert clone == trace

    def test_json_round_trip_is_bit_exact(self):
        trace = mobility_fading_trace(50, seed=11)
        payload = json.dumps(trace.to_dict())
        clone = ConditionTrace.from_dict(json.loads(payload))
        assert clone == trace

    def test_seed_is_recorded(self):
        assert drift_trace(10, seed=13).seed == 13
