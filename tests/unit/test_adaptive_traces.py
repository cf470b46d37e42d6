"""Unit tests for the condition-trace generators and the replay format."""

import json

import numpy as np
import pytest

from repro.adaptive.traces import (
    HANDOFF_PROBABILITY_STEP,
    MIN_THROUGHPUT_MBPS,
    ConditionTrace,
    EpochConditions,
    burst_trace,
    drift_trace,
    make_trace,
    mobility_fading_trace,
    quantize_probability,
    step_trace,
)
from repro.exceptions import ConfigurationError


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
        trace = step_trace(100, seed=0, step_fraction=0.5)
        assert trace.throughput_mbps[:50].min() > trace.throughput_mbps[50:].max()
        assert trace.handoff_probability[49] < trace.handoff_probability[50]

    def test_burst_contains_both_regimes(self):
        trace = burst_trace(120, seed=0)
        in_burst = trace.throughput_mbps < 50.0
        assert 0 < in_burst.sum() < 120

    def test_burst_duration_must_fit_period(self):
        with pytest.raises(ConfigurationError):
            burst_trace(50, burst_every=10, burst_duration=10)

    def test_step_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            step_trace(50, step_fraction=1.0)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigurationError):
            drift_trace(0)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            make_trace("tsunami", 10)


class TestMobilityComposition:
    def test_contenders_stay_in_bounds(self):
        trace = mobility_fading_trace(80, seed=5, mean_contenders=6)
        contenders = np.asarray([epoch.n_contenders for epoch in trace])
        assert contenders.min() >= 1
        assert contenders.max() <= 24

    def test_stationary_device_never_hands_off(self):
        trace = mobility_fading_trace(60, seed=5, speed_m_per_s=0.0)
        assert np.all(trace.handoff_probability == 0.0)

    def test_handoff_epochs_charge_per_frame_probability(self):
        trace = mobility_fading_trace(
            200, seed=5, speed_m_per_s=20.0, epoch_ms=100.0
        )
        levels = set(float(v) for v in trace.handoff_probability)
        expected = quantize_probability((1000.0 / 30.0) / 100.0)
        assert levels <= {0.0, expected}
        assert expected in levels

    def test_contention_reduces_throughput_below_single_user(self):
        trace = mobility_fading_trace(80, seed=5, mean_contenders=20, rician_k=1e9)
        # With fading suppressed (huge K factor) the per-user share alone
        # must sit well below the 200 Mbps single-user link.
        assert trace.throughput_mbps.max() < 100.0


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
