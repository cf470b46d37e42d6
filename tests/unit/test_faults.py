"""Unit tests for the declarative fault model (:mod:`repro.faults`).

Covers event validation, schedule composition, the bit-exact replay format,
fault-window/TTR accounting and the bundled schedule generators.
"""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.faults import (
    FAULT_GENERATORS,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultOutcome,
    FaultSchedule,
    build_schedule,
    fault_outcome,
    make_schedule,
)


def _outage(start=4, duration=4, edge=0):
    return FaultEvent(
        kind="edge_outage", start_epoch=start, duration_epochs=duration, edge_index=edge
    )


class TestFaultEvent:
    def test_window_and_activity(self):
        event = _outage(start=3, duration=2)
        assert event.end_epoch == 5
        assert not event.active_at(2)
        assert event.active_at(3)
        assert event.active_at(4)
        assert not event.active_at(5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="meteor", start_epoch=0, duration_epochs=1)

    @pytest.mark.parametrize("start,duration", [(-1, 1), (0, 0), (2, -3)])
    def test_bad_window_rejected(self, start, duration):
        with pytest.raises(ConfigurationError):
            FaultEvent(kind="edge_outage", start_epoch=start, duration_epochs=duration)

    def test_brownout_capacity_must_be_fractional(self):
        for factor in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(ConfigurationError):
                FaultEvent(
                    kind="edge_brownout",
                    start_epoch=0,
                    duration_epochs=1,
                    capacity_factor=factor,
                )

    def test_straggler_needs_slowdown(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(
                kind="straggler", start_epoch=0, duration_epochs=1, service_factor=1.0
            )

    def test_link_degradation_rejects_edge_target(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(
                kind="link_degradation",
                start_epoch=0,
                duration_epochs=1,
                edge_index=0,
                throughput_factor=0.5,
            )

    def test_cross_kind_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(
                kind="edge_outage",
                start_epoch=0,
                duration_epochs=1,
                throughput_factor=0.5,
            )

    def test_every_kind_has_a_describe_line(self):
        events = {
            "edge_outage": _outage(),
            "edge_brownout": FaultEvent(
                kind="edge_brownout", start_epoch=0, duration_epochs=1, capacity_factor=0.5
            ),
            "link_degradation": FaultEvent(
                kind="link_degradation",
                start_epoch=0,
                duration_epochs=1,
                throughput_factor=0.5,
            ),
            "straggler": FaultEvent(
                kind="straggler", start_epoch=0, duration_epochs=1, service_factor=2.0
            ),
        }
        assert set(events) == set(FAULT_KINDS)
        for event in events.values():
            assert "epochs [" in event.describe()


class TestFaultScheduleComposition:
    def test_outage_state(self):
        schedule = FaultSchedule(name="s", events=(_outage(start=2, duration=3, edge=0),))
        state = schedule.state_at(3, 2)
        assert state.edge_capacity == (0.0, 1.0)
        assert state.alive_edges == (1,)
        assert state.n_edges_alive == 1
        assert state.availability == 0.5
        assert math.isinf(state.service_scale(0))
        assert state.service_scale(1) == 1.0

    def test_overlapping_brownouts_multiply(self):
        events = (
            FaultEvent(
                kind="edge_brownout", start_epoch=0, duration_epochs=4, capacity_factor=0.5
            ),
            FaultEvent(
                kind="edge_brownout",
                start_epoch=2,
                duration_epochs=4,
                capacity_factor=0.5,
                edge_index=0,
            ),
        )
        state = FaultSchedule(name="s", events=events).state_at(3, 2)
        assert state.edge_capacity == (0.25, 0.5)
        assert state.service_scale(0) == 4.0
        assert state.service_scale(1) == 2.0

    def test_straggler_scales_service_without_killing_capacity(self):
        schedule = FaultSchedule(
            name="s",
            events=(
                FaultEvent(
                    kind="straggler",
                    start_epoch=0,
                    duration_epochs=2,
                    edge_index=0,
                    service_factor=3.0,
                ),
            ),
        )
        state = schedule.state_at(0, 2)
        assert state.availability == 1.0
        assert state.service_scale(0) == 3.0
        assert state.any_fault

    def test_clean_epoch_is_identity(self):
        schedule = FaultSchedule(name="s", events=(_outage(start=5, duration=1),))
        state = schedule.state_at(0, 2)
        assert not state.any_fault
        assert state.availability == 1.0
        conditions = object()
        assert state.apply_to_conditions(conditions) is conditions

    def test_target_out_of_range_rejected(self):
        schedule = FaultSchedule(name="s", events=(_outage(edge=3),))
        with pytest.raises(ConfigurationError):
            schedule.state_at(0, 2)
        with pytest.raises(ConfigurationError):
            FaultInjector(schedule, 2)

    def test_windows_merge_contiguous_events(self):
        events = (
            _outage(start=2, duration=2),
            FaultEvent(
                kind="edge_brownout", start_epoch=4, duration_epochs=2, capacity_factor=0.5
            ),
            _outage(start=9, duration=1),
        )
        schedule = FaultSchedule(name="s", events=events)
        assert schedule.windows(12) == ((2, 6), (9, 10))
        assert schedule.last_epoch == 10

    def test_windows_clamp_to_run_length(self):
        schedule = FaultSchedule(name="s", events=(_outage(start=3, duration=10),))
        assert schedule.windows(5) == ((3, 5),)

    def test_round_trip_is_bit_exact(self):
        schedule = make_schedule("random-outages", seed=7)
        payload = schedule.to_dict()
        assert FaultSchedule.from_dict(payload).to_dict() == payload

    def test_injector_memoizes_states(self):
        injector = FaultInjector(FaultSchedule(name="s", events=(_outage(),)), 2)
        assert injector.state(4) is injector.state(4)


class TestFaultOutcome:
    def _schedule(self, start=4, duration=4):
        return FaultSchedule(name="s", events=(_outage(start=start, duration=duration),))

    def test_none_schedule_yields_none(self):
        assert fault_outcome(None, 2, [0.0, 0.0]) is None

    def test_instant_recovery(self):
        schedule = self._schedule(start=2, duration=2)
        miss = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        outcome = fault_outcome(schedule, 2, miss)
        assert outcome.fault_miss_rate == 1.0
        assert outcome.clear_miss_rate == 0.0
        assert outcome.availability == pytest.approx(1.0 - 2 / 6 * 0.5)
        (window,) = outcome.windows
        assert (window.start_epoch, window.end_epoch) == (2, 4)
        assert window.time_to_recover_epochs == 0
        assert window.recovered

    def test_slow_recovery_counts_epochs(self):
        schedule = self._schedule(start=2, duration=2)
        # Misses linger for three epochs after the fault clears.
        miss = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0]
        outcome = fault_outcome(schedule, 2, miss)
        (window,) = outcome.windows
        assert window.time_to_recover_epochs == 3
        assert window.recovered
        assert outcome.mean_time_to_recover_epochs == 3.0

    def test_never_recovering_window(self):
        schedule = self._schedule(start=2, duration=2)
        miss = [0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        outcome = fault_outcome(schedule, 2, miss)
        (window,) = outcome.windows
        assert not window.recovered
        assert window.time_to_recover_epochs == 2  # run ends 2 epochs after the fault

    def test_outcome_round_trips(self):
        schedule = self._schedule()
        outcome = fault_outcome(schedule, 2, [0.0] * 10)
        payload = outcome.to_dict()
        assert FaultOutcome.from_dict(payload).to_dict() == payload

    def test_empty_run_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_outcome(self._schedule(), 2, [])


class TestBundledSchedules:
    def test_every_generator_builds(self):
        for name in FAULT_GENERATORS:
            schedule = make_schedule(name)
            assert schedule.events
            assert schedule.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule("cosmic-rays")

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule("edge-outage", blast_radius=3)

    def test_random_outages_are_seed_deterministic(self):
        a = make_schedule("random-outages", seed=3)
        b = make_schedule("random-outages", seed=3)
        c = make_schedule("random-outages", seed=4)
        assert a.to_dict() == b.to_dict()
        assert a.to_dict() != c.to_dict()

    def test_build_schedule_reference_form(self):
        schedule = build_schedule(
            {"schedule": "edge-outage", "start_epoch": 10, "duration_epochs": 6}
        )
        assert schedule.events[0].start_epoch == 10
        assert schedule.events[0].end_epoch == 16

    def test_build_schedule_inline_form(self):
        schedule = build_schedule(
            {
                "name": "inline",
                "events": [
                    {"kind": "edge_outage", "start_epoch": 1, "duration_epochs": 2}
                ],
            }
        )
        assert schedule.name == "inline"
        assert schedule.events[0].kind == "edge_outage"

    def test_build_schedule_rejects_mixed_form(self):
        with pytest.raises(ConfigurationError):
            build_schedule({"schedule": "edge-outage", "events": []})
        with pytest.raises(ConfigurationError):
            build_schedule({})
