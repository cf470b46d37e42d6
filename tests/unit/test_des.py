"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation.des import EventScheduler


class TestScheduling:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(5.0, lambda s: order.append("b"))
        scheduler.schedule_at(1.0, lambda s: order.append("a"))
        scheduler.schedule_at(9.0, lambda s: order.append("c"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule_at(3.0, lambda s: seen.append(s.now_ms))
        scheduler.schedule_at(7.5, lambda s: seen.append(s.now_ms))
        scheduler.run()
        assert seen == [3.0, 7.5]
        assert scheduler.now_ms == 7.5

    def test_same_time_events_run_in_scheduling_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule_at(1.0, lambda s: order.append("first"))
        scheduler.schedule_at(1.0, lambda s: order.append("second"))
        scheduler.run()
        assert order == ["first", "second"]

    def test_scheduling_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule_at(5.0, lambda s: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(1.0, lambda s: None)


class TestRunControl:
    def test_runaway_schedule_detected(self):
        scheduler = EventScheduler()

        def reschedule(s):
            s.schedule_at(s.now_ms + 0.1, reschedule)

        scheduler.schedule_at(0.0, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            scheduler.run(max_events=100)

    def test_budget_is_checked_before_each_callback(self):
        scheduler = EventScheduler()
        fired = []
        for time in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time, lambda s: fired.append(s.now_ms))
        with pytest.raises(SimulationError, match="budget"):
            scheduler.run(max_events=2)
        assert fired == [1.0, 2.0]

    def test_budget_that_fits_every_event_runs_them_all(self):
        scheduler = EventScheduler()
        fired = []
        for time in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time, lambda s: fired.append(s.now_ms))
        assert scheduler.run(max_events=3) == 3.0
        assert fired == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "n_events, max_events",
        [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2), (3, 3), (3, 10), (5, 1)],
    )
    def test_budget_caps_the_callbacks_that_run(self, n_events, max_events):
        scheduler = EventScheduler()
        fired = []
        for index in range(n_events):
            scheduler.schedule_at(float(index), lambda s: fired.append(s.now_ms))
        if n_events > max_events:
            with pytest.raises(SimulationError, match="budget"):
                scheduler.run(max_events=max_events)
        else:
            scheduler.run(max_events=max_events)
        assert len(fired) == min(n_events, max_events)

    def test_events_scheduled_by_callbacks_count_against_the_budget(self):
        scheduler = EventScheduler()
        fired = []

        def chain(s):
            fired.append(s.now_ms)
            if len(fired) < 4:
                s.schedule_at(s.now_ms + 1.0, chain)

        scheduler.schedule_at(0.0, chain)
        with pytest.raises(SimulationError, match="budget"):
            scheduler.run(max_events=3)
        assert fired == [0.0, 1.0, 2.0]

    def test_clock_stays_at_the_last_event_run_when_the_budget_runs_out(self):
        scheduler = EventScheduler()
        for time in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time, lambda s: None)
        with pytest.raises(SimulationError):
            scheduler.run(max_events=2)
        assert scheduler.now_ms == 2.0

    def test_event_left_by_an_exhausted_budget_runs_on_the_next_call(self):
        scheduler = EventScheduler()
        fired = []
        for time in (1.0, 2.0, 3.0):
            scheduler.schedule_at(time, lambda s: fired.append(s.now_ms))
        with pytest.raises(SimulationError):
            scheduler.run(max_events=2)
        assert scheduler.run(max_events=1) == 3.0
        assert fired == [1.0, 2.0, 3.0]

    def test_empty_queue_returns_the_current_time(self):
        assert EventScheduler().run(max_events=0) == 0.0
