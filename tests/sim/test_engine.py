"""The discrete-event engine: ordering, determinism, periodic tasks."""

import pytest

from repro.sim.engine import EventEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run_until()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        engine = EventEngine()
        order = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: order.append(t))
        engine.run_until()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = EventEngine()
        seen = []
        engine.schedule(5.5, lambda: seen.append(engine.now))
        engine.run_until()
        assert seen == [5.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventEngine().schedule(-1.0, lambda: None)

    def test_schedule_passes_args_to_callback(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, seen.append, "frame")
        engine.schedule(2.0, lambda a, b: seen.append((a, b)), 1, 2)
        engine.run_until()
        assert seen == ["frame", (1, 2)]

    def test_fired_entry_holds_nothing(self):
        # Both dispatch loops clear a fired entry's callback and args;
        # the link reads the callback slot to tell a delivered batch.
        engine = EventEngine()
        seen = []
        fired = engine.schedule(1.0, seen.append, "first")
        engine.run_until()
        assert fired[2] is None and fired[3] is None
        stepped = engine.schedule(1.0, seen.append, "stepped")
        assert engine.step()
        assert stepped[2] is None and stepped[3] is None
        assert seen == ["first", "stepped"]

    def test_step_runs_the_next_event(self):
        engine = EventEngine()
        seen = []
        engine.schedule(2.0, seen.append, "b")
        engine.schedule(1.0, seen.append, "a")
        assert engine.step() and seen == ["a"] and engine.now == 1.0
        assert engine.pending_events == 1
        assert engine.step() and seen == ["a", "b"] and engine.now == 2.0
        assert not engine.step()
        assert engine.events_run == 2

    def test_events_scheduled_during_event(self):
        engine = EventEngine()
        order = []

        def first():
            order.append("first")
            engine.schedule(0.0, lambda: order.append("nested"))

        engine.schedule(1.0, first)
        engine.schedule(2.0, lambda: order.append("second"))
        engine.run_until()
        assert order == ["first", "nested", "second"]


class TestRunUntil:
    def test_condition_stops_early(self):
        engine = EventEngine()
        state = {"hits": 0}

        def tick():
            state["hits"] += 1
            engine.schedule(1.0, tick)

        engine.schedule(1.0, tick)
        assert engine.run_until(lambda: state["hits"] >= 3, deadline=100.0)
        assert state["hits"] == 3

    def test_deadline_caps_time(self):
        engine = EventEngine()
        engine.schedule(50.0, lambda: None)
        result = engine.run_until(lambda: False, deadline=10.0)
        assert not result
        assert engine.now == 10.0
        assert engine.pending_events == 1

    def test_run_for(self):
        engine = EventEngine()
        hits = []
        engine.schedule_every(1.0, lambda: hits.append(engine.now))
        engine.run_for(5.5)
        assert hits == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert engine.now == 5.5

    @pytest.mark.parametrize("later_entry", [True, False], ids=["pending", "drained"])
    def test_nested_pump_past_the_deadline_keeps_the_clock_ahead(self, later_entry):
        # An outer run_for(1.0) whose callback at 0.5 pumps to 2.5 must
        # leave the clock at 2.5, not move it back to 1.0, whether an
        # entry still waits past both deadlines or the queue drained.
        engine = EventEngine()
        seen = []

        def nested():
            engine.run_until(deadline=2.5)
            seen.append(engine.now)

        engine.schedule(0.5, nested)
        if later_entry:
            engine.schedule(3.0, lambda: None)
        engine.run_for(1.0)
        assert seen == [2.5]
        assert engine.now == 2.5
        assert engine.pending_events == int(later_entry)

    def test_run_for_advances_the_clock_over_a_drained_queue(self):
        engine = EventEngine()
        engine.run_for(5.0)
        assert engine.now == 5.0
        engine.schedule(1.0, lambda: None)
        engine.run_for(5.0)
        assert engine.now == 10.0
        # No deadline, no clock to advance to: a drained queue leaves it.
        engine.schedule(1.0, lambda: None)
        assert not engine.run_until(lambda: False)
        assert engine.now == 11.0

    def test_queue_drain_returns_false(self):
        engine = EventEngine()
        assert not engine.run_until(lambda: False)

    def test_livelock_guard(self):
        engine = EventEngine()

        def forever():
            engine.schedule(0.0, forever)

        engine.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="events"):
            engine.run_until(lambda: False, deadline=1.0, max_events=1000)


class TestPeriodic:
    def test_immediate_flag_fires_at_t0(self):
        # Every periodic timer's first tick runs at once.
        engine = EventEngine()
        hits = []
        engine.schedule_every(1.0, lambda: hits.append(engine.now))
        engine.run_for(2.5)
        assert hits == [0.0, 1.0, 2.0]

    def test_same_interval_timers_keep_one_event_each_per_period(self):
        engine = EventEngine()
        hits = []
        for tag in "abc":
            engine.schedule_every(1.0, lambda t=tag: hits.append(t))
        engine.run_for(2.5)
        assert hits == ["a", "b", "c"] * 3
        # 3 first ticks, then 2 periods of one event per timer.
        assert engine.events_run == 9
        assert engine.pending_events == 3

    def test_timers_of_different_intervals_do_not_share(self):
        engine = EventEngine()
        hits = []
        engine.schedule_every(1.0, lambda: hits.append(("fast", engine.now)))
        engine.schedule_every(2.0, lambda: hits.append(("slow", engine.now)))
        engine.run_for(2.5)
        assert hits == [
            ("fast", 0.0),
            ("slow", 0.0),
            ("fast", 1.0),
            ("slow", 2.0),  # armed at t=0, before the fast tick re-armed at t=1
            ("fast", 2.0),
        ]

    def test_non_positive_interval_rejected(self):
        with pytest.raises(ValueError):
            EventEngine().schedule_every(0.0, lambda: None)
