"""Tests for the discrete-event engine."""

import pytest

from repro.sim import Engine


class TestScheduling:
    def test_time_ordering(self):
        e = Engine()
        log = []
        e.schedule(0.3, lambda: log.append("c"))
        e.schedule(0.1, lambda: log.append("a"))
        e.schedule(0.2, lambda: log.append("b"))
        e.run()
        assert log == ["a", "b", "c"]

    def test_fifo_tiebreak(self):
        e = Engine()
        log = []
        for i in range(5):
            e.schedule(0.1, log.append, i)
        e.run()
        assert log == [0, 1, 2, 3, 4]

    def test_arg_passing(self):
        e = Engine()
        got = []
        e.schedule(0.0, got.append, 42)
        e.run()
        assert got == [42]

    def test_clock_advances(self):
        e = Engine()
        seen = []
        e.schedule(0.5, lambda: seen.append(e.now))
        e.run()
        assert seen == [0.5]
        assert e.now == 0.5

    def test_negative_delay_rejected(self):
        e = Engine()
        with pytest.raises(ValueError):
            e.schedule(-0.1, lambda: None)

    def test_schedule_at(self):
        e = Engine()
        seen = []
        e.schedule_at(1.5, lambda: seen.append(e.now))
        e.run()
        assert seen == [1.5]

    def test_nested_scheduling(self):
        e = Engine()
        log = []

        def first():
            log.append(("first", e.now))
            e.schedule(0.1, lambda: log.append(("second", e.now)))

        e.schedule(0.2, first)
        e.run()
        assert log == [("first", 0.2), ("second", pytest.approx(0.3))]


class TestRunLimits:
    def test_until_stops_before_future_events(self):
        e = Engine()
        log = []
        e.schedule(0.1, lambda: log.append(1))
        e.schedule(1.0, lambda: log.append(2))
        e.run(until=0.5)
        assert log == [1]
        assert e.now == 0.5
        e.run()
        assert log == [1, 2]

    def test_max_events(self):
        e = Engine()
        log = []
        for i in range(10):
            e.schedule(0.01 * (i + 1), log.append, i)
        processed = e.run(max_events=3)
        assert processed == 3
        assert log == [0, 1, 2]

    def test_max_events_zero_processes_nothing(self):
        e = Engine()
        log = []
        e.schedule(0.1, log.append, 0)
        assert e.run(max_events=0) == 0
        assert log == []
        assert e.now == 0.0
        assert e.events_processed == 0
        assert e.pending == 1
        assert e.run() == 1
        assert log == [0]

    def test_max_events_zero_with_horizon_advances_clock_only(self):
        e = Engine()
        log = []
        e.schedule(0.1, log.append, 0)
        e.schedule(1.0, log.append, 1)
        assert e.run(until=0.5, max_events=0) == 0
        assert log == []
        # The event at 0.1 is still due, so the clock stays put.
        assert e.now == 0.0
        e.run(until=0.5)
        assert e.run(until=0.8, max_events=0) == 0
        assert e.now == 0.8
        assert log == [0]

    @pytest.mark.parametrize("max_events", [-1, -5])
    def test_negative_max_events_rejected(self, max_events):
        e = Engine()
        log = []
        e.schedule(0.1, log.append, 0)
        with pytest.raises(ValueError, match="max_events"):
            e.run(max_events=max_events)
        assert log == []
        assert e.events_processed == 0
        assert e.pending == 1

    def test_max_events_skips_cancelled_without_counting(self):
        e = Engine()
        log = []
        e.schedule_cancellable(0.1, log.append, 0).cancel()
        e.schedule(0.2, log.append, 1)
        e.schedule(0.3, log.append, 2)
        assert e.run(max_events=1) == 1
        assert log == [1]
        assert e.pending == 1

    def test_events_processed_counter(self):
        e = Engine()
        for i in range(4):
            e.schedule(0.01, lambda: None)
        e.run()
        assert e.events_processed == 4


class TestCancellation:
    def test_cancel_prevents_callback(self):
        e = Engine()
        log = []
        h = e.schedule_cancellable(0.1, lambda: log.append("x"))
        h.cancel()
        e.run()
        assert log == []

    def test_cancelled_not_counted(self):
        e = Engine()
        h = e.schedule_cancellable(0.1, lambda: None)
        h.cancel()
        assert e.run() == 0

    def test_cancel_after_fire_is_noop(self):
        e = Engine()
        log = []
        h = e.schedule_cancellable(0.1, lambda: log.append("x"))
        e.run()
        h.cancel()
        assert log == ["x"]
