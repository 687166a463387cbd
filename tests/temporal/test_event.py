"""Unit tests for the event model and row<->event conversions."""

import pytest

from repro.temporal import Event, events_to_rows, point_events, rows_to_events
from repro.temporal.time import MAX_TIME, TICK, days, hours, minutes, seconds


class TestDurations:
    def test_tick_is_smallest_unit(self):
        assert TICK == 1

    def test_second_minute_hour_day_ratios(self):
        assert minutes(1) == seconds(60)
        assert hours(1) == minutes(60)
        assert days(1) == hours(24)

    def test_fractional_durations(self):
        assert minutes(0.5) == seconds(30)


class TestEvent:
    def test_point_event_lifetime(self):
        e = Event.point(5, {"a": 1})
        assert (e.le, e.re) == (5, 5 + TICK)
        assert e.is_point

    def test_interval_event_is_not_point(self):
        assert not Event(0, 10, {}).is_point

    def test_empty_lifetime_rejected(self):
        with pytest.raises(ValueError):
            Event(5, 5, {})

    def test_inverted_lifetime_rejected(self):
        with pytest.raises(ValueError):
            Event(5, 3, {})

    def test_rejection_reads_like_validate_interval(self):
        """``Event.__init__`` inlines the check; the text stays one."""
        from repro.temporal.time import validate_interval

        for le, re in ((5, 5), (5, 3)):
            with pytest.raises(ValueError) as inlined:
                Event(le, re, {})
            with pytest.raises(ValueError) as helper:
                validate_interval(le, re)
            assert str(inlined.value) == str(helper.value)

    def test_active_at_half_open(self):
        e = Event(2, 7, {})
        assert not e.active_at(1)
        assert e.active_at(2)
        assert e.active_at(6)
        assert not e.active_at(7)

    def test_overlaps(self):
        a = Event(0, 5, {})
        assert a.overlaps(Event(4, 6, {}))
        assert not a.overlaps(Event(5, 6, {}))  # half-open: touching != overlap
        assert a.overlaps(Event(0, 1, {}))

    def test_until_end_of_time(self):
        e = Event.until_end_of_time(3, {})
        assert e.re == MAX_TIME

    def test_with_lifetime_preserves_payload(self):
        e = Event(0, 5, {"x": 1})
        e2 = e.with_lifetime(1, 2)
        assert (e2.le, e2.re) == (1, 2)
        assert e2.payload is e.payload

    def test_equality_on_payload_and_lifetime(self):
        assert Event(0, 1, {"a": 1}) == Event(0, 1, {"a": 1})
        assert Event(0, 1, {"a": 1}) != Event(0, 2, {"a": 1})
        assert Event(0, 1, {"a": 1}) != Event(0, 1, {"a": 2})

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Event(0, 1, {}))


class TestConversions:
    def test_rows_become_point_events(self):
        rows = [{"Time": 3, "UserId": "u"}, {"Time": 1, "UserId": "v"}]
        events = point_events(rows)
        assert all(e.is_point for e in events)
        assert [e.le for e in events] == [3, 1]

    def test_drop_time_column(self):
        events = point_events([{"Time": 3, "UserId": "u"}])
        assert events[0].payload == {"UserId": "u"}

    def test_events_to_rows_roundtrip(self):
        events = [Event(2, 9, {"k": "x"})]
        rows = events_to_rows(events)
        assert rows == [{"k": "x", "Time": 2, "_re": 9}]
        back = rows_to_events(rows)
        assert back[0].le == 2 and back[0].re == 9
        assert back[0].payload["k"] == "x"

    def test_rows_without_re_become_points(self):
        back = rows_to_events([{"Time": 5, "k": 1}])
        assert back[0].is_point

    def test_events_to_rows_can_drop_re(self):
        rows = events_to_rows([Event(2, 9, {})], re_column=None)
        assert rows == [{"Time": 2}]
