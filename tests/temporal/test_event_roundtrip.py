"""Property-style round-trip tests for the row<->event conversions.

TiMR persists every intermediate stream as rows in M-R files and
reconstitutes events inside the next reducer; the round trip must be
lossless or stages silently corrupt lifetimes. These tests drive
``events_to_rows`` / ``rows_to_events`` with seeded randomized payloads
and lifetimes, covering point vs interval events and the ``_src`` tag
column the multi-input union transformation adds.
"""

import random
import string

import pytest

from repro.temporal import Event, events_to_rows, rows_to_events
from repro.temporal.time import MAX_TIME, TICK
from repro.timr.compile import SRC_COLUMN

SEEDS = [0, 1, 7, 42, 1234]


def random_payload(rng):
    payload = {}
    for _ in range(rng.randint(0, 6)):
        key = "".join(rng.choices(string.ascii_letters, k=rng.randint(1, 8)))
        if key in ("Time", "_re"):  # reserved by the row encoding
            continue
        kind = rng.randrange(4)
        if kind == 0:
            payload[key] = rng.randint(-10**6, 10**6)
        elif kind == 1:
            payload[key] = rng.random()
        elif kind == 2:
            payload[key] = "".join(rng.choices(string.printable, k=5))
        else:
            payload[key] = rng.choice([None, True, False])
    return payload


def random_event(rng):
    le = rng.randint(0, 10**7)
    if rng.random() < 0.4:  # point event
        re = le + TICK
    elif rng.random() < 0.1:  # open-ended
        re = MAX_TIME
    else:
        re = le + rng.randint(1, 10**6)
    return Event(le, re, random_payload(rng))


class TestEventRowRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_events_survive_row_encoding(self, seed):
        rng = random.Random(seed)
        events = [random_event(rng) for _ in range(200)]
        back = rows_to_events(events_to_rows(events))
        assert back == events

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_survive_event_decoding(self, seed):
        rng = random.Random(seed)
        rows = [
            {"Time": rng.randint(0, 10**6), "_re": None, **random_payload(rng)}
            for _ in range(100)
        ]
        for row in rows:
            row["_re"] = row["Time"] + rng.randint(1, 10**4)
        back = events_to_rows(rows_to_events(rows))

        def canon(rs):  # insertion-order-insensitive multiset of dicts
            return sorted(repr(sorted(r.items(), key=repr)) for r in rs)

        assert canon(back) == canon(rows)

    def test_point_events_round_trip_as_points(self):
        events = [Event.point(5, {"k": 1}), Event.point(0, {})]
        back = rows_to_events(events_to_rows(events))
        assert all(e.is_point for e in back)
        assert back == events

    def test_interval_events_keep_exact_re(self):
        e = Event(3, 9999, {"k": "x"})
        (back,) = rows_to_events(events_to_rows([e]))
        assert (back.le, back.re) == (3, 9999)
        assert not back.is_point

    def test_rows_without_re_column_become_points(self):
        (e,) = rows_to_events([{"Time": 7, "k": 1}])
        assert e.is_point and e.le == 7

    def test_src_column_survives_round_trip(self):
        # The union transformation tags rows with _src; the tag is payload
        # data and must ride through the row encoding untouched.
        e = Event(2, 10, {SRC_COLUMN: "left", "v": 1})
        rows = events_to_rows([e])
        assert rows[0][SRC_COLUMN] == "left"
        (back,) = rows_to_events(rows)
        assert back.payload[SRC_COLUMN] == "left"
        assert back == e

    @pytest.mark.parametrize("seed", SEEDS)
    def test_double_round_trip_is_stable(self, seed):
        rng = random.Random(seed)
        events = [random_event(rng) for _ in range(50)]
        once = events_to_rows(events)
        twice = events_to_rows(rows_to_events(once))
        assert once == twice
