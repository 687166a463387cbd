"""Tests for out-of-order tolerance (slack reorder buffering)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import Query, normalize, run_query
from repro.temporal.streaming import StreamingEngine


def count_query():
    return Query.source("s").window(20).count(into="n")


class TestSlackBuffer:
    def test_out_of_order_within_slack_accepted(self):
        stream = StreamingEngine(count_query(), slack=10)
        stream.push("s", {"Time": 100})
        stream.push("s", {"Time": 95})  # 5 late, within slack
        out = stream.flush()
        assert normalize(out) == normalize(
            run_query(count_query(), {"s": [{"Time": 100}, {"Time": 95}]})
        )

    def test_late_beyond_slack_rejected(self):
        stream = StreamingEngine(count_query(), slack=10)
        stream.push("s", {"Time": 100})
        with pytest.raises(ValueError, match="later"):
            stream.push("s", {"Time": 80})

    def test_zero_slack_is_strict(self):
        stream = StreamingEngine(count_query(), slack=0)
        stream.push("s", {"Time": 100})
        with pytest.raises(ValueError, match="out-of-order"):
            stream.push("s", {"Time": 99})

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            StreamingEngine(count_query(), slack=-1)

    def test_watermark_trails_by_slack(self):
        """Results only finalize once the slack horizon passes."""
        stream = StreamingEngine(count_query(), slack=50)
        out = stream.push("s", {"Time": 0})
        out += stream.push("s", {"Time": 10})
        # nothing final yet: an event at t=0..? could still arrive late
        assert out == []
        out = stream.push("s", {"Time": 100})
        assert out  # t<=50 horizon passed, early results released

    def test_jittered_stream_equals_sorted(self):
        rnd = random.Random(3)
        times = sorted(rnd.sample(range(1000), 60))
        rows = [{"Time": t} for t in times]
        # arrival order = timestamp order perturbed by bounded jitter:
        # an event can arrive at most ~2*J ticks later than a newer one
        jitter = 40
        arrival = sorted(rows, key=lambda r: r["Time"] + rnd.randint(0, jitter))
        batch = run_query(count_query(), {"s": rows})
        stream = StreamingEngine(count_query(), slack=2 * jitter)
        out = []
        for row in arrival:
            out.extend(stream.push("s", row))
        out.extend(stream.flush())
        assert normalize(out) == normalize(batch)


times = st.lists(st.integers(min_value=0, max_value=200), max_size=40)


@settings(max_examples=100, deadline=None)
@given(times, st.randoms(use_true_random=False))
def test_slack_property_any_bounded_disorder(ts, rnd):
    """Arbitrary arrival order is fine when slack covers the full range."""
    rows = [{"Time": t} for t in ts]
    arrival = list(rows)
    rnd.shuffle(arrival)
    q = count_query()
    batch = run_query(q, {"s": rows})
    stream = StreamingEngine(q, slack=201)  # covers any disorder in range
    out = []
    for row in arrival:
        out.extend(stream.push("s", row))
    out.extend(stream.flush())
    assert normalize(out) == normalize(batch)


# -- a CTI overtaking reorder-buffered events ---------------------------------


def watched(query, slack):
    """A ``StreamingEngine`` whose dataflow checks, on every feed, that
    no event lies behind the watermark its source was already given."""
    stream = StreamingEngine(query, slack=slack)
    flow = stream._flow
    feed = flow.feed

    def checked_feed(source, events, watermark=None):
        events = list(events)
        promised = flow.source_watermark(source)
        behind = [e.le for e in events if e.le < promised]
        assert not behind, f"LEs {behind} fed behind watermark {promised}"
        feed(source, events, watermark)

    flow.feed = checked_feed
    return stream


def play(stream, script):
    """Per-call outputs of ``("push", t)`` / ``("cti", t)`` steps, the
    flush tail last."""
    calls = []
    for op, t in script:
        if op == "push":
            calls.append(stream.push("s", {"Time": t}))
        else:
            calls.append(stream.advance_to(t))
    calls.append(stream.flush())
    return calls


def assert_streams_as_batch(query, script, slack):
    calls = play(watched(query, slack), script)
    rows = [{"Time": t} for op, t in script if op == "push"]
    batch = run_query(query, {"s": rows})
    released = [e for call in calls for e in call]
    assert normalize(released) == normalize(batch)
    # what a call released is final: later calls only add later output
    for earlier, later in zip(calls, calls[1:]):
        if earlier and later:
            assert max(e.le for e in earlier) <= min(e.le for e in later)
    return calls


def test_cti_between_a_buffered_event_and_its_release():
    """slack 4: the events at 10 and 8 wait in the reorder buffer
    (watermark 6) when a CTI lands at 9. The CTI overtakes 8, which must
    reach the operators before they are told 9 — not at the next push,
    behind it."""
    script = [("push", 10), ("push", 8), ("cti", 9), ("push", 14), ("push", 30)]
    calls = assert_streams_as_batch(count_query(), script, slack=4)
    # event 8 is counted, in the snapshot the next watermark move closes
    assert [(e.le, e.re, e.payload["n"]) for e in calls[3]] == [(8, 10, 1)]


def test_cti_at_a_buffered_le_leaves_it_buffered():
    """An LE equal to the CTI is not behind it: the event may stay in
    the buffer, and a tie pushed afterwards is still accepted. The last
    CTI overtakes 13 with nothing pushed after it but the flush."""
    script = [("push", 10), ("cti", 10), ("push", 10), ("push", 13), ("cti", 40)]
    assert_streams_as_batch(count_query(), script, slack=4)


@st.composite
def overtaking_scripts(draw, slack):
    """Pushes late by at most ``slack`` and never behind a CTI; CTIs
    anywhere at or after the last one — in particular past events still
    in the reorder buffer."""
    script = []
    now = floor = 0
    for gap in draw(st.lists(st.sampled_from([0, 1, 1, 2, 3, 5, 9]), max_size=30)):
        now += gap
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            floor = max(floor, now - draw(st.integers(min_value=0, max_value=slack + 2)))
            script.append(("cti", floor))
        else:
            late = draw(st.integers(min_value=0, max_value=slack))
            script.append(("push", max(floor, now - late)))
    return script


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ctis_overtaking_buffered_events_stream_as_batch(data):
    script = data.draw(overtaking_scripts(4))
    query = data.draw(
        st.sampled_from(
            [
                count_query(),
                Query.source("s").hopping_window(6, 2).count(into="n"),
                Query.source("s").window(3).count(into="n").where(lambda p: p["n"] > 1),
            ]
        )
    )
    assert_streams_as_batch(query, script, slack=4)
