"""Property-based tests for count and session windows vs brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import Event, normalize
from repro.temporal.operators import count_window, session_window, sort_events
from repro.temporal.relation import ref_count_window, ref_session_window

times_lists = st.lists(st.integers(min_value=0, max_value=100), max_size=30)


@settings(max_examples=200, deadline=None)
@given(times_lists, st.integers(min_value=1, max_value=8))
def test_count_window_matches_reference(ts, n):
    events = sort_events([Event.point(t, {"t": i}) for i, t in enumerate(sorted(ts))])
    got = count_window(n).apply(list(events))
    want = ref_count_window(events, n)
    assert normalize(got) == normalize(want)


@settings(max_examples=200, deadline=None)
@given(times_lists, st.integers(min_value=1, max_value=40))
def test_session_window_matches_reference(ts, gap):
    events = sort_events([Event.point(t, {"t": i}) for i, t in enumerate(sorted(ts))])
    got = session_window(gap).apply(list(events))
    want = ref_session_window(events, gap)
    assert normalize(got) == normalize(want)


@settings(max_examples=100, deadline=None)
@given(times_lists, st.integers(min_value=1, max_value=40))
def test_session_windows_tile_without_overlap(ts, gap):
    """Distinct sessions never overlap in time."""
    events = sort_events([Event.point(t, {}) for t in sorted(set(ts))])
    out = session_window(gap).apply(list(events))
    ends = sorted({e.re for e in out})
    for a, b in zip(ends, ends[1:]):
        later = [e for e in out if e.re == b]
        assert min(e.le for e in later) >= a


@settings(max_examples=100, deadline=None)
@given(times_lists, st.integers(min_value=1, max_value=8))
def test_count_window_active_set_size_bounded(ts, n):
    """At any instant at most n events are active."""
    from repro.temporal.relation import changepoints, snapshot

    events = sort_events([Event.point(t, {"i": i}) for i, t in enumerate(sorted(ts))])
    out = count_window(n).apply(list(events))
    for t in changepoints(out):
        assert sum(snapshot(out, t).values()) <= n
