"""Differential property tests: both drivers, one runtime, equal bytes.

The batch :class:`Engine` and the push-based :class:`StreamingEngine`
now drive the *same* incremental operator graph. These tests generate
random histories with hypothesis, run them through both drivers (and
through the batch driver at several batch sizes), canonicalize the
outputs, and compare them byte-for-byte — covering GroupApply, joins,
unions, count/session windows, and the custom-AlterLifetime plans only
the batch driver accepts.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import Engine, Query, normalize
from repro.temporal.streaming import StreamingEngine, StreamingUnsupported

times = st.integers(min_value=0, max_value=60)
streams = st.sampled_from([0, 1])
keys = st.sampled_from(["u1", "u2", "u3"])


@st.composite
def histories(draw, max_n=30):
    n = draw(st.integers(min_value=0, max_value=max_n))
    ts = sorted(draw(times) for _ in range(n))
    return [
        {"Time": t, "StreamId": draw(streams), "UserId": draw(keys)} for t in ts
    ]


def canonical_bytes(events) -> bytes:
    """A canonical byte serialization of a temporal relation."""
    rows = [
        [e.le, e.re, sorted(e.payload.items())] for e in normalize(events)
    ]
    return json.dumps(rows, sort_keys=True, default=str).encode()


def _portfolio():
    src = Query.source("logs")
    clicks = src.where(lambda p: p["StreamId"] == 1)
    other = src.where(lambda p: p["StreamId"] == 0).window(15)
    return [
        src.window(10).count(into="n"),
        src.hopping_window(20, 10).count(into="n"),
        src.group_apply("UserId", lambda g: g.window(8).count(into="n")),
        src.group_apply(
            "UserId",
            lambda g: g.group_apply(
                "StreamId", lambda gg: gg.window(12).count(into="n")
            ),
        ),
        clicks.temporal_join(other, on="UserId"),
        clicks.anti_semi_join(other, on="UserId"),
        clicks.union(other),
        src.count_window(3).count(into="n"),
        src.session_window(5).count(into="n"),
    ]


N_PLANS = len(_portfolio())


@settings(max_examples=120, deadline=None)
@given(histories(), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_drivers_agree_byte_for_byte(rows, plan_idx):
    query = _portfolio()[plan_idx]
    batch = Engine().run(query, {"logs": list(rows)}, validate=False)
    streamed = StreamingEngine(query).run_all({"logs": list(rows)})
    assert canonical_bytes(streamed) == canonical_bytes(batch)


@settings(max_examples=60, deadline=None)
@given(histories(max_n=20), st.integers(min_value=0, max_value=N_PLANS - 1))
def test_batch_size_invariance(rows, plan_idx):
    """The chunked batch driver's output is independent of chunk size."""
    query = _portfolio()[plan_idx]
    reference = Engine().run(query, {"logs": list(rows)}, validate=False)
    for size in (1, 7):
        out = Engine().run(
            query, {"logs": list(rows)}, validate=False, batch_size=size
        )
        assert canonical_bytes(out) == canonical_bytes(reference)


@settings(max_examples=60, deadline=None)
@given(histories(max_n=20), histories(max_n=20))
def test_two_source_join_drivers_agree(left_rows, right_rows):
    q = Query.source("a").temporal_join(
        Query.source("b").window(15), on="UserId"
    )
    batch = Engine().run(
        q, {"a": list(left_rows), "b": list(right_rows)}, validate=False
    )
    streamed = StreamingEngine(q).run_all(
        {"a": list(left_rows), "b": list(right_rows)}
    )
    assert canonical_bytes(streamed) == canonical_bytes(batch)


class TestCustomAlterLifetime:
    """Opaque lifetime rewrites: batch-only, rejected by streaming."""

    def query(self):
        # reverse time: outputs may precede inputs unboundedly
        return Query.source("logs").alter_lifetime(
            lambda le, re: 100 - le, lambda le, re: 101 - le
        )

    def test_streaming_rejects_at_construction(self):
        with pytest.raises(StreamingUnsupported, match="lifetime rewrite"):
            StreamingEngine(self.query())

    @settings(max_examples=40, deadline=None)
    @given(histories(max_n=15))
    def test_batch_defers_and_stays_size_invariant(self, rows):
        reference = Engine().run(
            self.query(), {"logs": list(rows)}, validate=False
        )
        chunked = Engine().run(
            self.query(), {"logs": list(rows)}, validate=False, batch_size=2
        )
        assert canonical_bytes(chunked) == canonical_bytes(reference)
        # the rewrite really ran: lifetimes are mirrored around t=100
        for row, e in zip(sorted(r["Time"] for r in rows),
                          sorted(reference, key=lambda e: -e.le)):
            assert e.le == 100 - row

    def test_custom_rewrite_downstream_of_group_apply(self):
        q = (
            Query.source("logs")
            .group_apply("UserId", lambda g: g.window(8).count(into="n"))
            .alter_lifetime(lambda le, re: -le, lambda le, re: -le + 1)
        )
        rows = [{"Time": t, "UserId": "u1", "StreamId": 0} for t in (0, 5, 9)]
        out = Engine().run(q, {"logs": rows}, validate=False)
        assert out  # deferred node drains at flush
        assert all(e.le <= 0 for e in out)
        with pytest.raises(StreamingUnsupported):
            StreamingEngine(q)


# ---------------------------------------------------------------------------
# Watermark arithmetic under parallel execution
# ---------------------------------------------------------------------------

from repro.runtime import ProcessExecutor, ThreadExecutor  # noqa: E402
from repro.runtime.dataflow import Dataflow  # noqa: E402
from repro.temporal.event import Event  # noqa: E402

batch_splits = st.lists(
    st.integers(min_value=1, max_value=10), min_size=0, max_size=8
)


def _watermark_trajectory(rows, plan_idx, splits, executor=None):
    """Drive the dataflow by hand in hypothesis-chosen batches and record
    ``(output_watermark, emitted)`` after every advance and the flush.

    A parallel GroupApply merges per-chain watermarks with a min-over-keys;
    the trajectory — not just the final output — must equal the serial one
    for any interleaving of keys across batch boundaries.
    """
    query = _portfolio()[plan_idx]
    flow = Dataflow(
        query.to_plan(), allow_unstreamable=True, executor=executor
    )
    events = [
        Event.point(r["Time"], {k: v for k, v in r.items() if k != "Time"})
        for r in rows
    ]
    trajectory = []
    try:
        i = 0
        for size in list(splits) + [len(events)]:  # remainder as last batch
            batch = events[i : i + size]
            i += len(batch)
            if not batch:
                continue
            flow.feed("logs", batch)
            flow.set_watermarks(batch[-1].le)
            out = flow.advance()
            trajectory.append((flow.output_watermark, len(out)))
        out = flow.flush()
        trajectory.append((flow.output_watermark, len(out)))
    finally:
        flow.close()
    return trajectory


@settings(max_examples=80, deadline=None)
@given(
    histories(max_n=25),
    st.integers(min_value=0, max_value=N_PLANS - 1),
    batch_splits,
)
def test_thread_watermark_trajectory_matches_serial(rows, plan_idx, splits):
    serial = _watermark_trajectory(rows, plan_idx, splits)
    marks = [w for w, _ in serial]
    assert marks == sorted(marks)  # watermarks never retreat
    threaded = _watermark_trajectory(
        rows, plan_idx, splits, executor=ThreadExecutor(max_workers=4)
    )
    assert threaded == serial


@pytest.mark.skipif(
    not ProcessExecutor.can_fork, reason="fork start method unavailable"
)
@settings(max_examples=15, deadline=None)
@given(
    histories(max_n=15),
    st.integers(min_value=0, max_value=N_PLANS - 1),
    batch_splits,
)
def test_sharded_watermark_trajectory_matches_serial(rows, plan_idx, splits):
    serial = _watermark_trajectory(rows, plan_idx, splits)
    forked = _watermark_trajectory(
        rows, plan_idx, splits, executor=ProcessExecutor(max_workers=2)
    )
    assert forked == serial


def test_feed_gives_every_same_named_source_the_whole_iterable():
    """``feed`` takes any iterable: a generator reaches every
    ``SourceNode`` of that name, exactly as a list does (the first node
    used to drain it and starve the rest)."""
    query = (
        Query.source("s")
        .where(lambda p: p["x"] > 0)
        .union(Query.source("s").where(lambda p: p["x"] < 9))
    )

    def run(make_feed):
        flow = Dataflow(query.to_plan())
        events = [Event.point(t, {"x": t + 1}) for t in range(3)]
        flow.feed("s", make_feed(events), watermark=2)
        return flow.advance() + flow.flush()

    from_list = run(list)
    assert len(from_list) == 6
    assert run(iter) == from_list
