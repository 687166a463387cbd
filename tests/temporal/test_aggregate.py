"""Unit tests for snapshot aggregation."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import Event, normalize
from repro.temporal.operators import AggSpec, SnapshotAggregate, sliding_window
from repro.temporal.time import MAX_TIME


def agg(events, *specs):
    return SnapshotAggregate([*specs]).apply(events)


class TestCount:
    def test_single_event(self):
        out = agg([Event(0, 10, {})], AggSpec("count", "n"))
        assert out == [Event(0, 10, {"n": 1})]

    def test_overlap_raises_count(self):
        out = agg([Event(0, 10, {}), Event(5, 15, {})], AggSpec("count", "n"))
        assert out == [
            Event(0, 5, {"n": 1}),
            Event(5, 10, {"n": 2}),
            Event(10, 15, {"n": 1}),
        ]

    def test_gap_emits_nothing(self):
        out = agg([Event(0, 2, {}), Event(5, 7, {})], AggSpec("count", "n"))
        assert out == [Event(0, 2, {"n": 1}), Event(5, 7, {"n": 1})]

    def test_windowed_running_count(self):
        # RunningClickCount shape: points + sliding window + count
        events = sliding_window(30).apply([Event.point(t, {}) for t in (0, 10, 40)])
        out = agg(events, AggSpec("count", "n"))
        assert normalize(out) == normalize(
            [
                Event(0, 10, {"n": 1}),
                Event(10, 30, {"n": 2}),
                Event(30, 40, {"n": 1}),
                Event(40, 70, {"n": 1}),
            ]
        )

    def test_simultaneous_events(self):
        out = agg([Event(0, 5, {}), Event(0, 5, {})], AggSpec("count", "n"))
        assert out == [Event(0, 5, {"n": 2})]

    def test_unbounded_lifetime(self):
        out = agg([Event(3, MAX_TIME, {})], AggSpec("count", "n"))
        assert out == [Event(3, MAX_TIME, {"n": 1})]

    def test_empty_input(self):
        assert agg([], AggSpec("count", "n")) == []


class TestNumericAggregates:
    def test_sum(self):
        events = [Event(0, 10, {"v": 3}), Event(5, 15, {"v": 4})]
        out = agg(events, AggSpec("sum", "s", "v"))
        assert out == [
            Event(0, 5, {"s": 3}),
            Event(5, 10, {"s": 7}),
            Event(10, 15, {"s": 4}),
        ]

    def test_avg(self):
        events = [Event(0, 10, {"v": 2}), Event(0, 10, {"v": 4})]
        out = agg(events, AggSpec("avg", "a", "v"))
        assert out == [Event(0, 10, {"a": 3.0})]

    def test_min_max_track_expiry(self):
        events = [Event(0, 10, {"v": 5}), Event(2, 6, {"v": 1})]
        out = agg(events, AggSpec("min", "lo", "v"), AggSpec("max", "hi", "v"))
        assert out == [
            Event(0, 2, {"lo": 5, "hi": 5}),
            Event(2, 6, {"lo": 1, "hi": 5}),
            Event(6, 10, {"lo": 5, "hi": 5}),
        ]

    def test_min_with_duplicate_values(self):
        events = [Event(0, 4, {"v": 1}), Event(0, 8, {"v": 1})]
        out = agg(events, AggSpec("min", "lo", "v"))
        # the snapshot changes at t=4 (one copy expires) but the value doesn't;
        # as a temporal relation the output is a single interval
        assert normalize(out) == [Event(0, 8, {"lo": 1})]

    def test_multiple_aggregates_in_one_pass(self):
        events = [Event(0, 10, {"v": 3})]
        out = agg(events, AggSpec("count", "n"), AggSpec("sum", "s", "v"))
        assert out == [Event(0, 10, {"n": 1, "s": 3})]


class TestAggSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            AggSpec("median", "m", "v")

    def test_sum_requires_column(self):
        with pytest.raises(ValueError):
            AggSpec("sum", "s")

    def test_no_specs_rejected(self):
        with pytest.raises(ValueError):
            SnapshotAggregate([])


# -- pane sweep ≡ per-event sweep ---------------------------------------------
#
# ``SnapshotAggregate`` keeps one pane per distinct RE: a folded partial
# for count/sum/avg/stddev, the payloads for anything else. The oracle is
# the operator body it replaced — one ``(re, seq, payload)`` heap entry
# per event, ``add``/``remove`` per payload — kept verbatim below; every
# ``sweep`` / ``on_watermark`` / ``on_flush`` call must release the same
# events in the same order, bit for bit, and leave the same ``next_wake``
# and ``watermark_out``.


class PerEventAggregate(SnapshotAggregate):
    """The per-event operator of the commit before the pane sweep."""

    def __init__(self, specs, states=None):
        super().__init__(specs)
        if states is not None:
            self._states = states
        self._pending = []  # min-heap of (re, seq, payload)
        self._seq = 0
        self._active = 0
        self._segment_start = None

    def _emit_segment(self, end):
        """Close the current constant-value segment at ``end``."""
        if self._active > 0 and self._segment_start is not None and end > self._segment_start:
            yield Event(self._segment_start, end, self._value_payload())
        self._segment_start = end

    def _drain_until(self, t):
        """Retire all expirations with RE <= t, emitting closed segments."""
        while self._pending and self._pending[0][0] <= t:
            re = self._pending[0][0]
            yield from self._emit_segment(re)
            while self._pending and self._pending[0][0] == re:
                _, _, payload = heapq.heappop(self._pending)
                for st in self._states:
                    st.remove(payload)
                self._active -= 1
        if self._active == 0:
            self._segment_start = None

    def sweep(self, les, res, payloads) -> list:
        out = []
        append = out.append
        pending = self._pending
        states = self._states
        heappop, heappush = heapq.heappop, heapq.heappush
        for le, re, payload in zip(les, res, payloads):
            while pending and pending[0][0] <= le:
                end = pending[0][0]
                if self._active > 0 and self._segment_start is not None and end > self._segment_start:
                    append(Event(self._segment_start, end, self._value_payload()))
                self._segment_start = end
                while pending and pending[0][0] == end:
                    _, _, expired = heappop(pending)
                    for st in states:
                        st.remove(expired)
                    self._active -= 1
            if self._active > 0 and self._segment_start is not None and le > self._segment_start:
                append(Event(self._segment_start, le, self._value_payload()))
            self._segment_start = le
            for st in states:
                st.add(payload)
            self._active += 1
            self._seq += 1
            heappush(pending, (re, self._seq, payload))
        return out

    def on_flush(self):
        yield from self._drain_until(MAX_TIME)

    def on_watermark(self, w):
        yield from self._drain_until(w)

    def watermark_out(self, w):
        if self._active > 0 and self._segment_start is not None:
            return min(w, self._segment_start)
        return w

    def next_wake(self):
        return self._pending[0][0] if self._pending else None


class _BeforeSum:
    """``SumAgg``/``AvgAgg``/``StdDevAgg`` as they were — one running
    total that every value goes through — plus the one fix they needed:
    back to exact zero when the snapshot empties. On a column of one
    numeric type the split accumulators must agree with these bit for
    bit (a mixed column is where they are, on purpose, more exact)."""

    zero = 0

    def __init__(self, column):
        self.column = column
        self.n = 0
        self.total = self.total_sq = self.zero

    def add(self, payload):
        v = payload[self.column]
        self.n += 1
        self.total += v
        self.total_sq += v * v

    def remove(self, payload):
        v = payload[self.column]
        self.n -= 1
        self.total -= v
        self.total_sq -= v * v
        if not self.n:
            self.total = self.total_sq = self.zero

    def value(self):
        return self.total


class _BeforeAvg(_BeforeSum):
    zero = 0.0

    def value(self):
        return self.total / self.n if self.n else None


class _BeforeStdDev(_BeforeAvg):
    def value(self):
        if self.n == 0:
            return None
        mean = self.total / self.n
        variance = max(0.0, self.total_sq / self.n - mean * mean)
        return variance**0.5


BEFORE = {"sum": _BeforeSum, "avg": _BeforeAvg, "stddev": _BeforeStdDev}

SPEC_LISTS = {
    "count": [AggSpec("count", "n")],
    "sum": [AggSpec("sum", "s", "v")],
    "avg": [AggSpec("avg", "a", "v")],
    "stddev": [AggSpec("stddev", "d", "v")],
    "count+sum": [AggSpec("count", "n"), AggSpec("sum", "s", "v")],
    "sum+avg+stddev": [
        AggSpec("sum", "s", "v"), AggSpec("avg", "a", "v"), AggSpec("stddev", "d", "w"),
    ],
    "max": [AggSpec("max", "m", "v")],
    "count+max": [AggSpec("count", "n"), AggSpec("max", "m", "v")],
    "sum+min+topk": [
        AggSpec("sum", "s", "w"), AggSpec("min", "lo", "v"), AggSpec("topk", "t", "v", k=2),
    ],
}

ints = st.integers(min_value=-50, max_value=50)
floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
VALUES = {
    "int": ints,
    # a few values that cancel badly, so residue shows if it is kept
    "float": st.one_of(floats, st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 0.0])),
    "mixed": st.one_of(ints, floats, st.booleans()),
}


def lifetimes(shape, t, spread):
    """One arrival at time ``t`` under each way a lifetime can be set."""
    if shape == "hop":  # every arrival inside one hop shares (le, re)
        le = -(-t // 4) * 4
        return le, le + 12
    if shape == "sliding":
        return t, t + 9
    if shape == "forever":
        return t, MAX_TIME
    if shape == "forever-hop":
        return -(-t // 4) * 4, MAX_TIME
    return t, t + 1 + spread  # raw intervals behind a shift: REs out of order


def histories(values):
    """``("sweep", les, res, payloads)`` and ``("watermark", w)`` steps:
    LEs never decrease (ties included) and never fall behind a watermark
    already given; a pane may be fed by several sweeps with watermarks
    between them."""
    arrival = st.tuples(
        st.sampled_from([0, 0, 0, 1, 1, 2, 5, 14]),  # time since the last one
        st.integers(min_value=0, max_value=12),  # a raw interval's length - 1
        values,
        values,
        # what follows: same batch, a new sweep call, a watermark between
        st.sampled_from(["", "", "", "cut", "cut", "watermark"]),
    )
    shapes = st.sampled_from(["hop", "sliding", "forever", "forever-hop", "raw"])

    def build(shape, arrivals):
        steps, batch, now = [], ([], [], []), 0
        for gap, spread, v, w, then in arrivals:
            now += gap
            le, re = lifetimes(shape, now, spread)
            for column, item in zip(batch, (le, re, {"v": v, "w": w})):
                column.append(item)
            now = le
            if then:
                steps.append(("sweep", *batch))
                batch = ([], [], [])
            if then == "watermark":
                now += spread // 5
                steps.append(("watermark", now))
        if batch[0]:
            steps.append(("sweep", *batch))
        return steps

    return st.builds(build, shapes, st.lists(arrival, min_size=1, max_size=40))


def exact(events):
    """Events with every value's type and bits: ``1`` is not ``1.0``."""
    return [
        (e.le, e.re, [(k, repr(v)) for k, v in e.payload.items()]) for e in events
    ]


def replay(op, steps):
    """What every call released and left behind, then the flush tail."""
    calls = []
    for step in steps:
        if step[0] == "sweep":
            out, probe = op.sweep(*step[1:]), step[1][-1]
        else:
            out, probe = list(op.on_watermark(step[1])), step[1]
        calls.append((exact(out), op.next_wake(), op.watermark_out(probe)))
    calls.append((exact(op.on_flush()), op.next_wake(), op.watermark_out(MAX_TIME)))
    return calls


@pytest.mark.parametrize("column", sorted(VALUES))
@pytest.mark.parametrize("specs", sorted(SPEC_LISTS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pane_sweep_equals_per_event_sweep(specs, column, data):
    steps = data.draw(histories(VALUES[column]))
    specs = SPEC_LISTS[specs]
    got = replay(SnapshotAggregate(specs), steps)
    want = replay(PerEventAggregate(specs), steps)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"call {i} of {len(want)}: {steps[i:i + 1]}"
    if column != "mixed":
        before = [
            BEFORE[s.kind](s.column) if s.kind in BEFORE else s.build() for s in specs
        ]
        assert got == replay(PerEventAggregate(specs, before), steps)


@settings(max_examples=60, deadline=None)
@given(steps=histories(VALUES["mixed"]))
def test_on_event_is_the_same_loop(steps):
    """``on_event`` per arrival ≡ one ``sweep`` per batch, payloads
    handed over or (count only) not built at all."""
    specs = SPEC_LISTS["count+sum"]
    whole, single = SnapshotAggregate(specs), SnapshotAggregate(specs)
    blind = SnapshotAggregate(SPEC_LISTS["count"])
    seeing = SnapshotAggregate(SPEC_LISTS["count"])
    for step in steps:
        if step[0] == "watermark":
            assert single.on_watermark(step[1]) == whole.on_watermark(step[1])
            assert blind.on_watermark(step[1]) == seeing.on_watermark(step[1])
            continue
        _, les, res, payloads = step
        one_by_one = []
        for le, re, payload in zip(les, res, payloads):
            one_by_one.extend(single.on_event(Event(le, re, payload)))
        assert exact(one_by_one) == exact(whole.sweep(les, res, payloads))
        assert blind.sweep(les, res, None) == seeing.sweep(les, res, payloads)
    assert exact(single.on_flush()) == exact(whole.on_flush())


class TestFloatResidue:
    """Accumulators return to exact zero once the floats that moved them
    have left, instead of carrying the drift for the rest of the run."""

    EVENTS = [
        Event(0, 10, {"v": 0.1}),
        Event(1, 11, {"v": 0.2}),
        Event(2, 12, {"v": 0.3}),
        Event(100, 110, {"v": 0.0}),
    ]

    @pytest.mark.parametrize(
        "kind, empty", [("sum", 0.0), ("avg", 0.0), ("stddev", 0.0)]
    )
    def test_value_after_an_empty_snapshot_is_exact(self, kind, empty):
        out = agg(self.EVENTS, AggSpec(kind, "x", "v"))
        assert out[-1] == Event(100, 110, {"x": empty})
        assert repr(out[-1].payload["x"]) == "0.0"

    def test_agrees_with_the_reference_evaluator(self):
        from repro.temporal.relation import ref_aggregate

        out = agg(self.EVENTS, AggSpec("sum", "s", "v"))
        ref = ref_aggregate(
            self.EVENTS, lambda active: sum(p["v"] for p in active), "s"
        )
        # the snapshot [100, 110) holds one value, so the reference is
        # exact there; while 0.1, 0.2 and 0.3 overlap only the order of
        # additions differs
        assert normalize(out)[-1] == ref[-1]
        assert [(e.le, e.re) for e in normalize(out)] == [(e.le, e.re) for e in ref]
        for got, want in zip(normalize(out), ref):
            assert got.payload["s"] == pytest.approx(want.payload["s"], abs=1e-12)

    def test_ints_stay_exact_beside_floats(self):
        """An int term never meets a float accumulator, so it leaves no
        rounding behind whatever floats shared the snapshot."""
        events = [
            Event(0, 5, {"v": 1e16}),
            Event(1, 9, {"v": 1}),
            Event(2, 9, {"v": 1}),
        ]
        out = agg(events, AggSpec("sum", "s", "v"))
        assert out[-1] == Event(5, 9, {"s": 2}) and type(out[-1].payload["s"]) is int
