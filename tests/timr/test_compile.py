"""Unit tests for fragment compilation: reducers, folding, bindings."""

import pytest

from repro.temporal import Query
from repro.timr import SRC_COLUMN, compile_fragment, make_fragments, make_reducer
from repro.timr.compile import (
    fold_stateless_fragments,
    kernel_map_fn,
    stateless_kernel,
)


def single_fragment(query, name="j"):
    frags = make_fragments(query.to_plan(), name)
    assert len(frags) == 1
    return frags[0]


def row_fn(query):
    """The query's kernel behind the single-input map function, handed
    one row at a time (a partition of one)."""
    map_fn = kernel_map_fn(stateless_kernel(query.to_plan()))
    return lambda row: map_fn([row])


class TestStatelessRowTransform:
    def test_filter_chain(self):
        q = Query.source("s").where(lambda p: p["v"] > 1)
        kernel = stateless_kernel(q.to_plan())
        payload = {"v": 2}
        le, re, out = kernel(0, 1, payload)
        assert (le, re) == (0, 1) and out is payload  # a Where copies nothing
        assert kernel(0, 1, {"v": 0}) is None
        fn = kernel_map_fn(kernel)
        assert fn([{"Time": 0, "v": 2}]) == [{"Time": 0, "v": 2, "_re": 1}]
        assert fn([{"Time": 0, "v": 0}]) == []
        # a partition maps row by row, in order
        rows = [{"Time": t, "v": t % 3} for t in range(6)]
        assert fn(rows) == [out for row in rows for out in fn([row])]

    def test_project_chain(self):
        q = Query.source("s").project(lambda p: {"w": p["v"] * 2})
        payload = {"v": 3}
        assert stateless_kernel(q.to_plan())(5, 6, payload) == (5, 6, {"w": 6})
        assert payload == {"v": 3}
        out = row_fn(q)({"Time": 5, "v": 3})
        assert out[0]["w"] == 6 and out[0]["Time"] == 5

    def test_window_sets_re(self):
        q = Query.source("s").window(100)
        assert stateless_kernel(q.to_plan())(5, 6, {}) == (5, 105, {})
        assert row_fn(q)({"Time": 5})[0]["_re"] == 105

    def test_stacked_chain(self):
        q = Query.source("s").where(lambda p: True).window(10).shift(2)
        assert stateless_kernel(q.to_plan())(0, 1, {}) == (2, 12, {})
        out = row_fn(q)({"Time": 0})
        assert out[0]["Time"] == 2 and out[0]["_re"] == 12

    def test_agrees_with_the_operator_path(self):
        """Rows, column order included, are what one event through each
        operator's ``on_batch`` and back to a row would give."""
        from repro.temporal.event import events_to_rows, rows_to_events

        q = (
            Query.source("s")
            .where(lambda p: p["v"] % 3 != 0)
            .project(lambda p: {"w": p["v"], **p})
            .window(10)
            .shift(-2, -7)
            .where(lambda p: p["w"] != 4)
        )
        fn = row_fn(q)
        ops, node = [], q.to_plan()
        while node.inputs:
            ops.insert(0, node.make_operator())
            node = node.inputs[0]

        def reference(row):
            events = rows_to_events([row])
            for op in ops:
                events = [out for e in events for out in op.on_batch([e])]
            return events_to_rows(events)

        rows = [{"v": v, "Time": 3 * v, "k": "x"} for v in range(12)]
        rows += [{"Time": 7, "_re": 7 + span, "v": 5} for span in (1, 4, 50)]
        for row in rows:
            given = dict(row)
            got, want = fn(given), reference(dict(row))
            assert got == want and [list(r) for r in got] == [list(r) for r in want]
            assert given == row and list(given) == list(row)  # input row untouched
        assert [len(fn(dict(r))) for r in rows].count(0) >= 4  # filtered rows

    def test_empty_lifetimes_vanish_and_bad_rows_raise(self):
        q = Query.source("s").shift(0, -5)
        kernel, fn = stateless_kernel(q.to_plan()), row_fn(q)
        assert kernel(0, 5, {}) is None  # [0, 0) after the shift
        assert kernel(0, 6, {}) == (0, 1, {})
        assert fn({"Time": 0, "_re": 5}) == []
        assert fn({"Time": 0, "_re": 6}) == [{"Time": 0, "_re": 1}]
        # the row decode validates; the kernel trusts what it is handed
        with pytest.raises(ValueError, match=r"empty or inverted lifetime \[4, 4\)"):
            fn({"Time": 4, "_re": 4})
        with pytest.raises(KeyError, match="Time"):
            fn({"_re": 4})

    def test_stateful_plan_not_foldable(self):
        q = Query.source("s").count(into="n")
        assert stateless_kernel(q.to_plan()) is None

    def test_group_apply_not_foldable(self):
        q = Query.source("s").group_apply("k", lambda g: g.count(into="n"))
        assert stateless_kernel(q.to_plan()) is None


class TestFolding:
    def test_stateless_fragment_folded_into_consumer(self):
        q = (
            Query.source("s")
            .where(lambda p: p["v"] > 0)
            .exchange("k")
            .group_apply("k", lambda g: g.count(into="n"))
        )
        frags = make_fragments(q.to_plan(), "j")
        assert len(frags) == 2  # the Where below the exchange is its own fragment
        kept, plans = fold_stateless_fragments(frags)
        assert len(kept) == 1  # ...but it folds into the consumer's map phase
        bindings, _ = plans[kept[0].output_name]
        assert bindings[0].physical == "s"
        assert bindings[0].transform is not None

    def test_fold_with_optimizer_plan(self):
        from repro.timr import Statistics, annotate_plan

        q = (
            Query.source("s")
            .where(lambda p: p["v"] > 0)
            .group_apply("k", lambda g: g.count(into="n"))
        )
        annotated = annotate_plan(q.to_plan(), Statistics(source_rows={"s": 1000}))
        frags = make_fragments(annotated.plan, "j")
        kept, plans = fold_stateless_fragments(frags)
        assert len(kept) == 1
        bindings, extent = plans[kept[0].output_name]
        assert bindings[0].physical == "s"
        assert bindings[0].transform is not None
        # the transform is the folded Where, as a kernel
        assert bindings[0].transform(0, 1, {"v": 1}) == (0, 1, {"v": 1})
        assert bindings[0].transform(0, 1, {"v": -1}) is None

    def test_folded_extent_accumulates(self):
        from repro.timr import Statistics, annotate_plan

        q = Query.source("s").where(lambda p: True).window(50).count(into="n")
        annotated = annotate_plan(q.to_plan(), Statistics(source_rows={"s": 1000}))
        frags = make_fragments(annotated.plan, "j")
        kept, plans = fold_stateless_fragments(frags)
        _, extent = plans[kept[-1].output_name]
        assert extent is not None and extent[0] >= 50

    def test_multi_consumer_fragment_not_folded(self):
        # hand-built fragment DAG: one stateless producer, two consumers
        from repro.timr import Fragment

        producer = Fragment(
            index=0,
            root=Query.source("s").where(lambda p: True).to_plan(),
            key=(),
            input_names=["s"],
            output_name="mid",
            extent=(0, 0),
        )
        consumers = [
            Fragment(
                index=i + 1,
                root=Query.source("mid")
                .group_apply("k", lambda g: g.count(into="n"))
                .to_plan(),
                key=("k",),
                input_names=["mid"],
                output_name=f"out{i}",
                extent=(0, 0),
            )
            for i in range(2)
        ]
        kept, _ = fold_stateless_fragments([producer] + consumers)
        # duplicating the producer's work into two map phases is refused:
        # the shared producer stays a materialized stage
        assert len(kept) == 3


class TestMakeReducer:
    def test_reducer_runs_fragment_plan(self):
        q = Query.source("s").group_apply("k", lambda g: g.window(10).count(into="n"))
        frag = single_fragment(
            Query.source("s").exchange("k").group_apply(
                "k", lambda g: g.window(10).count(into="n")
            )
        )
        reducer = make_reducer(frag)
        rows = [{"Time": 0, "k": "x"}, {"Time": 5, "k": "x"}]
        out = reducer(0, rows)
        assert any(r["n"] == 2 for r in out)

    def test_reducer_is_pure(self):
        frag = single_fragment(
            Query.source("s").exchange("k").group_apply(
                "k", lambda g: g.count(into="n")
            )
        )
        reducer = make_reducer(frag)
        rows = [{"Time": 0, "k": "x"}]
        assert reducer(0, list(rows)) == reducer(0, list(rows))

    def test_multi_input_reducer_splits_by_src(self):
        a = Query.source("a").exchange("k")
        b = Query.source("b").exchange("k")
        q = a.temporal_join(b.window(100), on="k")
        frags = make_fragments(q.to_plan(), "j")
        frag = frags[-1]
        reducer = make_reducer(frag)
        rows = [
            {"Time": 0, "k": 1, SRC_COLUMN: "b"},
            {"Time": 5, "k": 1, SRC_COLUMN: "a"},
        ]
        out = reducer(0, rows)
        assert len(out) == 1
        assert out[0]["Time"] == 5

    def test_interval_events_roundtrip_between_stages(self):
        # stage 1 emits interval events (windowed counts); stage 2 consumes
        q1 = Query.source("s").exchange("k").group_apply(
            "k", lambda g: g.window(100).count(into="n")
        )
        frag1 = single_fragment(q1)
        out_rows = make_reducer(frag1)(0, [{"Time": 0, "k": "x"}])
        assert out_rows[0]["_re"] == 100
        # stage 2: a max over the interval events
        q2 = Query.source("mid").exchange("k").group_apply(
            "k", lambda g: g.max("n", into="peak")
        )
        frag2 = single_fragment(q2)
        out2 = make_reducer(frag2)(0, out_rows)
        assert out2[0]["peak"] == 1
        assert out2[0]["_re"] == 100  # lifetime preserved through the stage


class TestCompileFragment:
    def test_payload_partitioned_stage(self):
        frag = single_fragment(
            Query.source("s").exchange("k").group_apply(
                "k", lambda g: g.count(into="n")
            )
        )
        compiled = compile_fragment(frag, num_partitions=8)
        assert compiled.stage.num_partitions == 8
        assert compiled.inputs == {"s": None}  # one plain input: untagged, unmapped

    def test_keyless_stage_single_partition(self):
        frag = single_fragment(Query.source("s").window(10).count(into="n"))
        compiled = compile_fragment(frag, num_partitions=8)
        assert compiled.stage.num_partitions == 1

    def test_span_layout_on_keyed_fragment_rejected(self):
        from repro.timr import plan_spans

        frag = single_fragment(
            Query.source("s").exchange("k").group_apply(
                "k", lambda g: g.count(into="n")
            )
        )
        layout = plan_spans(0, 100, 10, (0, 0))
        with pytest.raises(ValueError):
            compile_fragment(frag, 4, span_layout=layout)
