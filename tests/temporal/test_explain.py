"""Tests for the explain diagnostics."""


from repro.temporal import Query, explain, explain_timr
from repro.temporal.time import hours


def click_count():
    return (
        Query.source("logs", columns=("StreamId", "AdId"))
        .where(lambda p: p["StreamId"] == 1)
        .group_apply("AdId", lambda g: g.window(hours(6)).count(into="n"))
    )


class TestExplain:
    def test_mentions_sources_and_columns(self):
        report = explain(click_count())
        assert "sources: ['logs']" in report
        assert "AdId" in report and "n" in report

    def test_extent_reported(self):
        report = explain(click_count())
        assert f"past={hours(6)}" in report
        assert "temporal partitioning eligible" in report

    def test_unbounded_extent(self):
        q = Query.source("s").count_window(3)
        report = explain(q)
        assert "unbounded" in report

    def test_each_side_reported(self):
        report = explain(Query.source("s").udo_scan(dict, lambda s, p, le: [p]))
        assert "past=unbounded future=0 ticks (no temporal partitioning)" in report
        assert "streaming: supported" in report

    def test_group_apply_over_count_window_streams(self):
        q = Query.source("s").group_apply(
            "k", lambda g: g.count_window(2).count(into="n")
        )
        report = explain(q)
        assert "past=unbounded future=0 ticks" in report
        assert "streaming: supported" in report

    def test_streaming_supported(self):
        assert "streaming: supported" in explain(click_count())

    def test_streaming_unsupported_names_offender(self):
        q = Query.source("s").alter_lifetime(
            lambda le, re: le, lambda le, re: re, label="weird"
        )
        report = explain(q)
        assert "unsupported" in report and "weird" in report
        grouped = explain(
            Query.source("s").group_apply(
                "k",
                lambda g: g.alter_lifetime(
                    lambda le, re: le, lambda le, re: re, label="weird"
                ).count(into="n"),
            )
        )
        assert "past=unbounded future=unbounded" in grouped
        assert "streaming: unsupported (unbounded future extent in 'weird')" in grouped

    def test_constraints_listed(self):
        report = explain(click_count())
        assert "key ⊆ {'AdId'}" in report

    def test_stateless_plan(self):
        report = explain(Query.source("s").where(lambda p: True))
        assert "fully stateless" in report

    def test_unknown_columns(self):
        report = explain(Query.source("s").project(lambda p: p))
        assert "(unknown)" in report


class TestExplainLint:
    def test_clean_plan_has_lint_section(self):
        report = explain(click_count())
        assert "LINT" in report
        assert "no findings" in report

    def test_findings_listed(self):
        q = Query.source("s", columns=("A",)).where(lambda p: p["B"] == 1)
        report = explain(q)
        assert "LINT" in report
        assert "schema.unknown-column" in report
        assert "no findings" not in report


class TestExplainPhysicalPath:
    def test_section_names_the_one_format_once(self):
        report = explain(click_count())
        line = (
            "  rows (List[Event]) between operators; lifetimes and payloads "
            "read off them inside a keyed window→aggregate sweep"
        )
        section = report.split("PHYSICAL PATH\n")[1]
        assert section.startswith(line + "\n")
        assert report.count("List[Event]") == 1
        # no per-operator table: only a GroupApply adds lines of its own
        assert "where" not in section
        assert "scheduling: the driver's local wave" in section

    def test_group_apply_names_its_per_key_path(self):
        """No silent physical path: a window→aggregate that runs as one
        keyed sweep, a chain per key otherwise, and how key columns are
        attached, are all named."""
        keyed = explain(
            Query.source("s").group_apply(
                "UserId", lambda g: g.window(hours(1)).sum("Clicks")
            )
        )
        assert "per key: one keyed sweep" in keyed
        assert f"window({hours(1)}): computed inside the keyed sweep" in keyed
        assert "key columns attached to its payloads in place" in keyed
        chained = explain(
            Query.source("s").group_apply(
                "UserId",
                lambda g: g.window(5).shift(1).count().where(lambda p: True),
            )
        )
        assert "per key: one flat chain" in chained
        assert "keyed sweep" not in chained
        assert "where: on_batch per stage; key columns attached to a copy" in chained
        union = explain(
            Query.source("s").group_apply(
                "UserId", lambda g: g.window(5).count().union(g.window(7).count())
            )
        )
        assert "per key: one flat chain" in union
        assert "one scheduler per key" not in union
        assert (
            "union: both inputs merged, right side first at ties; "
            "key columns attached to a copy" in union
        )
        nested = explain(
            Query.source("s").group_apply(
                "UserId",
                lambda g: g.group_apply("StreamId", lambda gg: gg.window(5).count()),
            )
        )
        # one form: the outer key's flat chain holds the inner scheduler
        assert "per key: one flat chain" in nested
        assert "group-apply: a nested GroupApply: one scheduler per key" in nested
        assert "per key: one keyed sweep" in nested  # the inner GroupApply

    def test_group_apply_names_what_its_aggregate_keeps_per_pane(self):
        """What a window→aggregate keeps per pane — folded partials or
        kept payloads — is named on the aggregate's line."""
        from repro.temporal.operators import AggSpec

        def report(per_key):
            return explain(Query.source("s").group_apply("UserId", per_key))

        partials = report(
            lambda g: g.hopping_window(hours(12), hours(1)).aggregate(
                AggSpec("count", "n"), AggSpec("sum", "s", "Clicks")
            )
        )
        assert f"hop({hours(12)},{hours(1)}): computed inside the keyed" in partials
        assert (
            "aggregate: folded per key in the keyed sweep, "
            "pane partials (count, sum); key columns" in partials
        )
        assert "no payload column" not in partials
        count_only = report(lambda g: g.hopping_window(hours(6), 900).count())
        assert (
            "keyed sweep (count only: no payload column built), "
            "pane partials (count)" in count_only
        )
        lists = report(lambda g: g.window(5).max("Clicks"))
        assert "pane payload lists (max)" in lists
        mixed = report(
            lambda g: g.window(5).shift(1).aggregate(
                AggSpec("count", "n"), AggSpec("max", "m", "Clicks")
            ).where(lambda p: True)
        )
        assert (
            "aggregate: on_batch per stage, pane partials (count), "
            "pane payload lists (max)\n" in mixed
        )


class TestExplainTraceMetrics:
    def _stats(self):
        from repro.temporal import Engine

        engine = Engine()
        rows = [
            {"Time": t, "StreamId": 1, "AdId": f"a{t % 2}"} for t in range(10)
        ]
        engine.run(click_count(), {"logs": rows})
        return engine.last_stats

    def test_absent_without_stats(self):
        assert "TRACE/METRICS" not in explain(click_count())

    def test_section_with_stats(self):
        report = explain(click_count(), stats=self._stats())
        assert "TRACE/METRICS" in report
        assert "input events: 10" in report
        assert "events/sec" in report
        assert "operator events (plan-path keyed):" in report
        # plan-path keys: topological index + op name
        assert ".where" in report and ".group-apply" in report

    def test_explain_timr_passthrough(self):
        report = explain_timr(click_count(), stats=self._stats())
        assert "TRACE/METRICS" in report
        assert "TIMR ANNOTATION" in report
        # section order: trace/metrics belongs to explain(), before TiMR's
        assert report.index("TRACE/METRICS") < report.index("TIMR ANNOTATION")


class TestExplainTiMR:
    def test_optimizer_choice_reported(self):
        report = explain_timr(click_count())
        assert "optimizer chose" in report
        assert "AdId" in report
        assert "M-R stages" in report

    def test_folding_reported(self):
        report = explain_timr(click_count())
        assert "folded into map phases" in report
        assert "logs*" in report  # the Where folded onto the source read

    def test_hints_skip_optimizer(self):
        q = (
            Query.source("logs")
            .exchange("AdId")
            .group_apply("AdId", lambda g: g.count(into="n"))
        )
        report = explain_timr(q)
        assert "hints present" in report
