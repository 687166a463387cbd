"""The `batch.payload-mutation` rule: events share their payload
mappings, so plan callables must not write into them (docs/LINTING.md)."""

from repro.analysis import analyze
from repro.analysis.callables import payload_param_mutations
from repro.temporal import Query, run_query

COLS = ("StreamId", "UserId", "AdId")


def src():
    return Query.source("logs", COLS)


def rule_ids(query):
    return analyze(query).rule_ids()


class TestDetector:
    def test_subscript_assignment(self):
        def fn(p):
            p["x"] = 1
            return p

        found = payload_param_mutations(fn, (0,))
        assert any("assigns into" in desc for _n, desc in found)

    def test_subscript_deletion(self):
        def fn(p):
            del p["x"]
            return p

        found = payload_param_mutations(fn, (0,))
        assert any("deletes a key" in desc for _n, desc in found)

    def test_dict_mutator_methods(self):
        def fn(p):
            p.update({"x": 1})
            p.setdefault("y", 2)
            p.pop("z", None)
            return p

        descs = [desc for _n, desc in payload_param_mutations(fn, (0,))]
        assert any(".update()" in d for d in descs)
        assert any(".setdefault()" in d for d in descs)
        assert any(".pop()" in d for d in descs)

    def test_clean_callable_is_silent(self):
        def fn(p):
            return {**p, "x": p.get("y", 0) + 1}

        assert payload_param_mutations(fn, (0,)) == []

    def test_only_watched_params_are_flagged(self):
        def fn(state, p):
            state["n"] = state.get("n", 0) + 1
            return p

        # state (index 0) mutates, but only index 1 is watched
        assert payload_param_mutations(fn, (1,)) == []
        assert payload_param_mutations(fn, (0,)) != []

    def test_nested_lambda_capture(self):
        def fn(p):
            write = lambda: p.update({"x": 1})  # noqa: E731
            write()
            return p

        found = payload_param_mutations(fn, (0,))
        assert any(".update()" in desc for _n, desc in found)

    def test_uninspectable_callable(self):
        assert payload_param_mutations(len, (0,)) == []


class TestRule:
    def test_why_the_rule_exists_shared_source_events(self):
        """Two branches over one source read the same events: a
        projection that writes into its argument rewrites what its
        sibling branch filters, and half the output silently vanishes.
        The rule flags exactly that callable."""

        def bad(p):
            p["x"] = -1
            return p

        rows = [{"Time": t, "x": t + 1} for t in range(3)]
        source = Query.source("s")

        def both_branches(projection):
            return source.project(projection).union(
                source.where(lambda p: p["x"] > 0)
            )

        clean = run_query(both_branches(lambda p: {**p, "x": -1}), {"s": rows})
        assert len(clean) == 6
        corrupted = run_query(both_branches(bad), {"s": rows})
        assert len(corrupted) == 3
        assert all(e.payload["x"] == -1 for e in corrupted)
        assert "batch.payload-mutation" in rule_ids(both_branches(bad))

    def test_mutating_projection_flagged(self):
        def bad(p):
            p["Derived"] = p["AdId"]
            return p

        report = analyze(src().project(bad, columns=COLS + ("Derived",)))
        assert "batch.payload-mutation" in report.rule_ids()
        # warning severity: the pre-flight gate must not block
        assert not report.errors

    def test_clean_projection_silent(self):
        q = src().project(
            lambda p: {**p, "Derived": p["AdId"]},
            columns=COLS + ("Derived",),
        )
        assert "batch.payload-mutation" not in rule_ids(q)

    def test_mutating_predicate_flagged(self):
        q = src().where(lambda p: p.pop("AdId", None) is not None)
        assert "batch.payload-mutation" in rule_ids(q)

    def test_mutating_join_residual_flagged(self):
        def residual(lp, rp):
            rp["seen"] = True
            return True

        q = src().temporal_join(
            Query.source("clicks", COLS), on=["UserId"], residual=residual
        )
        assert "batch.payload-mutation" in rule_ids(q)

    def test_scan_state_mutation_exempt(self):
        def fold(state, p, le):
            state["n"] = state.get("n", 0) + 1
            return [{"UserId": p["UserId"], "n": state["n"]}]

        q = src().udo_scan(dict, fold)
        assert "batch.payload-mutation" not in rule_ids(q)

    def test_scan_payload_mutation_flagged(self):
        def fold(state, p, le):
            p["n"] = 1
            return [p]

        q = src().udo_scan(dict, fold)
        assert "batch.payload-mutation" in rule_ids(q)

    def test_suppressible_with_ignore_comment(self):
        q = src().where(lambda p: p.pop("AdId", None) is not None)  # repro: ignore[batch.payload-mutation]
        assert "batch.payload-mutation" not in rule_ids(q)
