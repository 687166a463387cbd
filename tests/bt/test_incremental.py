"""Tests for online SGD logistic regression and the ScanUDO operator."""

import numpy as np
import pytest

from repro.bt import Example, example_events
from repro.bt.incremental import IncrementalLogisticRegression, incremental_model_query
from repro.temporal import Event, Query, run_query
from repro.temporal.operators import ScanUDO


class TestScanUDO:
    def test_running_sum(self):
        def step(state, payload, le):
            state["total"] = state.get("total", 0) + payload["v"]
            yield {"total": state["total"]}

        op = ScanUDO(dict, step)
        out = op.apply([Event.point(t, {"v": t}) for t in (1, 2, 3)])
        assert [e.payload["total"] for e in out] == [1, 3, 6]

    def test_state_fresh_per_instance(self):
        def step(state, payload, le):
            state["n"] = state.get("n", 0) + 1
            yield {"n": state["n"]}

        events = [Event.point(0, {})]
        a = ScanUDO(dict, step).apply(list(events))
        b = ScanUDO(dict, step).apply(list(events))
        assert a == b  # no cross-run leakage

    def test_query_builder_udo_scan(self):
        q = Query.source("s").udo_scan(
            dict, lambda st, p, le: [{"seen": st.setdefault("n", 0) or 0}]
        )
        out = run_query(q, {"s": [{"Time": 1}]})
        assert len(out) == 1 and out[0].is_point

    def test_selective_emission(self):
        def step(state, payload, le):
            state["n"] = state.get("n", 0) + 1
            if state["n"] % 2 == 0:
                yield {"n": state["n"]}

        op = ScanUDO(dict, step)
        out = op.apply([Event.point(t, {}) for t in range(5)])
        assert [e.payload["n"] for e in out] == [2, 4]


def make_examples(n, seed=0, p_with=0.6, p_without=0.05):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        has_kw = rng.random() < 0.5
        y = int(rng.random() < (p_with if has_kw else p_without))
        out.append(
            Example(
                user=f"u{i}", ad="laptop", time=i * 60, y=y,
                features={"dell": 1.0} if has_kw else {},
            )
        )
    return out


class TestIncrementalLogisticRegression:
    def test_learns_positive_signal(self):
        model = IncrementalLogisticRegression(learning_rate=0.3)
        for ex in make_examples(3000):
            model.observe(ex.features, ex.y)
        assert model.weights["dell"] > 0.5
        assert model.predict({"dell": 1.0}) > model.predict({})

    def test_positive_weight_counters_imbalance(self):
        plain = IncrementalLogisticRegression(learning_rate=0.2)
        weighted = IncrementalLogisticRegression(learning_rate=0.2, positive_weight=5.0)
        for ex in make_examples(2000, p_with=0.2, p_without=0.01):
            plain.observe(ex.features, ex.y)
            weighted.observe(ex.features, ex.y)
        assert weighted.predict({"dell": 1.0}) > plain.predict({"dell": 1.0})

    def test_snapshot_shape(self):
        model = IncrementalLogisticRegression()
        model.observe({"a": 1.0}, 1)
        snap = model.snapshot()
        assert set(snap) == {"w0", "w", "examples"}
        assert snap["examples"] == 1

    def test_extreme_scores_clamped(self):
        model = IncrementalLogisticRegression()
        model.weights["x"] = 1000.0
        assert 0.0 < model.predict({"x": 100.0}) <= 1.0

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            IncrementalLogisticRegression(learning_rate=0)

    def test_tracks_batch_model_directionally(self):
        """Online SGD should agree with batch IRLS about the signal sign."""
        from repro.bt import ModelTrainer

        examples = make_examples(2500, seed=3)
        online = IncrementalLogisticRegression(learning_rate=0.3)
        for ex in examples:
            online.observe(ex.features, ex.y)
        batch = ModelTrainer(seed=1).fit("laptop", examples, lambda a, f: f)
        idx = batch.feature_index["dell"]
        assert np.sign(online.weights["dell"]) == np.sign(batch.weights[idx])


class TestIncrementalModelQuery:
    def test_emits_snapshots_periodically(self):
        examples = make_examples(500)
        q = incremental_model_query(Query.source("ex"), emit_every=100)
        out = run_query(q, {"ex": example_events(examples)})
        assert len(out) == 5
        assert [e.payload["examples"] for e in out] == [100, 200, 300, 400, 500]
        assert all(e.payload["AdId"] == "laptop" for e in out)

    def test_models_improve_over_stream(self):
        examples = make_examples(2000, seed=7)
        q = incremental_model_query(Query.source("ex"), emit_every=200)
        out = run_query(q, {"ex": example_events(examples)})
        first, last = out[0].payload, out[-1].payload
        assert last["w"].get("dell", 0.0) > first["w"].get("dell", 0.0)

    def test_streams_incrementally(self):
        from repro.temporal import StreamingEngine

        examples = make_examples(300)
        q = incremental_model_query(Query.source("ex"), emit_every=50)
        stream = StreamingEngine(q)
        live = []
        for ev in example_events(examples):
            live.extend(stream.push("ex", ev))
        live.extend(stream.flush())
        assert len(live) == 6
