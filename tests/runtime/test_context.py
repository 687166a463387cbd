"""Unit tests for RunContext: the one bundle of run-wide plumbing."""

import dataclasses
import random

import pytest

from repro.mapreduce import Cluster, DistributedFileSystem
from repro.obs import NULL_TRACER, Tracer
from repro.runtime import DEFAULT_CONTEXT, RunContext
from repro.analysis import PlanValidationError
from repro.temporal import Engine, Query, normalize
from repro.temporal.event import rows_to_events
from repro.temporal.streaming import StreamingEngine
from repro.timr import TiMR


FIVE_ROWS = [{"Time": t} for t in range(5)]


def impure_count():
    return Query.source("logs").where(lambda p: random.random() < 2).count(into="n")


class TestDefaults:
    def test_default_fields(self):
        ctx = RunContext()
        assert ctx.tracer is NULL_TRACER
        assert ctx.fault_policy is None
        assert ctx.quarantine is False
        assert ctx.max_restarts == 3
        assert ctx.checkpoint_dir is None
        assert ctx.resume is False
        assert ctx.verify_replay is True
        assert ctx.validate is True
        assert ctx.batch_size > 0

    def test_metrics_follows_tracer(self):
        tracer = Tracer()
        assert RunContext(tracer=tracer).metrics is tracer.metrics
        assert RunContext().metrics is NULL_TRACER.metrics

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunContext().max_restarts = 9


class TestDerive:
    def test_derive_copies_with_changes(self):
        base = RunContext(batch_size=7)
        derived = base.derive(max_restarts=7)
        assert derived.max_restarts == 7
        assert derived.batch_size == 7
        assert base.max_restarts == 3  # original untouched


class TestThreading:
    """One context reaches every layer without per-layer kwargs."""

    def test_engine_reads_context(self):
        tracer = Tracer()
        engine = Engine(context=RunContext(tracer=tracer))
        assert engine.context.tracer is tracer
        engine.run(
            Query.source("s").where(lambda p: True),
            {"s": [{"Time": 1}]},
            validate=False,
        )
        assert any(s.name == "engine.run" for s in tracer.finished())

    def test_streaming_engine_reads_context(self):
        tracer = Tracer()
        stream = StreamingEngine(
            Query.source("s").where(lambda p: True),
            context=RunContext(tracer=tracer),
        )
        assert stream.context.tracer is tracer

    def test_cluster_resolves_context_fields(self):
        ctx = RunContext(max_restarts=9, quarantine=True)
        cluster = Cluster(context=ctx)
        assert cluster.context is ctx

    def test_no_context_means_the_shared_default(self):
        stream = StreamingEngine(Query.source("s").where(lambda p: True))
        for layer in (Engine(), Cluster(), stream):
            assert layer.context is DEFAULT_CONTEXT

    def test_timr_inherits_cluster_context(self):
        tracer = Tracer()
        fs = DistributedFileSystem()
        fs.write("s", [{"Time": t} for t in range(4)])
        cluster = Cluster(fs=fs, context=RunContext(tracer=tracer))
        timr = TiMR(cluster)
        timr.run(Query.source("s").count(into="n"), num_partitions=1)
        names = {s.name for s in tracer.finished()}
        # one tracer reaches TiMR, the cluster and every embedded engine
        assert {"timr.job", "cluster.stage", "engine.run"} <= names
        # the cluster's context is read at run time, not copied
        later = Tracer()
        cluster.context = cluster.context.derive(tracer=later)
        timr.run(Query.source("s").count(into="n"), num_partitions=1)
        assert any(s.name == "timr.job" for s in later.finished())

    def test_engine_validate_follows_context(self):
        # the analyzer refuses the impure call unless the context
        # turns validation off
        with pytest.raises(PlanValidationError, match="impure-call"):
            Engine().run(impure_count(), {"logs": FIVE_ROWS})
        ctx = RunContext(validate=False)
        out = Engine(context=ctx).run(impure_count(), {"logs": FIVE_ROWS})
        assert len(out) == 5

    def test_timr_validate_follows_context(self):
        # TiMR.run(validate=None) defers to the cluster's context, as
        # Engine.run does; an explicit argument still wins
        fs = DistributedFileSystem()
        fs.write("logs", FIVE_ROWS)
        with pytest.raises(PlanValidationError, match="impure-call"):
            TiMR(Cluster(fs=fs)).run(impure_count())
        ctx = RunContext(validate=False)
        expected = Engine(context=ctx).run(impure_count(), {"logs": FIVE_ROWS})
        result = TiMR(Cluster(fs=fs, context=ctx)).run(impure_count())
        assert normalize(rows_to_events(result.output_rows())) == normalize(expected)
        with pytest.raises(PlanValidationError):
            TiMR(Cluster(fs=fs, context=ctx)).run(impure_count(), validate=True)
