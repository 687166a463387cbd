"""GC-quiet batch runs (docs/EXECUTION.md, "GC-quiet batch runs").

``Engine.run`` and ``TiMR.run`` pause CPython's cyclic collector through
``RunContext.quiet()``, under every executor, and put the caller's
collector state back on every exit path; the push path is left alone.
Because nothing collects cycles during a run, ``Dataflow.close()`` has
to sever the runtime's own: the run's graph must die by refcount.
"""

import contextlib
import gc
import sys
import threading
import weakref
from unittest import mock

import pytest

from repro.mapreduce import Cluster, CostModel, DistributedFileSystem
from repro.runtime import RunContext
from repro.runtime import dataflow
from repro.runtime.dataflow import Dataflow
from repro.temporal import Engine, Query, StreamingEngine
from repro.temporal import engine as engine_module
from repro.temporal.event import Event
from repro.timr import TiMR

SERIAL = RunContext(executor="serial")


def make_rows(n=5000, users=16):
    return [{"Time": t, "UserId": t % users, "V": t % 3} for t in range(n)]


def probed_query(seen, fail_at=None):
    """A sliding sum per user behind a filter that records whether the
    collector is on whenever the run evaluates it (and can blow up)."""

    def probe(payload):
        seen.append(gc.isenabled())
        if fail_at is not None and len(seen) > fail_at:
            raise RuntimeError("poison row")
        return True

    return (
        Query.source("logs", ("UserId", "V"))
        .where(probe)
        .group_apply("UserId", lambda g: g.window(50).sum("V", into="s"))
    )


@contextlib.contextmanager
def collector(enabled):
    """Run the body with the collector in a known state; restore after."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


@contextlib.contextmanager
def collection_starts():
    """Every collection the interpreter starts inside the body."""
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        yield starts
    finally:
        gc.callbacks.remove(on_gc)


def during(owner, name, starts):
    """Patch ``owner.name`` to note how many collections started while
    it ran — the part of a run that sits wholly inside the section."""
    original = getattr(owner, name)
    inside = []

    def wrapper(*args, **kwargs):
        before = len(starts)
        try:
            return original(*args, **kwargs)
        finally:
            inside.append(len(starts) - before)

    return mock.patch.object(owner, name, wrapper), inside


# -- collector state is the caller's again, on every exit path ---------------


@pytest.mark.parametrize("enabled", [True, False])
def test_engine_run_restores_the_callers_state(enabled):
    seen = []
    with collector(enabled):
        out = Engine(context=SERIAL).run(
            probed_query(seen), {"logs": make_rows()}, validate=False
        )
        assert gc.isenabled() is enabled
    assert out and seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
def test_a_run_that_raises_mid_feed_restores_it_too(enabled):
    seen = []
    engine = Engine(context=SERIAL)
    with collector(enabled):
        with pytest.raises(RuntimeError, match="poison row"):
            engine.run(
                probed_query(seen, fail_at=3000),
                {"logs": make_rows()},
                validate=False,
            )
        assert gc.isenabled() is enabled
        # the section's depth is back at zero: the next run pauses and
        # restores on its own
        again = []
        engine.run(probed_query(again), {"logs": make_rows(500)}, validate=False)
        assert gc.isenabled() is enabled
    assert not any(seen) and again and not any(again)


def timr_over(rows, context=SERIAL):
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    cluster = Cluster(fs=fs, cost_model=CostModel(num_machines=2), context=context)
    return TiMR(cluster)


@pytest.mark.parametrize("enabled", [True, False])
def test_timr_run_covers_its_nested_engine_runs(enabled):
    seen = []
    starts_of_engine_runs = []
    original = Engine.run

    def engine_run(self, *args, **kwargs):
        starts_of_engine_runs.append(gc.isenabled())
        try:
            return original(self, *args, **kwargs)
        finally:
            # the reducer's own section left; TiMR's is still open
            starts_of_engine_runs.append(gc.isenabled())

    with collector(enabled), mock.patch.object(Engine, "run", engine_run):
        result = timr_over(make_rows(2000)).run(
            probed_query(seen), num_partitions=2, validate=False
        )
        assert gc.isenabled() is enabled
    assert result.output_rows()
    assert starts_of_engine_runs and not any(starts_of_engine_runs)
    assert seen and not any(seen)


def test_timr_run_that_raises_restores_the_state():
    seen = []
    with collector(True):
        with pytest.raises(Exception, match="poison row"):
            timr_over(make_rows(2000)).run(
                probed_query(seen, fail_at=500), num_partitions=2, validate=False
            )
        assert gc.isenabled()
    assert not any(seen)


def test_two_threads_share_one_pause():
    """The pause is per process: the first run to finish must not switch
    the collector back on under the run still in progress."""
    long_inside, short_done = threading.Event(), threading.Event()
    seen_long, seen_short, errors = [], [], []

    def long_probe(payload):
        if not seen_long:
            long_inside.set()
            if not short_done.wait(30):
                raise RuntimeError("the short run never finished")
        seen_long.append(gc.isenabled())
        return True

    def run(query, rows, seen):
        try:
            Engine(context=SERIAL).run(query, {"logs": rows}, validate=False)
        except BaseException as exc:  # re-raised in the main thread
            errors.append(exc)

    long_query = Query.source("logs", ("UserId", "V")).where(long_probe)
    with collector(True):
        long_run = threading.Thread(
            target=run, args=(long_query, make_rows(200), seen_long)
        )
        long_run.start()
        assert long_inside.wait(30)
        short_run = threading.Thread(
            target=run, args=(probed_query(seen_short), make_rows(200), seen_short)
        )
        short_run.start()
        short_run.join(30)
        assert not short_run.is_alive()
        short_done.set()
        long_run.join(30)
        assert not long_run.is_alive()
        assert gc.isenabled()
    if errors:
        raise errors[0]
    assert seen_short and not any(seen_short)
    # every row of the long run was evaluated after the short run left
    assert len(seen_long) == 200 and not any(seen_long)


def test_quiet_sections_under_contention():
    """More threads than cores entering and leaving at a short switch
    interval: a lost depth update would leave the collector off for
    good, or switch it on under a section still open."""
    violations, entered = [], []

    def worker():
        for _ in range(300):
            with SERIAL.quiet():
                entered.append(1)
                if gc.isenabled():
                    violations.append("collector on inside a section")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with collector(True):
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
    assert not violations and len(entered) == 8 * 300


# -- nothing collects while a paused run is in progress -----------------------


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_no_collection_starts_during_a_run(executor):
    context = RunContext(executor=executor, max_workers=2)
    rows = make_rows()
    with collector(True), collection_starts() as starts:
        # ``_drive`` is a generator: the result's constructor consumes
        # it, so that call spans the whole drive and the packing
        patch, inside = during(engine_module, "EventColumns", starts)
        with patch:
            out = Engine(context=context).run(
                probed_query([]), {"logs": rows}, validate=False
            )
        assert inside == [0]
        # the probe does see collections once the section has ended: keep
        # twice the gen-0 threshold of new containers alive, which starts
        # one (the run's own result holds O(1) tracked objects)
        kept = [[] for _ in range(2 * gc.get_threshold()[0])]
        assert starts
    assert out and kept


def test_no_collection_starts_during_a_timr_job():
    with collector(True), collection_starts() as starts:
        patch, inside = during(TiMR, "_run_job", starts)
        with patch:
            result = timr_over(make_rows(3000)).run(
                probed_query([]), num_partitions=2, validate=False
            )
        assert inside == [0]
    assert result.output_rows()


@pytest.mark.parametrize("enabled", [True, False])
def test_process_context_runs_are_paused_and_restore_the_state(enabled):
    """A process-context ``Engine.run`` is GC-quiet like every other:
    paused for its duration, the caller's collector state back on return
    and on exception."""
    engine = Engine(context=RunContext(executor="process", max_workers=2))
    seen, poisoned = [], []
    with collector(enabled):
        out = engine.run(
            probed_query(seen), {"logs": make_rows(2000)}, validate=False
        )
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="poison row"):
            engine.run(
                probed_query(poisoned, fail_at=1000),
                {"logs": make_rows(2000)},
                validate=False,
            )
        assert gc.isenabled() is enabled
    assert out and seen and not any(seen)
    assert poisoned and not any(poisoned)


# -- who is left alone ----------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_streaming_push_leaves_the_collector_alone(enabled):
    seen = []
    with collector(enabled):
        engine = StreamingEngine(probed_query(seen))
        for row in make_rows(300):
            engine.push("logs", row)
        engine.flush()
        assert gc.isenabled() is enabled
    assert seen and all(state is enabled for state in seen)


# -- the run's graph dies by refcount -------------------------------------------


class _WeakLinearChain(dataflow._LinearChain):
    __slots__ = ("__weakref__",)


def test_the_runs_graph_is_freed_without_a_collection():
    """Fails at the parent commit: every ``_OpNode`` pointed back at its
    ``Dataflow``, so the graph — chains and nested flows with it — was
    garbage only the cyclic collector could reclaim."""
    flows, nodes, chains = [], [], []
    init = Dataflow.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        flows.append(weakref.ref(self))
        nodes.extend(weakref.ref(node) for node in self._op_nodes)

    class TrackedChain(_WeakLinearChain):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            chains.append(weakref.ref(self))

    source = Query.source("logs", ("UserId", "V"))
    query = source.group_apply(
        "UserId", lambda g: g.window(50).sum("V", into="s")  # linear chains
    ).union(
        source.group_apply(  # a union is not linear: one nested flow per key
            "UserId",
            lambda g: g.window(50).count(into="s").union(g.window(70).count(into="s")),
        )
    )
    with collector(False):  # whatever dies below, refcounts killed it
        with mock.patch.object(Dataflow, "__init__", tracking_init), \
                mock.patch.object(dataflow, "_LinearChain", TrackedChain):
            out = Engine(context=SERIAL).run(
                query, {"logs": make_rows(400, users=5)}, validate=False
            )
        assert out
        assert len(flows) == 1 + 5 and len(chains) == 5  # top + one sub per key
        for refs in (flows, nodes, chains):
            assert [ref() for ref in refs] == [None] * len(refs)


def test_op_nodes_die_with_their_flow():
    query = Query.source("logs", ("UserId", "V")).group_apply(
        "UserId",
        lambda g: g.window(5).count(into="n").union(g.window(7).count(into="n")),
    )
    with collector(False):
        flow = Dataflow(query.to_plan(), allow_unstreamable=True)
        flow.feed("logs", [Event.point(t, {"UserId": t % 3, "V": 1}) for t in range(30)])
        flow.set_watermarks(29)
        out = flow.advance()
        (group_node,) = [n for n in flow._op_nodes if hasattr(n, "_groups")]
        refs = [weakref.ref(n) for n in flow._op_nodes]
        refs += [weakref.ref(c.sub) for c in group_node._groups.values()]
        refs += [
            weakref.ref(n)
            for c in group_node._groups.values()
            for n in c.sub._op_nodes
        ]
        refs.append(weakref.ref(flow))
        assert len(refs) > 10
        # closing mid-stream (nothing flushed) and closing twice are safe
        flow.close()
        flow.close()
        del flow, group_node
        assert [ref() for ref in refs] == [None] * len(refs)
    assert out
