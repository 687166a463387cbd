"""Cross-process worker tracing: lanes, determinism, chaos identity.

The contract under test (docs/OBSERVABILITY.md, "Worker lanes"):

* workers record spans/metrics into buffers shipped back with results;
  the driver re-parents them under the dispatching span and tags each
  with a stable lane name (``worker-N`` for pool workers, ``driver``
  for inline recovery);
* the *simulated-time* view of a trace — :func:`repro.obs.sim_trace_tree`
  — plus the deterministic metric snapshot are byte-identical across
  same-seed runs, regardless of executor choice, and identical across
  executors once worker/supervision scheduling artifacts are excluded;
* that identity survives seeded worker-kill chaos: re-executed chunks
  are attributed to the recovering lane with ``recovered=True`` and no
  chunk is duplicated or orphaned;
* the Chrome export renders one lane per worker with supervision
  events visible as instants;
* the overhead attribution components sum to the worker-time budget.
"""

import pytest

from repro.mapreduce import (
    WORKER_KILL,
    ChaosPolicy,
    Cluster,
    CostModel,
    DistributedFileSystem,
)
from repro.obs import Tracer, attribute, chrome_trace, render_table, sim_trace_tree
from repro.runtime import ProcessExecutor, RunContext, Supervision
from repro.temporal import Engine, Query
from repro.temporal.time import days
from repro.timr import TiMR

needs_fork = pytest.mark.skipif(
    not ProcessExecutor.can_fork, reason="fork start method unavailable"
)

EXECUTORS = ["serial", "thread"] + (
    ["process"] if ProcessExecutor.can_fork else []
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_PARALLEL_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_WORKER_RETRIES", raising=False)


def _group_query():
    return Query.source("logs", ("Time", "UserId", "Clicks")).group_apply(
        ("UserId",), lambda g: g.window(days(1)).count()
    )


def _group_rows(n=400, keys=7):
    return [
        {"Time": i * 3600, "UserId": i % keys, "Clicks": 1} for i in range(n)
    ]


def _run_traced(executor, rows, fault_policy=None, retry_budget=None):
    tracer = Tracer()
    engine = Engine(
        context=RunContext(
            tracer=tracer,
            executor=executor,
            max_workers=4,
            fault_policy=fault_policy,
            worker_retry_budget=retry_budget,
        )
    )
    out = engine.run(_group_query(), {"logs": rows})
    return out, tracer, engine


def _run_traced_job(executor, rows, fault_policy=None, retry_budget=None):
    """The same query as one TiMR job over a four-partition input, so
    the map phase goes through the executor's pool (process parallelism
    is Cluster partitions; a GroupApply alone forks nothing)."""
    tracer = Tracer()
    fs = DistributedFileSystem()
    fs.write("logs", rows, num_partitions=4)
    cluster = Cluster(
        fs=fs,
        cost_model=CostModel(num_machines=4),
        context=RunContext(
            tracer=tracer,
            executor=executor,
            max_workers=4,
            fault_policy=fault_policy,
            worker_retry_budget=retry_budget,
        ),
    )
    result = TiMR(cluster).run(_group_query(), num_partitions=3)
    return result, tracer


def _det_metrics(tracer):
    return tracer.metrics.snapshot(deterministic_only=True)


class TestSameSeedIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_same_seed_same_sim_tree_and_metrics(self, executor):
        rows = _group_rows()
        out_a, tracer_a, _ = _run_traced(executor, rows)
        out_b, tracer_b, _ = _run_traced(executor, rows)
        assert out_a == out_b
        assert sim_trace_tree(tracer_a) == sim_trace_tree(tracer_b)
        assert _det_metrics(tracer_a) == _det_metrics(tracer_b)

    @pytest.mark.parametrize("executor", [e for e in EXECUTORS if e != "serial"])
    def test_cross_executor_identity_without_scheduling_artifacts(self, executor):
        """Serial vs parallel trees agree once worker/supervision spans
        (which only exist under a parallel executor) are excluded, and
        deterministic metrics agree outside the ``executor.*`` family
        (chunk geometry legitimately depends on the worker count)."""
        rows = _group_rows()
        out_s, tracer_s, _ = _run_traced("serial", rows)
        out_p, tracer_p, _ = _run_traced(executor, rows)
        assert out_s == out_p
        exclude = ("worker", "supervision")
        assert sim_trace_tree(tracer_s, exclude_categories=exclude) == \
            sim_trace_tree(tracer_p, exclude_categories=exclude)

        def engine_metrics(tracer):
            return [
                m
                for m in _det_metrics(tracer)
                if not m["name"].startswith("executor.")
            ]

        assert engine_metrics(tracer_s) == engine_metrics(tracer_p)


@needs_fork
class TestWorkerLanes:
    def test_chrome_trace_one_lane_per_worker_with_supervision(self):
        rows = _group_rows()
        _, tracer = _run_traced_job("process", rows)
        doc = chrome_trace(tracer)
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "driver" in names
        assert {f"worker-{i}" for i in range(4)} <= names
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "supervision.spawn" for e in instants)
        # tracing runs reduce in the driver, where the embedded engines'
        # process context resolves to the local wave: named, not silent
        assert any(e["name"] == "supervision.resolved" for e in instants)

    def test_pool_chunks_in_worker_lanes(self):
        """The chunked pool path (run_tasks) tags each absorbed chunk
        span with its worker lane and a deterministic chunk start."""
        tracer = Tracer()
        ex = ProcessExecutor(max_workers=4, supervision=Supervision(tracer=tracer))
        results = ex.run_tasks([lambda i=i: i * i for i in range(32)])
        assert results == [i * i for i in range(32)]
        chunks = [s for s in tracer.finished() if s.name == "worker.chunk"]
        assert chunks
        assert {s.attrs["lane"] for s in chunks} <= {
            f"worker-{i}" for i in range(4)
        }
        starts = sorted(s.attrs["chunk_start"] for s in chunks)
        assert starts == sorted(set(starts))  # each chunk exactly once
        assert sum(s.attrs["tasks"] for s in chunks) == 32


@needs_fork
class TestChaosIdentity:
    def _chaos_run(self, rows):
        # seed 8 at rate 0.4 kills one of the four map workers
        return _run_traced_job(
            "process",
            rows,
            fault_policy=ChaosPolicy(seed=8, rates={WORKER_KILL: 0.4}),
            retry_budget=20,
        )

    def test_same_seed_chaos_same_sim_tree_and_metrics(self):
        rows = _group_rows()
        result_a, tracer_a = self._chaos_run(rows)
        result_b, tracer_b = self._chaos_run(rows)
        assert result_a.output_rows() == result_b.output_rows()
        assert result_a.parallel["recovery"]["worker_restarts"] >= 1
        assert sim_trace_tree(tracer_a) == sim_trace_tree(tracer_b)
        assert _det_metrics(tracer_a) == _det_metrics(tracer_b)

    def test_chaos_tree_matches_clean_tree(self):
        """A killed worker's chunk is refilled to the same simulated-time
        trace: the chaos run's canonical tree equals the fault-free
        run's once supervision markers are excluded."""
        rows = _group_rows()
        _, clean = _run_traced_job("process", rows)
        _, chaotic = self._chaos_run(rows)
        exclude = ("supervision",)
        assert sim_trace_tree(chaotic, exclude_categories=exclude) == \
            sim_trace_tree(clean, exclude_categories=exclude)

    def test_recovered_chunks_attributed_to_recovering_lane(self):
        rows = _group_rows()
        _, tracer = self._chaos_run(rows)
        recovered = [
            s for s in tracer.finished() if s.attrs.get("recovered") is True
        ]
        assert recovered, "kill chaos produced no recovered spans"
        assert all(s.attrs["lane"] == "driver" for s in recovered)
        ids = {s.span_id for s in tracer.finished()}
        for span in recovered:
            assert span.parent_id in ids  # no orphans
        events = {s.name for s in tracer.finished() if s.category == "supervision"}
        assert "supervision.worker_lost" in events

    def test_pool_kill_refill_runs_in_driver_lane(self):
        """A killed pool child never ships its buffer; the refilled
        chunks appear exactly once, in the ``driver`` lane, marked
        ``recovered`` — no duplicate and no missing chunk."""
        tracer = Tracer()
        ex = ProcessExecutor(
            max_workers=4,
            supervision=Supervision(
                fault_policy=ChaosPolicy(seed=8, rates={WORKER_KILL: 0.4}),
                retry_budget=20,
                tracer=tracer,
            ),
        )
        results = ex.run_tasks([lambda i=i: i * i for i in range(32)])
        assert results == [i * i for i in range(32)]
        assert ex.last_recovery.tasks_reexecuted >= 1
        chunks = [s for s in tracer.finished() if s.name == "worker.chunk"]
        starts = sorted(s.attrs["chunk_start"] for s in chunks)
        assert starts == sorted(set(starts))  # no duplicated chunk spans
        refills = [s for s in chunks if s.attrs.get("recovered") is True]
        assert refills and all(s.attrs["lane"] == "driver" for s in refills)
        assert sum(s.attrs["tasks"] for s in chunks) == 32  # full coverage


class TestAttributionCoverage:
    @pytest.mark.parametrize("executor", [e for e in EXECUTORS if e != "serial"])
    def test_components_sum_to_budget(self, executor):
        rows = _group_rows()
        result, _ = _run_traced_job(executor, rows)
        report = attribute(result.parallel["overhead"])
        assert report.budget_seconds > 0
        assert abs(report.coverage - 1.0) <= 0.05
        assert report.components["compute"] > 0
        assert all(v >= 0 for v in report.components.values())
        assert report.dominant_overhead != "compute"
        assert "dominant overhead:" in render_table(report)
