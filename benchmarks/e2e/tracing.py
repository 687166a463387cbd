"""The traced pass: spans around the public entry points of each layer,
recorded from outside the program, plus the standalone layer probes.

``traced(recorder)`` patches the class methods listed in ``ENTRY_POINTS``
in place and restores them on exit. Each call records name, start, end
and the span that caused it; spans stay in memory until the pass ends.
A layer's self time is its span minus the part its children cover.
At the same boundaries the wrappers read the public result objects
(``Engine.last_stats``, ``TiMRResult``) for the counters.

Module-level functions are not patched: ``point_events``, the operator
kernels and ``save_file``/``load_file`` are timed by direct standalone
calls in ``probe_*`` below, on the workload's own rows and plans.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

from repro.mapreduce import Cluster
from repro.mapreduce.persist import load_file, save_file
from repro.runtime.dataflow import Dataflow
from repro.temporal import Engine, StreamingEngine, point_events
from repro.temporal.operators import SnapshotAggregate
from repro.timr import TiMR

ENTRY_POINTS = (
    (TiMR, "run", "timr.run"),
    (Cluster, "run_stage", "cluster.run_stage"),
    (Engine, "run", "engine.run"),
    (Dataflow, "feed", "dataflow.feed"),
    (Dataflow, "advance", "dataflow.advance"),
    (Dataflow, "flush", "dataflow.flush"),
    (StreamingEngine, "push", "stream.push"),
    (StreamingEngine, "flush", "stream.flush"),
)

_ADVANCE = "dataflow.advance"


class Recorder:
    """Spans and boundary counters of one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counters = defaultdict(float)
        #: per TiMR job name, the wall seconds of its ``TiMR.run`` spans
        self.job_seconds = defaultdict(float)
        self.persist_target = None

    def begin(self, name: str) -> int:
        span = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self.stack[-1] if self.stack else None)
        self.stack.append(span)
        return span

    def end(self, span: int) -> float:
        now = time.perf_counter()
        self.ends[span] = now
        self.stack.pop()
        return now - self.starts[span]

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)

    def as_dicts(self) -> list:
        return [
            {
                "id": i,
                "name": self.names[i],
                "start": self.starts[i],
                "end": self.ends[i],
                "parent": self.parents[i],
                "run": self.run_id,
            }
            for i in range(len(self.names))
        ]

    def self_times(self) -> list:
        """Per span: its duration minus the part its children cover.
        Children of one parent never overlap (one thread), so that part
        is the sum of their durations."""
        own = [self.ends[i] - self.starts[i] for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent is not None:
                own[parent] -= self.ends[i] - self.starts[i]
        return own


def _wrapper(recorder: Recorder, original, name: str):
    begin, end = recorder.begin, recorder.end

    def traced_call(self, *args, **kwargs):
        span = begin(name)
        try:
            return original(self, *args, **kwargs)
        finally:
            end(span)

    return traced_call


def _dataflow_wrapper(recorder: Recorder, original, name: str):
    """GroupApply drives a nested Dataflow per key from inside the
    outer ``advance``; those calls are operator work, not scheduling
    boundaries, and there are millions of them. Only the calls a driver
    makes are recorded."""
    names, stack = recorder.names, recorder.stack
    begin, end = recorder.begin, recorder.end

    def traced_call(self, *args, **kwargs):
        if stack and names[stack[-1]] == _ADVANCE:
            return original(self, *args, **kwargs)
        span = begin(name)
        try:
            return original(self, *args, **kwargs)
        finally:
            end(span)

    return traced_call


def _engine_wrapper(recorder: Recorder, original, name: str):
    counters = recorder.counters

    def traced_call(self, *args, **kwargs):
        span = recorder.begin(name)
        try:
            out = original(self, *args, **kwargs)
        finally:
            recorder.end(span)
        stats = self.last_stats
        counters["engine.input_events"] += stats.input_events
        counters["engine.output_events"] += stats.output_events
        counters["engine.operator_events"] += sum(stats.operator_events.values())
        _count_parallel(counters, stats.parallel)
        return out

    return traced_call


def _count_parallel(counters, parallel) -> None:
    if not parallel:
        return
    overhead = parallel.get("overhead") or {}
    for key in ("compute", "dispatch", "serialize", "merge", "idle"):
        counters[f"parallel.{key}_s"] += overhead.get(f"{key}_seconds", 0.0)
    for key in ("dispatches", "waves", "tasks"):
        counters[f"parallel.{key}"] += parallel.get(key, 0)
    recovery = parallel.get("recovery") or {}
    counters["parallel.task_retries"] += recovery.get("task_retries", 0)
    counters["parallel.degradations"] += recovery.get("degradations", 0)


def _timr_wrapper(recorder: Recorder, original, name: str):
    counters = recorder.counters

    def traced_call(self, query, job_name="timr", *args, **kwargs):
        span = recorder.begin(name)
        try:
            result = original(self, query, job_name, *args, **kwargs)
        finally:
            recorder.job_seconds[job_name] += recorder.end(span)
        counters["timr.fragments"] += len(result.fragments)
        counters["cluster.quarantined_rows"] += result.quarantined_rows
        for stage in result.report.stages:
            seconds = stage.partition_seconds
            counters["cluster.reduce_s"] += sum(seconds)
            counters["cluster.rows_in"] += stage.rows_in
            counters["cluster.rows_out"] += stage.rows_out
            counters["cluster.restarted_partitions"] += stage.restarted_partitions
            if seconds:
                counters["_skew.max"] += max(seconds)
                counters["_skew.mean"] += sum(seconds) / len(seconds)
        if job_name == "score":
            recorder.persist_target = result.output
        return result

    return traced_call


def _stream_wrapper(recorder: Recorder, original, name: str):
    counters = recorder.counters

    def traced_call(self, *args, **kwargs):
        span = recorder.begin(name)
        try:
            out = original(self, *args, **kwargs)
        except Exception:
            counters["stream.rejected"] += 1
            raise
        finally:
            recorder.end(span)
        counters[name + ".outputs"] += len(out)
        if name == "stream.flush":
            counters["stream.rejected"] += self.dropped + len(self.quarantined)
        return out

    return traced_call


_WRAPPERS = {
    TiMR: _timr_wrapper,
    Engine: _engine_wrapper,
    Dataflow: _dataflow_wrapper,
    StreamingEngine: _stream_wrapper,
}


def installed() -> list:
    """The entry points that currently carry a wrapper."""
    return [
        name
        for cls, attr, name in ENTRY_POINTS
        if getattr(cls.__dict__[attr], "__name__", "") == "traced_call"
    ]


@contextmanager
def traced(recorder: Recorder):
    """Patch the entry points for the duration of the block."""
    originals = []
    try:
        for cls, attr, name in ENTRY_POINTS:
            original = cls.__dict__[attr]
            originals.append((cls, attr, original))
            make = _WRAPPERS.get(cls, _wrapper)
            setattr(cls, attr, make(recorder, original, name))
        yield recorder
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)


def span_metrics(recorder: Recorder) -> dict:
    """The per-layer metrics that come from spans and boundary counters."""
    own = recorder.self_times()
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    for i, name in enumerate(recorder.names):
        parent = recorder.parents[i]
        if name == _ADVANCE and parent is not None and (
            recorder.names[parent] == "dataflow.flush"
        ):
            name = "dataflow.flush/advance"  # already inside flush_s
        total[name] += recorder.ends[i] - recorder.starts[i]
        self_total[name] += own[i]
        calls[name] += 1
    c = recorder.counters
    jobs = recorder.job_seconds
    # between jobs the chain runs assemble_examples, the keyword filter
    # and fs.write: what is left of the pass outside TiMR.run
    glue_s = self_total["pass"] if jobs else 0.0
    inputs = c["engine.input_events"]
    outputs = c["stream.push.outputs"] + c["stream.flush.outputs"]
    metrics = {
        "engine.run_s": total["engine.run"],
        "engine.self_s": self_total["engine.run"],
        "engine.input_events": inputs,
        "engine.output_events": c["engine.output_events"],
        "engine.operator_events": c["engine.operator_events"],
        "engine.events_per_input": (
            c["engine.operator_events"] / inputs if inputs else 0.0
        ),
        "dataflow.feed_s": total["dataflow.feed"],
        "dataflow.advance_s": total[_ADVANCE],
        "dataflow.flush_s": total["dataflow.flush"],
        "dataflow.advance_calls": calls[_ADVANCE] + calls["dataflow.flush/advance"],
        "cluster.stage_s": total["cluster.run_stage"],
        "cluster.reduce_s": c["cluster.reduce_s"],
        "cluster.self_s": self_total["cluster.run_stage"],
        "cluster.rows_in": c["cluster.rows_in"],
        "cluster.rows_out": c["cluster.rows_out"],
        "cluster.skew_ratio": (
            c["_skew.max"] / c["_skew.mean"] if c["_skew.mean"] else 0.0
        ),
        "cluster.restarted_partitions": c["cluster.restarted_partitions"],
        "cluster.quarantined_rows": c["cluster.quarantined_rows"],
        "timr.run_s": total["timr.run"],
        "timr.self_s": self_total["timr.run"],
        "timr.fragments": c["timr.fragments"],
        "bt.job.clean_s": jobs["clean"],
        "bt.job.kez_s": jobs["kez"],
        "bt.job.train_s": jobs["act"] + jobs["train"],
        "bt.job.score_s": jobs["score"],
        "bt.job.online_s": jobs["online"],
        "bt.glue_s": glue_s,
        "stream.push_s": total["stream.push"],
        "stream.flush_s": total["stream.flush"],
        "stream.live_share": (
            c["stream.push.outputs"] / outputs if outputs else 0.0
        ),
        "stream.rejected": c["stream.rejected"],
    }
    for key in (
        "compute_s", "dispatch_s", "serialize_s", "merge_s", "idle_s",
        "dispatches", "waves", "tasks", "task_retries", "degradations",
    ):
        metrics[f"parallel.{key}"] = c[f"parallel.{key}"]
    return metrics


# -- standalone probes -------------------------------------------------------


def probe_ingest(workload) -> tuple:
    """One standalone ``point_events(rows)`` over the workload's rows."""
    t0 = time.perf_counter()
    events = point_events(workload.rows)
    seconds = time.perf_counter() - t0
    return events, {
        "ingest.s": seconds,
        "ingest.events_per_s": len(events) / seconds,
    }


def probe_kernels(workload, events) -> dict:
    """Per user (the key every workload groups by), a fresh window
    operator's ``apply`` then a fresh ``SnapshotAggregate.apply`` over
    that user's events, summed over users: kernel time with no Dataflow
    around it."""
    by_user = defaultdict(list)
    for event in events:
        by_user[event.payload["UserId"]].append(event)
    clock = time.perf_counter
    window_s = aggregate_s = 0.0
    for group in by_user.values():
        window, specs = workload.kernel_operators()
        t0 = clock()
        windowed = window.apply(group)
        t1 = clock()
        SnapshotAggregate(specs).apply(windowed)
        t2 = clock()
        window_s += t1 - t0
        aggregate_s += t2 - t1
    return {
        "op.window_s": window_s,
        "op.aggregate_s": aggregate_s,
        "op.kernel_events_per_s": len(events) / (window_s + aggregate_s),
    }


def probe_persist(dataset, scratch_dir: str) -> dict:
    """Standalone ``save_file`` / ``load_file(verify=True)`` of one
    dataset into a temporary directory under ``scratch_dir``."""
    os.makedirs(scratch_dir, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="persist-", dir=scratch_dir)
    try:
        t0 = time.perf_counter()
        path = save_file(dataset, directory)
        t1 = time.perf_counter()
        load_file(directory, dataset.name, verify=True)
        t2 = time.perf_counter()
        size = sum(
            os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "persist.save_s": t1 - t0,
        "persist.load_s": t2 - t1,
        "persist.bytes": size,
    }


def probe_heap(run, input_events: int) -> dict:
    """One extra pass under ``tracemalloc`` (wrappers off)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
        del out
    finally:
        tracemalloc.stop()
    return {
        "heap.peak_mb": peak / 1e6,
        "heap.bytes_per_event": peak / input_events,
    }
