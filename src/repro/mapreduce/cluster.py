"""The simulated shared-nothing cluster: executes map-reduce stages.

``Cluster.run_stage`` is the one way in: a stage's map tasks, shuffle,
secondary sort and reduce partitions, from named datasets to one output
dataset. A multi-stage job is its caller's chain of stages (TiMR runs
one stage per fragment). Every reduce partition runs for real (measuring
its wall time), shuffle costs are simulated, and both measured and
simulated makespans are reported through
:class:`repro.mapreduce.cost.JobReport`.

Failure handling reproduces M-R's restart strategy (Section III-C.1),
generalized by :mod:`repro.mapreduce.faults`: a pluggable
:class:`~repro.mapreduce.faults.FaultPolicy` can strike the map phase,
the shuffle, a reduce attempt, or the FS read/write bracketing a stage,
with transient-vs-permanent semantics, bounded retries under an
exponential backoff budget, and per-partition blacklisting. Because the
embedded DSMS is founded on a deterministic temporal algebra, any
re-run regenerates identical output — TiMR's replay check on resume and
the seeded chaos suite assert exactly that.

With ``RunContext(quarantine=True)`` the cluster additionally survives *poison
events*: rows that crash user callables (or lack the mandatory ``Time``
column) are retried, then diverted to a dead-letter dataset with full
diagnostics (each row with the error it raised itself) instead of
failing the job.
"""

from __future__ import annotations

import time as _time
from marshal import dumps as _marshal
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..runtime.context import DEFAULT_CONTEXT, RunContext
from ..temporal.event import TIME_COLUMN, rows_by_time
from ..temporal.time import check_time
from .cost import CostModel, JobReport, StageReport
from .faults import (
    FS_READ,
    FS_WRITE,
    MAP,
    REDUCE,
    SHUFFLE,
    InjectedFault,
    StageExecutionError,
)
from .fs import DistributedFile, DistributedFileSystem, Row
from .job import ColumnKey, MapFn, MapReduceStage, stable_hash


#: Distinct keys one map call remembers the route of; past that a key
#: is hashed each time it is seen, and the memo stays a few hundred KB.
_ROUTE_MEMO_KEYS = 4096


class Cluster:
    """A simulated M-R cluster over a :class:`DistributedFileSystem`.

    Args:
        fs: the distributed file system holding named datasets.
        cost_model: unit costs used for simulated makespans and backoff.
        context: the run's :class:`repro.runtime.RunContext`; ``None``
            means :data:`~repro.runtime.DEFAULT_CONTEXT`. The cluster
            reads its ``fault_policy`` (the chaos source, see
            :mod:`repro.mapreduce.faults`), ``max_restarts`` (re-runs
            allowed per task before a fault propagates, each charging
            exponential simulated backoff), ``quarantine`` (divert rows
            that deterministically crash user callables, or lack a
            usable ``Time``, to a dead-letter dataset instead of
            failing the stage) and ``tracer``
            (per-stage and per-partition spans plus cluster metrics).
    """

    def __init__(
        self,
        fs: Optional[DistributedFileSystem] = None,
        cost_model: Optional[CostModel] = None,
        *,
        context: Optional[RunContext] = None,
    ):
        self.fs = fs or DistributedFileSystem()
        self.cost_model = cost_model or CostModel()
        self.context = context if context is not None else DEFAULT_CONTEXT
        self.last_report: Optional[JobReport] = None
        self.last_quarantined: List[Row] = []

    # -- execution ----------------------------------------------------------

    def run_stage(
        self,
        stage: MapReduceStage,
        inputs: Union[str, Dict[str, Optional[MapFn]]],
        output_name: str,
        quarantine_name: Optional[str] = None,
    ) -> DistributedFile:
        """Execute one stage.

        ``inputs`` names one dataset, or maps several, in order, each to
        the map function (:data:`~repro.mapreduce.job.MapFn`) each of its
        partitions passes through before routing (``None``: none), as
        Hadoop's ``MultipleInputs`` gives each input a mapper. Map tasks
        are numbered in input order, then partition order.

        Quarantined rows are appended to ``quarantine_name`` (default
        ``{output_name}.quarantine``), so a multi-stage caller can funnel
        every stage's dead letters into one job-level dataset.
        """
        if isinstance(inputs, str):
            inputs = {inputs: None}
        data = [(self.fs.read(name), map_fn) for name, map_fn in inputs.items()]
        report = StageReport(name=stage.name, rows_in=sum(d.num_rows for d, _ in data))
        quarantined: List[Row] = []
        tracer = self.context.tracer

        with tracer.span(
            "cluster.stage", category="cluster", stage=stage.name
        ) as stage_span:
            # Simulated input (re-)read; a fault here is retried like any task.
            self._draw_faults((FS_READ,), stage.name, -1, report)

            # Map phase: one task per input partition, across the inputs.
            partitions: List[List[Row]] = [[] for _ in range(stage.num_partitions)]
            routed_rows = 0
            shuffle_bytes = 0
            tasks = [(part, map_fn) for file, map_fn in data for part in file.partitions]
            for pi, (part, map_fn) in enumerate(tasks):
                with tracer.span(
                    "cluster.map",
                    category="cluster",
                    stage=stage.name,
                    partition=pi,
                    rows_in=len(part),
                ) as map_span:
                    self._draw_faults((MAP,), stage.name, pi, report)
                    routed, poisoned = self._map_partition_rows(stage, pi, part, map_fn)
                    quarantined.extend(poisoned)
                    if tracer.enabled:
                        map_span.set("rows_mapped", len(routed))
                        shuffle_bytes += sum(
                            len(repr(row)) for _, row in routed
                        )
                for idx, row in routed:
                    partitions[idx].append(row)
                routed_rows += len(routed)
            report.shuffle_seconds = self.cost_model.shuffle_seconds(routed_rows)
            report.num_partitions = stage.num_partitions

            # Reduce phase: run the reducer per partition, measuring work.
            outputs: List[List[Row]] = []
            for idx, rows in enumerate(partitions):
                with tracer.span(
                    "cluster.partition",
                    category="cluster",
                    stage=stage.name,
                    partition=idx,
                    rows_in=len(rows),
                ) as part_span:
                    if stage.sort_by_time:
                        sort_start = _time.perf_counter() if tracer.enabled else 0.0
                        rows = self._sort_partition(stage, idx, rows, quarantined)
                        if tracer.enabled:
                            part_span.set(
                                "sort_seconds",
                                round(_time.perf_counter() - sort_start, 6),
                            )
                    out_rows, seconds, restarts = self._reduce_partition_rows(
                        stage, idx, rows, report, quarantined
                    )
                    if tracer.enabled:
                        part_span.set("rows_out", len(out_rows))
                        part_span.set("restarts", restarts)
                outputs.append(out_rows)
                report.partition_seconds.append(seconds)
                report.restarted_partitions += restarts

            # Simulated output write; likewise retried on injected faults.
            self._draw_faults((FS_WRITE,), stage.name, -1, report)
            report.rows_out = sum(len(p) for p in outputs)
            report.quarantined_rows = len(quarantined)

            if tracer.enabled:
                self._record_stage_telemetry(
                    stage_span, stage, report, partitions, routed_rows, shuffle_bytes
                )
        out = self.fs.write_partitioned(output_name, outputs)
        self.last_report = JobReport(stages=[report])
        self.last_quarantined = quarantined
        if quarantined:
            self._flush_quarantine(
                quarantine_name or f"{output_name}.quarantine", quarantined
            )
        return out

    def _record_stage_telemetry(
        self,
        span,
        stage: MapReduceStage,
        report: StageReport,
        partitions: List[List[Row]],
        routed_rows: int,
        shuffle_bytes: int,
    ) -> None:
        """Fill the stage span and cluster metrics (deterministic values only)."""
        sizes = [len(p) for p in partitions]
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        skew = round(max(sizes) / mean, 4) if mean > 0 else 0.0
        span.set("rows_in", report.rows_in)
        span.set("rows_out", report.rows_out)
        span.set("partitions", report.num_partitions)
        span.set("rows_mapped", routed_rows)
        span.set("shuffle_bytes", shuffle_bytes)
        span.set("skew_ratio", skew)
        span.set("restarts", report.restarted_partitions)
        span.set("quarantined", report.quarantined_rows)
        span.set("sim_shuffle_seconds", round(report.shuffle_seconds, 9))
        span.set("sim_backoff_seconds", round(report.retry_backoff_seconds, 9))

        metrics = self.context.tracer.metrics
        name = stage.name
        metrics.counter("cluster.rows_in", stage=name).inc(report.rows_in)
        metrics.counter("cluster.rows_out", stage=name).inc(report.rows_out)
        metrics.counter("cluster.rows_mapped", stage=name).inc(routed_rows)
        metrics.counter("cluster.shuffle_bytes", stage=name).inc(shuffle_bytes)
        metrics.counter("cluster.reducer_restarts", stage=name).inc(
            report.restarted_partitions
        )
        metrics.counter("cluster.quarantined_rows", stage=name).inc(
            report.quarantined_rows
        )
        metrics.counter("cluster.retry_backoff_seconds", stage=name).inc(
            report.retry_backoff_seconds
        )
        metrics.gauge("cluster.partition_skew", stage=name).set(skew)
        rows_hist = metrics.histogram("cluster.partition_rows", stage=name)
        for size in sizes:
            rows_hist.observe(size)

    # -- phases --------------------------------------------------------------

    def _draw_faults(
        self,
        sites: Tuple[str, ...],
        stage_name: str,
        partition: int,
        report: StageReport,
    ) -> int:
        """One task's injected-fault draws, before its body runs.

        Each attempt passes ``sites`` in order; an injected fault
        restarts the attempt, charging exponential simulated backoff,
        and propagates past ``max_restarts``. Returns the injected
        restart count.
        """
        policy = self.context.fault_policy
        if policy is None:
            return 0
        restarts = 0
        while True:
            try:
                for site in sites:
                    policy.maybe_fail(site, stage_name, partition, restarts + 1)
                return restarts
            except InjectedFault:
                restarts += 1
                report.retry_backoff_seconds += (
                    self.cost_model.retry_backoff_base * (1 << (restarts - 1))
                )
                if restarts > self.context.max_restarts:
                    raise

    def _map_partition_rows(
        self, stage: MapReduceStage, pi: int, rows: List[Row], map_fn: Optional[MapFn] = None
    ) -> Tuple[List[Tuple[int, Row]], List[Row]]:
        """Map task ``pi``: ``map_fn`` over the whole input partition,
        each mapped row routed as ``(partition index, row)``, and the
        dead-letter records of the rows whose map or routing raised.

        A failing task is bisected to its failing rows
        (:meth:`_isolate_poison`): the first one's error propagates, or,
        with quarantine, each is dead-lettered with its own error and the
        rest are mapped again; a failure no single row explains raises
        the task's own error. The caller draws the task's injected faults
        first; an ``InjectedFault`` raised by a user ``map_fn``
        propagates, as a reducer's does."""
        # this call's hash routes by the key's marshalled bytes, which
        # are equal only for equal reprs; as dict keys 1, 1.0 and True
        # are one key with three reprs
        routes: dict = {}

        def run(part: List[Row]) -> List[Tuple[int, Row]]:
            return self._route(stage, part if map_fn is None else map_fn(part), routes)

        try:
            return run(rows), []
        except InjectedFault:
            raise
        except Exception as exc:
            isolated = self._isolate_poison(run, rows)
            if isolated is None:
                raise exc
        poison, routed, _ = isolated
        if not self.context.quarantine:
            raise poison[0][1]
        return routed, [self._quarantine_record(stage.name, pi, MAP, r, e) for r, e in poison]

    @staticmethod
    def _route(
        stage: MapReduceStage, rows: List[Row], routes: dict
    ) -> List[Tuple[int, Row]]:
        """Each mapped row with the reduce partitions it goes to: its
        ``partition_fn``'s, or its key's stable hash, remembered in
        ``routes`` by the key's marshalled bytes."""
        n = stage.num_partitions
        routed: List[Tuple[int, Row]] = []
        if stage.partition_fn is not None:
            for row in rows:
                for idx in stage.partition_fn(row):
                    if not 0 <= idx < n:
                        raise IndexError(
                            f"stage {stage.name!r} routed row to partition {idx} of {n}"
                        )
                    routed.append((idx, row))
            return routed
        key_fn = stage.key_fn
        keys = key_fn.of(rows) if type(key_fn) is ColumnKey else list(map(key_fn, rows))
        append = routed.append
        for key, row in zip(keys, rows):
            try:
                exact = _marshal(key, 2)
            except ValueError:  # a value marshal cannot write
                exact = None
            idx = routes.get(exact)
            if idx is None:
                idx = stable_hash(key) % n
                if exact is not None and len(routes) < _ROUTE_MEMO_KEYS:
                    routes[exact] = idx
            append((idx, row))
        return routed

    def _sort_partition(
        self,
        stage: MapReduceStage,
        idx: int,
        rows: List[Row],
        quarantined: List[Row],
    ) -> List[Row]:
        """Secondary sort by Time. A row without a usable ``Time``
        (``check_time``'s rule, the one every row decoder applies) is
        quarantined, or fails the stage: ``KeyError('Time')`` when the
        column is missing, ``ValueError`` otherwise."""
        if self.context.quarantine:
            usable: List[Row] = []
            for row in rows:
                try:
                    check_time(row[TIME_COLUMN])
                except (KeyError, TypeError, ValueError) as exc:
                    quarantined.append(
                        self._quarantine_record(stage.name, idx, "sort", row, exc)
                    )
                else:
                    usable.append(row)
            rows = usable
        return rows_by_time(rows)[0]

    def _reduce_partition_rows(
        self,
        stage: MapReduceStage,
        idx: int,
        rows: List[Row],
        report: StageReport,
        quarantined: List[Row],
    ) -> Tuple[List[Row], float, int]:
        """One partition's reduce: ``(output rows, measured seconds,
        restarts)``.

        Every injected restart is drawn before the reducer runs once, so
        a fault schedule costs no reducer work. A *real* failure — user
        code or malformed data — is retried once (the restart strategy
        costs nothing to try), then poison rows are bisected out
        (quarantine mode) or the stage fails with full context.
        """
        restarts = self._draw_faults((SHUFFLE, REDUCE), stage.name, idx, report)
        attempt = 0
        while True:
            attempt += 1
            start = _time.perf_counter()
            try:
                out_rows = list(stage.reducer(idx, rows))
                seconds = _time.perf_counter() - start
                break
            except InjectedFault:
                raise  # exotic: a policy firing inside user reduce code
            except Exception as exc:
                if attempt == 1:
                    continue
                isolated = None
                if self.context.quarantine:
                    isolated = self._isolate_poison(
                        lambda part: list(stage.reducer(idx, list(part))), rows
                    )
                if isolated is None:
                    raise StageExecutionError(
                        stage.name, idx, attempt, len(rows), exc
                    ) from exc
                poison, out_rows, seconds = isolated
                quarantined.extend(
                    self._quarantine_record(stage.name, idx, REDUCE, row, error)
                    for row, error in poison
                )
                break
        if attempt > 1:
            report.retry_backoff_seconds += self.cost_model.retry_backoff_base * (
                attempt - 1
            )
        return out_rows, seconds, restarts + attempt - 1

    @staticmethod
    def _isolate_poison(
        run: Callable[[List[Row]], list], rows: List[Row]
    ) -> Optional[Tuple[List[Tuple[Row, Exception]], list, float]]:
        """Bisect a task that deterministically fails on ``rows`` to its
        poison rows: a reducer's partition, or a map task's.

        Divide and conquer over the task's input: any part on which
        ``run`` still fails is split until single offending rows remain —
        O(P log n) probes for P poison rows. Returns ``(each poison row
        with its own error, in input order; ``run`` over the surviving
        rows; its measured seconds)``, or ``None`` when the failure is
        an interaction between rows that single-row removal cannot
        explain (the caller then fails with the task's error).
        """
        poison: List[Tuple[Row, Exception]] = []

        def find(sub: List[Row]) -> None:
            if not sub:
                return
            try:
                run(sub)
                return
            except Exception as exc:
                if len(sub) == 1:
                    poison.append((sub[0], exc))
                    return
            mid = len(sub) // 2
            find(sub[:mid])
            find(sub[mid:])

        find(rows)
        if not poison:
            return None
        poison_ids = {id(row) for row, _ in poison}
        survivors = [r for r in rows if id(r) not in poison_ids]
        start = _time.perf_counter()
        try:
            out = run(survivors)
        except Exception:
            return None  # still failing without the isolated rows
        return poison, out, _time.perf_counter() - start

    # -- quarantine -----------------------------------------------------------

    @staticmethod
    def _quarantine_record(
        stage: str, partition: int, site: str, row: object, error: BaseException
    ) -> Row:
        """A dead-letter row: the offending row plus full diagnostics."""
        as_dict = dict(row) if isinstance(row, dict) else {"value": repr(row)}
        return {
            TIME_COLUMN: as_dict.get(TIME_COLUMN),
            "_stage": stage,
            "_partition": partition,
            "_site": site,
            "_error": repr(error),
            "_row": as_dict,
        }

    def _flush_quarantine(self, name: str, records: List[Row]) -> None:
        existing: List[Row] = []
        if self.fs.exists(name):
            existing = self.fs.read(name).all_rows()
        self.fs.write(name, existing + records, require_time_column=False)
