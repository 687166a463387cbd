"""The simulated shared-nothing cluster: executes map-reduce jobs.

Runs every reduce partition for real (measuring its wall time), charges
simulated shuffle costs, and reports both measured and simulated
makespans through :class:`repro.mapreduce.cost.JobReport`.

Failure handling reproduces M-R's restart strategy (Section III-C.1),
generalized by :mod:`repro.mapreduce.faults`: a pluggable
:class:`~repro.mapreduce.faults.FaultPolicy` can strike the map phase,
the shuffle, a reduce attempt, or the FS read/write bracketing a stage,
with transient-vs-permanent semantics, bounded retries under an
exponential backoff budget, and per-partition blacklisting. Because the
embedded DSMS is founded on a deterministic temporal algebra, any
re-run regenerates identical output — ``verify_restart_determinism``
asserts exactly that, and the seeded chaos suite asserts it end-to-end.

With ``quarantine=True`` the cluster additionally survives *poison
events*: rows that crash user callables (or lack the mandatory ``Time``
column) are retried, then diverted to a dead-letter dataset with full
diagnostics instead of failing the job.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from marshal import dumps as _marshal
from typing import List, Optional, Sequence, Set, Tuple

from ..runtime.context import RunContext
from ..runtime.parallel import SERIAL
from ..runtime.racecheck import race_check_mode
from .cost import CostModel, JobReport, StageReport
from .faults import (
    FS_READ,
    FS_WRITE,
    MAP,
    REDUCE,
    SHUFFLE,
    FaultPolicy,
    InjectedFault,
    StageExecutionError,
)
from .fs import DistributedFile, DistributedFileSystem, Row
from .job import MapReduceJob, MapReduceStage, stable_hash


#: Distinct keys one map call remembers the route of; past that a key
#: is hashed each time it is seen, and the memo stays a few hundred KB.
_ROUTE_MEMO_KEYS = 4096


class ReducerKilled(InjectedFault):
    """Raised inside a reducer attempt that the injector chose to kill."""


@dataclass
class FailureInjector:
    """Kill the first attempt of selected (stage, partition) pairs.

    The original hand-targeted injector; :class:`repro.mapreduce.faults.
    ChaosPolicy` is its probabilistic generalization. Kept because "kill
    exactly this attempt" is still the sharpest tool for unit tests.
    """

    kill: Set[Tuple[str, int]] = field(default_factory=set)
    _killed: Set[Tuple[str, int]] = field(default_factory=set)

    def maybe_kill(self, stage: str, partition: int) -> None:
        key = (stage, partition)
        if key in self.kill and key not in self._killed:
            self._killed.add(key)
            raise ReducerKilled(
                f"injected failure in {stage}[{partition}]",
                site=REDUCE,
                stage=stage,
                partition=partition,
            )

    @property
    def injected(self) -> int:
        return len(self._killed)


class _InjectorPolicy(FaultPolicy):
    """Adapts the legacy :class:`FailureInjector` to the policy protocol."""

    def __init__(self, injector: FailureInjector):
        super().__init__()
        self.injector = injector

    def maybe_fail(self, site: str, stage: str, partition: int, attempt: int) -> None:
        if site == REDUCE:
            self.injector.maybe_kill(stage, partition)


class Cluster:
    """A simulated M-R cluster over a :class:`DistributedFileSystem`.

    Args:
        fs: the distributed file system holding named datasets.
        cost_model: unit costs used for simulated makespans and backoff.
        failure_injector: legacy hand-targeted reducer killer (adapted
            into a :class:`FaultPolicy`; mutually exclusive with
            ``fault_policy``).
        max_restarts: re-runs allowed per task before the fault
            propagates (each retry charges exponential simulated
            backoff).
        fault_policy: pluggable chaos source (see
            :mod:`repro.mapreduce.faults`).
        quarantine: when True, rows that deterministically crash user
            callables — or lack a usable ``Time`` — are diverted to a
            ``{job}.quarantine`` dead-letter dataset instead of failing
            the stage.
        tracer: a :class:`repro.obs.Tracer` recording per-stage and
            per-partition spans plus cluster metrics (rows, shuffle
            bytes, skew, restarts, quarantine, simulated backoff).
            Defaults to the shared no-op tracer.
        context: a :class:`repro.runtime.RunContext` carrying the above
            settings (and more) as one value; the individual keyword
            arguments are shims that override its fields when passed.
    """

    def __init__(
        self,
        fs: Optional[DistributedFileSystem] = None,
        cost_model: Optional[CostModel] = None,
        failure_injector: Optional[FailureInjector] = None,
        max_restarts: Optional[int] = None,
        fault_policy: Optional[FaultPolicy] = None,
        quarantine: Optional[bool] = None,
        tracer=None,
        *,
        context: Optional[RunContext] = None,
    ):
        if failure_injector is not None and fault_policy is not None:
            raise ValueError("pass either failure_injector or fault_policy, not both")
        self.fs = fs or DistributedFileSystem()
        self.cost_model = cost_model or CostModel()
        self.failure_injector = failure_injector
        if failure_injector is not None:
            fault_policy = _InjectorPolicy(failure_injector)
        self.context = RunContext.of(
            context,
            tracer=tracer,
            fault_policy=fault_policy,
            max_restarts=max_restarts,
            quarantine=quarantine,
        )
        self.last_report: Optional[JobReport] = None
        self.last_quarantined: List[Row] = []
        #: per-worker fan-out counters of the most recent job's map
        #: phases (None when the run context resolves a serial executor)
        self.last_parallel = None

    @property
    def tracer(self):
        return self.context.tracer

    @property
    def fault_policy(self):
        return self.context.fault_policy

    @property
    def max_restarts(self) -> int:
        return self.context.max_restarts

    @property
    def quarantine(self) -> bool:
        return self.context.quarantine

    # -- execution ----------------------------------------------------------

    def run_job(
        self, job: MapReduceJob, input_name: str, output_name: Optional[str] = None
    ) -> DistributedFile:
        """Execute all stages of ``job`` starting from dataset ``input_name``.

        Intermediate datasets are materialized in the file system as
        ``{job.name}.stage{i}``; the final output is stored under
        ``output_name`` (default ``{job.name}.out``). Quarantined rows,
        if any, land in ``{job.name}.quarantine``.
        """
        if not job.stages:
            raise ValueError(f"job {job.name!r} has no stages")
        report = JobReport()
        self.last_quarantined = []
        self.last_parallel = None
        current = self.fs.read(input_name)
        quarantined: List[Row] = []
        for i, stage in enumerate(job.stages):
            is_last = i == len(job.stages) - 1
            if is_last:
                name = output_name or f"{job.name}.out"
            else:
                name = f"{job.name}.stage{i}"
            current, stage_report, stage_quarantine = self._run_stage(
                stage, current, name
            )
            report.stages.append(stage_report)
            quarantined.extend(stage_quarantine)
        self.last_report = report
        self.last_quarantined = quarantined
        if quarantined:
            self._flush_quarantine(f"{job.name}.quarantine", quarantined)
        return current

    def run_stage(
        self,
        stage: MapReduceStage,
        input_name: str,
        output_name: str,
        quarantine_name: Optional[str] = None,
    ) -> DistributedFile:
        """Execute a single stage (convenience for tests and TiMR).

        Quarantined rows are appended to ``quarantine_name`` (default
        ``{output_name}.quarantine``), so a multi-stage caller can funnel
        every stage's dead letters into one job-level dataset.
        """
        current = self.fs.read(input_name)
        self.last_parallel = None
        out, stage_report, quarantined = self._run_stage(stage, current, output_name)
        self.last_report = JobReport(stages=[stage_report])
        self.last_quarantined = quarantined
        if quarantined:
            self._flush_quarantine(
                quarantine_name or f"{output_name}.quarantine", quarantined
            )
        return out

    def _run_stage(
        self, stage: MapReduceStage, data: DistributedFile, output_name: str
    ) -> Tuple[DistributedFile, StageReport, List[Row]]:
        report = StageReport(name=stage.name, rows_in=data.num_rows)
        quarantined: List[Row] = []
        tracer = self.tracer

        with tracer.span(
            "cluster.stage", category="cluster", stage=stage.name
        ) as stage_span:
            # Simulated input (re-)read; a fault here is retried like any task.
            self._fault_point(FS_READ, stage.name, -1, report)

            # Map phase: transform (optional) then route rows to partitions.
            partitions: List[List[Row]] = [[] for _ in range(stage.num_partitions)]
            routed_rows = 0
            shuffle_bytes = 0
            executor = self.context.resolve_executor()
            map_results = None
            if race_check_mode(self.context) is not None:
                # shadow race checking wants one task at a time with the
                # serial schedule; map output is merged in partition
                # order either way, so the bytes cannot differ
                executor = SERIAL
            if executor.parallel and len(data.partitions) > 1:
                map_results = self._run_map_parallel(
                    executor, stage, data.partitions, report, quarantined
                )
                if tracer.enabled:
                    stage_span.set("map_executor", executor.kind)
                    stage_span.set("map_workers", executor.max_workers)
            for pi, part in enumerate(data.partitions):
                with tracer.span(
                    "cluster.map",
                    category="cluster",
                    stage=stage.name,
                    partition=pi,
                    rows_in=len(part),
                ) as map_span:
                    if map_results is not None:
                        # work already done on the executor; the span is
                        # a post-hoc summary carrying the worker-side
                        # busy time (spans themselves are main-thread)
                        routed, busy = map_results[pi]
                    else:
                        routed = self._run_map_partition(
                            stage, pi, part, report, quarantined
                        )
                        busy = None
                    if tracer.enabled:
                        map_span.set("rows_mapped", len(routed))
                        shuffle_bytes += sum(
                            len(repr(row)) for _, row in routed
                        )
                if busy is not None:
                    map_span.set_duration(busy)
                for idx, row in routed:
                    partitions[idx].append(row)
                routed_rows += len(routed)
            report.shuffle_seconds = self.cost_model.shuffle_seconds(routed_rows)
            report.num_partitions = stage.num_partitions

            # Reduce phase: run the reducer per partition, measuring work.
            # Parallel only without tracing: reducers embedding an engine
            # open driver-thread spans, which must keep nesting under the
            # partition span (the map closures never open spans, so the
            # map fan-out has no such constraint).
            reduce_results = None
            if executor.parallel and stage.num_partitions > 1 and not tracer.enabled:
                reduce_results = self._run_reduce_parallel(
                    executor, stage, partitions, report, quarantined
                )
            outputs: List[List[Row]] = []
            for idx, rows in enumerate(partitions):
                with tracer.span(
                    "cluster.partition",
                    category="cluster",
                    stage=stage.name,
                    partition=idx,
                    rows_in=len(rows),
                ) as part_span:
                    busy = None
                    if reduce_results is not None:
                        # work already done on the executor; the span is
                        # a post-hoc summary carrying the worker-side
                        # sort + reduce time (spans are main-thread)
                        out_rows, seconds, restarts, sort_seconds = (
                            reduce_results[idx]
                        )
                        busy = sort_seconds + seconds
                        if tracer.enabled and stage.sort_by_time:
                            part_span.set(
                                "sort_seconds", round(sort_seconds, 6)
                            )
                    else:
                        if stage.sort_by_time:
                            sort_start = (
                                _time.perf_counter() if tracer.enabled else 0.0
                            )
                            rows = self._sort_partition(
                                stage, idx, rows, quarantined
                            )
                            if tracer.enabled:
                                part_span.set(
                                    "sort_seconds",
                                    round(_time.perf_counter() - sort_start, 6),
                                )
                        out_rows, seconds, restarts = self._run_reducer(
                            stage, idx, rows, report, quarantined
                        )
                    if tracer.enabled:
                        part_span.set("rows_out", len(out_rows))
                        part_span.set("restarts", restarts)
                if busy is not None:
                    part_span.set_duration(busy)
                outputs.append(out_rows)
                report.partition_seconds.append(seconds)
                report.restarted_partitions += restarts

            # Simulated output write; likewise retried on injected faults.
            self._fault_point(FS_WRITE, stage.name, -1, report)
            report.rows_out = sum(len(p) for p in outputs)
            report.quarantined_rows = len(quarantined)

            if tracer.enabled:
                self._record_stage_telemetry(
                    stage_span, stage, report, partitions, routed_rows, shuffle_bytes
                )
        return self.fs.write_partitioned(output_name, outputs), report, quarantined

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

        metrics = self.tracer.metrics
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

    def _fault_point(
        self, site: str, stage_name: str, partition: int, report: StageReport
    ) -> None:
        """One injectable lifecycle point with the standard retry loop."""
        if self.fault_policy is None:
            return
        restarts = 0
        while True:
            try:
                self.fault_policy.maybe_fail(site, stage_name, partition, restarts + 1)
                return
            except InjectedFault:
                restarts += 1
                report.retry_backoff_seconds += (
                    self.cost_model.retry_backoff_base * (1 << (restarts - 1))
                )
                if restarts > self.max_restarts:
                    raise

    def _run_map_partition(
        self,
        stage: MapReduceStage,
        pi: int,
        rows: List[Row],
        report: StageReport,
        quarantined: List[Row],
    ) -> List[Tuple[int, Row]]:
        """Map + route one input partition, retrying on injected faults.

        Returns ``(partition_index, row)`` pairs. Rows whose map or
        routing raises are quarantined (when enabled) rather than
        poisoning the stage; the whole partition re-runs from scratch on
        an injected fault, which is safe because map is stateless.
        """
        restarts = 0
        while True:
            try:
                if self.fault_policy is not None:
                    self.fault_policy.maybe_fail(MAP, stage.name, pi, restarts + 1)
                routed, poisoned = self._map_partition_rows(stage, pi, rows)
                quarantined.extend(poisoned)
                return routed
            except InjectedFault:
                restarts += 1
                report.retry_backoff_seconds += (
                    self.cost_model.retry_backoff_base * (1 << (restarts - 1))
                )
                if restarts > self.max_restarts:
                    raise

    def _map_partition_rows(
        self, stage: MapReduceStage, pi: int, rows: List[Row]
    ) -> Tuple[List[Tuple[int, Row]], List[Row]]:
        """The pure map+route body: ``(routed pairs, dead-letter rows)``.

        Shared by the serial retry loop and the parallel fan-out. Reads
        only immutable driver state (stage callables, the quarantine
        flag), so it is safe to run on worker threads or forked children
        — map is stateless by the M-R restart contract.
        """
        routed: List[Tuple[int, Row]] = []
        poisoned: List[Row] = []
        map_fn, key_fn, partition_fn = stage.map_fn, stage.key_fn, stage.partition_fn
        num_partitions = stage.num_partitions
        # this call's hash routes by the key's marshalled bytes, which
        # are equal only for equal reprs; as dict keys 1, 1.0 and True
        # are one key with three reprs
        routes: dict = {}
        for source_row in rows:
            try:
                mapped = (source_row,) if map_fn is None else map_fn(source_row)
                row_routes: List[Tuple[int, Row]] = []
                for row in mapped:
                    if partition_fn is not None:
                        indices = partition_fn(row)
                    else:
                        key = key_fn(row)
                        try:
                            exact = _marshal(key, 2)
                        except ValueError:  # a value marshal cannot write
                            exact = None
                        indices = routes.get(exact)
                        if indices is None:
                            indices = (stable_hash(key) % num_partitions,)
                            if exact is not None and len(routes) < _ROUTE_MEMO_KEYS:
                                routes[exact] = indices
                    for idx in indices:
                        if not 0 <= idx < num_partitions:
                            raise IndexError(
                                f"stage {stage.name!r} routed row to partition "
                                f"{idx} of {num_partitions}"
                            )
                        row_routes.append((idx, row))
            except InjectedFault:
                raise
            except Exception as exc:
                if not self.quarantine:
                    raise
                poisoned.append(
                    self._quarantine_record(stage.name, pi, MAP, source_row, exc)
                )
                continue
            routed.extend(row_routes)
        return routed, poisoned

    def _run_map_parallel(
        self,
        executor,
        stage: MapReduceStage,
        parts: Sequence[List[Row]],
        report: StageReport,
        quarantined: List[Row],
    ) -> List[Tuple[List[Tuple[int, Row]], float]]:
        """Fan map tasks over input partitions, byte-identical to serial.

        Fault schedules must stay deterministic: chaos policies consume
        a sequential RNG per ``maybe_fail`` call, so the driver
        pre-consults the policy for every partition in serial partition
        order — charging exactly the backoff the serial loop would —
        before any map work fans out. The dispatched task is then the
        pure map+route body. Every shipped policy raises only from
        ``maybe_fail``, so workers never see injected faults; should an
        exotic policy raise one from inside user map code, that
        partition re-runs through the full serial retry loop (correct
        output, though the fault schedule then diverges from a
        pure-serial run). Quarantined rows and routed pairs merge in
        partition order, preserving the serial dead-letter dataset and
        per-partition hash routing byte for byte.
        """
        if self.fault_policy is not None:
            for pi in range(len(parts)):
                self._fault_point(MAP, stage.name, pi, report)
        mapper = self._map_partition_rows
        clock = _time.perf_counter

        def map_task(pi: int, rows: List[Row]):
            def task():
                start = clock()
                try:
                    routed, poisoned = mapper(stage, pi, rows)
                except InjectedFault:
                    return None  # exotic: retry serially in the driver
                return routed, poisoned, clock() - start

            return task

        raw = executor.run_tasks(
            [map_task(pi, rows) for pi, rows in enumerate(parts)]
        )
        self._fold_executor_stats(executor, stage)
        results = []
        for pi, res in enumerate(raw):
            if res is None:
                routed = self._run_map_partition(
                    stage, pi, parts[pi], report, quarantined
                )
                results.append((routed, 0.0))
                continue
            routed, poisoned, busy = res
            quarantined.extend(poisoned)
            results.append((routed, busy))
        return results

    def _fold_executor_stats(self, executor, stage: MapReduceStage) -> None:
        """Fold one fan-out's executor counters into ``last_parallel``."""
        if self.last_parallel is None:
            from ..runtime.parallel import ParallelStats

            self.last_parallel = ParallelStats(
                kind=executor.kind, max_workers=executor.max_workers
            )
        self.last_parallel.add(executor.last_stats)
        recovery = executor.last_recovery
        self.last_parallel.recovery.merge(recovery)
        self.last_parallel.overhead.merge(executor.last_overhead)
        if self.tracer.enabled and recovery.any():
            metrics = self.tracer.metrics
            for key, value in recovery.as_dict().items():
                if value:
                    # how far a killed pool worker got is a race, so the
                    # re-execution counts stay out of the deterministic
                    # snapshot
                    metrics.counter(
                        f"executor.{key}", stage=stage.name,
                        deterministic=False,
                    ).inc(value)

    def _sort_partition(
        self,
        stage: MapReduceStage,
        idx: int,
        rows: List[Row],
        quarantined: List[Row],
    ) -> List[Row]:
        """Secondary sort by Time; malformed rows quarantine instead of crash."""
        rows, records = self._sort_partition_rows(stage, idx, rows)
        quarantined.extend(records)
        return rows

    def _sort_partition_rows(
        self, stage: MapReduceStage, idx: int, rows: List[Row]
    ) -> Tuple[List[Row], List[Row]]:
        """The pure sort body: ``(sorted rows, dead-letter records)``.

        Shared by the serial loop and the parallel reduce fan-out; reads
        only immutable driver state, so it is safe on worker threads or
        forked children.
        """
        records: List[Row] = []
        if self.quarantine:
            usable: List[Row] = []
            for row in rows:
                time_value = row.get("Time") if isinstance(row, dict) else None
                if isinstance(time_value, (int, float)) and not isinstance(
                    time_value, bool
                ):
                    usable.append(row)
                else:
                    records.append(
                        self._quarantine_record(
                            stage.name,
                            idx,
                            "sort",
                            row,
                            ValueError(f"row has no usable 'Time' column: {time_value!r}"),
                        )
                    )
            rows = usable
        return sorted(rows, key=lambda r: r["Time"]), records

    def _run_reducer(
        self,
        stage: MapReduceStage,
        idx: int,
        rows: List[Row],
        report: StageReport,
        quarantined: List[Row],
    ) -> Tuple[List[Row], float, int]:
        """One partition's reduce: injected-fault draws, then the pure body.

        The draw loop and the reduce body are split so the parallel
        reduce can pre-consult the fault policy in the driver (serial
        partition order) while the pure body runs on a worker — and the
        serial path goes through the exact same two halves, so the fault
        schedule and quarantine bytes cannot depend on the executor.
        """
        restarts = self._predraw_reduce_faults(stage, idx, report)
        out_rows, seconds, real_restarts, poison = self._reduce_partition_rows(
            stage, idx, rows
        )
        quarantined.extend(poison)
        if real_restarts:
            report.retry_backoff_seconds += (
                self.cost_model.retry_backoff_base * real_restarts
            )
        return out_rows, seconds, restarts + real_restarts

    def _predraw_reduce_faults(
        self, stage: MapReduceStage, idx: int, report: StageReport
    ) -> int:
        """Consume one partition's reduce-phase fault draws, serially.

        Each attempt passes the shuffle and reduce sites in order, as
        the historical retry loop did, charging exponential backoff per
        injected restart and propagating past ``max_restarts``. Returns
        the injected restart count.
        """
        if self.fault_policy is None:
            return 0
        restarts = 0
        attempt = 0
        while True:
            attempt += 1
            try:
                self.fault_policy.maybe_fail(SHUFFLE, stage.name, idx, attempt)
                self.fault_policy.maybe_fail(REDUCE, stage.name, idx, attempt)
                return restarts
            except InjectedFault:
                restarts += 1
                report.retry_backoff_seconds += (
                    self.cost_model.retry_backoff_base * (1 << (restarts - 1))
                )
                if restarts > self.max_restarts:
                    raise

    def _reduce_partition_rows(
        self, stage: MapReduceStage, idx: int, rows: List[Row]
    ) -> Tuple[List[Row], float, int, List[Row]]:
        """The pure reduce body: ``(output rows, measured seconds, real
        restarts, dead-letter records)``.

        Consults no fault policy and touches no driver state, so it is
        safe on worker threads or forked children. A *real* failure —
        user code or malformed data — is retried once (the restart
        strategy costs nothing to try), then poison rows are bisected
        out (quarantine mode) or the stage fails with full context.
        """
        attempt = 0
        while True:
            attempt += 1
            start = _time.perf_counter()
            try:
                out_rows = list(stage.reducer(idx, rows))
                return out_rows, _time.perf_counter() - start, attempt - 1, []
            except InjectedFault:
                raise  # exotic: a policy firing inside user reduce code
            except Exception as exc:
                if attempt == 1:
                    continue
                if self.quarantine:
                    isolated = self._isolate_poison(stage, idx, rows)
                    if isolated is not None:
                        poison, out_rows, seconds = isolated
                        records = [
                            self._quarantine_record(
                                stage.name, idx, REDUCE, row, exc
                            )
                            for row in poison
                        ]
                        return out_rows, seconds, attempt - 1, records
                raise StageExecutionError(
                    stage.name, idx, attempt, len(rows), exc
                ) from exc

    def _run_reduce_parallel(
        self,
        executor,
        stage: MapReduceStage,
        partitions: Sequence[List[Row]],
        report: StageReport,
        quarantined: List[Row],
    ) -> List[Tuple[List[Row], float, int, float]]:
        """Fan reduce tasks over shuffled partitions, byte-identical to serial.

        Mirrors :meth:`_run_map_parallel`'s discipline: the driver
        pre-consults the fault policy for every partition in serial
        partition order (charging exactly the backoff the serial loop
        would), then dispatches the pure sort+reduce body. Quarantine
        records — sort dead letters first, then bisected poison rows —
        merge in partition order, so the ``{job}.quarantine`` dataset is
        byte-identical to a serial run. A task that sees an exotic
        injected fault or a real reduce failure returns ``None`` and
        that partition re-runs through the full serial path in the
        driver, preserving :class:`StageExecutionError` fidelity
        (exception type, attempt count, ``__cause__``).
        """
        predrawn = [
            self._predraw_reduce_faults(stage, idx, report)
            for idx in range(len(partitions))
        ]
        sorter = self._sort_partition_rows
        reducer = self._reduce_partition_rows
        sort_by_time = stage.sort_by_time
        clock = _time.perf_counter

        def reduce_task(idx: int, rows: List[Row]):
            def task():
                sort_seconds = 0.0
                sort_records: List[Row] = []
                if sort_by_time:
                    start = clock()
                    rows_sorted, sort_records = sorter(stage, idx, rows)
                    sort_seconds = clock() - start
                else:
                    rows_sorted = rows
                try:
                    out_rows, seconds, real_restarts, poison = reducer(
                        stage, idx, rows_sorted
                    )
                except (InjectedFault, StageExecutionError):
                    return None  # retry serially in the driver
                return (
                    out_rows,
                    seconds,
                    real_restarts,
                    poison,
                    sort_records,
                    sort_seconds,
                )

            return task

        raw = executor.run_tasks(
            [reduce_task(idx, rows) for idx, rows in enumerate(partitions)]
        )
        self._fold_executor_stats(executor, stage)
        results = []
        for idx, res in enumerate(raw):
            if res is None:
                rows = partitions[idx]
                sort_seconds = 0.0
                if sort_by_time:
                    start = clock()
                    rows = self._sort_partition(stage, idx, rows, quarantined)
                    sort_seconds = clock() - start
                out_rows, seconds, real_restarts, poison = (
                    self._reduce_partition_rows(stage, idx, rows)
                )
                quarantined.extend(poison)
                if real_restarts:
                    report.retry_backoff_seconds += (
                        self.cost_model.retry_backoff_base * real_restarts
                    )
                results.append(
                    (out_rows, seconds, predrawn[idx] + real_restarts, sort_seconds)
                )
                continue
            out_rows, seconds, real_restarts, poison, sort_records, sort_seconds = res
            quarantined.extend(sort_records)
            quarantined.extend(poison)
            if real_restarts:
                report.retry_backoff_seconds += (
                    self.cost_model.retry_backoff_base * real_restarts
                )
            results.append(
                (out_rows, seconds, predrawn[idx] + real_restarts, sort_seconds)
            )
        return results

    def _isolate_poison(
        self, stage: MapReduceStage, idx: int, rows: List[Row]
    ) -> Optional[Tuple[List[Row], List[Row], float]]:
        """Bisect a deterministically failing partition to its poison rows.

        Divide and conquer over the (already sorted) input: any subset
        that still fails is split until single offending rows remain —
        O(P log n) reducer probes for P poison rows. Returns ``(poison
        rows, output of the reducer over the surviving rows, measured
        seconds)``, or ``None`` when the failure is an interaction
        between rows that single-row removal cannot explain (the caller
        then fails the stage with context).
        """

        def failing(sub: Sequence[Row]) -> bool:
            try:
                list(stage.reducer(idx, list(sub)))
                return False
            except Exception:
                return True

        poison: List[Row] = []

        def find(sub: List[Row]) -> None:
            if not sub or not failing(sub):
                return
            if len(sub) == 1:
                poison.append(sub[0])
                return
            mid = len(sub) // 2
            find(sub[:mid])
            find(sub[mid:])

        find(rows)
        if not poison:
            return None
        poison_ids = {id(r) for r in poison}
        survivors = [r for r in rows if id(r) not in poison_ids]
        start = _time.perf_counter()
        try:
            out_rows = list(stage.reducer(idx, survivors))
        except Exception:
            return None  # still failing without the isolated rows
        return poison, out_rows, _time.perf_counter() - start

    # -- quarantine -----------------------------------------------------------

    @staticmethod
    def _quarantine_record(
        stage: str, partition: int, site: str, row: object, error: BaseException
    ) -> Row:
        """A dead-letter row: the offending row plus full diagnostics."""
        as_dict = dict(row) if isinstance(row, dict) else {"value": repr(row)}
        return {
            "Time": as_dict.get("Time"),
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

    # -- verification --------------------------------------------------------

    def verify_restart_determinism(
        self, stage: MapReduceStage, rows: Sequence[Row], partition: int = 0
    ) -> bool:
        """Run a reducer twice on the same partition; outputs must match.

        This is the repeatability property of Section III-C.1 that makes
        the DSMS safe under M-R's restart-based failure handling.
        """
        rows = sorted(rows, key=lambda r: r["Time"]) if stage.sort_by_time else list(rows)
        first = list(stage.reducer(partition, list(rows)))
        second = list(stage.reducer(partition, list(rows)))
        return first == second
