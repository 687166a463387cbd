"""Pluggable parallel executors with deterministic merge semantics.

The paper's BT pipeline is dominated by per-user GroupApply chains and
map-heavy TiMR stages that the real system fanned out across a cluster.
This module supplies the in-process analogue: an :class:`Executor`
abstraction that runs independent *tasks* — map and reduce tasks over
partitions, a wave's due chain advances on threads — concurrently while
keeping every externally visible result **byte-identical to a serial
run**.

Determinism is enforced at the merge, never trusted to scheduling:

* :meth:`Executor.run_tasks` always returns results in *task order*,
  whatever order workers finished in. Callers assign output positions
  (and GroupApply merge sequence numbers) from that order, so the
  interleaving chosen by the OS scheduler is unobservable.
* Work distribution is *chunked work-stealing*: workers claim fixed
  chunks of the task list from a shared cursor. Which worker runs which
  chunk varies run to run (and is reported via :class:`WorkerStats` as
  observability-only data); what each task computes does not.
* When any task raises, the executor raises the error of the
  **lowest-index** failing task — again independent of scheduling.

Three implementations:

* :class:`SerialExecutor` — runs tasks inline; the default everywhere
  and the reference the differential suite compares against.
* :class:`ThreadExecutor` — a per-call pool of worker threads. Shares
  the interpreter (GIL), so pure-Python operator work does not speed up,
  but it exercises the exact parallel code paths cheaply and lets
  C-backed payload work overlap.
* :class:`ProcessExecutor` — forked worker processes (POSIX only).
  Fork-based workers inherit the parent's memory, so task closures —
  plans full of user lambdas — need **no pickling**; only *results*
  (events, rows: plain picklable data) cross the pipe back. Where
  ``fork`` is unavailable the executor degrades to threads (flagged via
  :attr:`ProcessExecutor.can_fork`).

Tasks through the pool are coarse — a partition's map or reduce, not a
chain's advance: a GroupApply always runs on the driver's local wave
(``runtime/dataflow.py``), and a process executor reaches it only as a
counted resolution (docs/PARALLELISM.md).

Supervision
-----------

Parallel execution is *supervised*: the driver watches worker process
sentinels (not just queue timeouts), attributes every in-flight chunk
to its owning worker, and recovers from worker death by re-executing
the unacknowledged work inline. Because tasks are pure and the merge is
position-exact, a recovered run is byte-identical to an unfailed one —
the same argument the paper makes for MapReduce's restart-based failure
handling (Section III-C.1), applied one level down.

The knobs live in :class:`Supervision` (threaded in from
``RunContext``): a per-run worker retry budget
(``REPRO_WORKER_RETRIES``, default 3) and a call-time-resolved worker
timeout (``REPRO_PARALLEL_TIMEOUT``, default 300 s). When a worker kind
keeps failing past the budget, the executor *degrades* — process →
thread → serial — for the remainder of the run with an
:class:`ExecutorDegradedWarning` instead of failing the query.
Supervision activity is reported via :class:`RecoveryStats` (merged
into :class:`ParallelStats` and ``EngineStats.parallel``); fault
injection at the executor layer (``worker-kill`` / ``task-transient`` /
``reply-drop`` sites) is drawn deterministically in the driver — see
``mapreduce/faults.py`` and docs/FAULT_TOLERANCE.md.
"""

from __future__ import annotations

import os
import threading
import time as _time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.metrics import TIME_BUCKETS
from ..obs.trace import NULL_TRACER, WorkerSpanRecorder, absorb_worker_state

__all__ = [
    "Executor",
    "ExecutorDegradedWarning",
    "OverheadStats",
    "ParallelSafetyWarning",
    "ParallelStats",
    "ProcessExecutor",
    "RecoveryStats",
    "SerialExecutor",
    "Supervision",
    "ThreadExecutor",
    "WorkerStats",
    "force_parallel_requested",
    "resolve_executor",
    "resolve_retry_budget",
    "resolve_worker_timeout",
]

#: Environment knobs the default context resolves (see resolve_executor).
ENV_EXECUTOR = "REPRO_EXECUTOR"
ENV_WORKERS = "REPRO_WORKERS"

#: Skip the parallel-safety gate: run parallel even with findings.
ENV_FORCE_PARALLEL = "REPRO_FORCE_PARALLEL"

#: Supervision knobs, re-read at call time (see the resolvers below).
ENV_WORKER_TIMEOUT = "REPRO_PARALLEL_TIMEOUT"
ENV_RETRY_BUDGET = "REPRO_WORKER_RETRIES"

#: Seconds a driver waits on a worker before declaring it lost.
#: Generous on purpose: this is a hang breaker, not a performance knob.
DEFAULT_WORKER_TIMEOUT = 300.0

#: Worker deaths tolerated per run before the executor degrades a tier.
DEFAULT_RETRY_BUDGET = 3

#: How often the supervised driver wakes to check worker liveness.
_POLL_INTERVAL = 0.05

#: Injection attempts tolerated at one task-transient key before the
#: fault is treated as permanent (guards against policies that never
#: blacklist).
_MAX_TASK_ATTEMPTS = 32


class ParallelSafetyWarning(UserWarning):
    """A parallel run was downgraded to serial by the safety gate.

    Emitted by ``Engine.run`` / ``TiMR.run`` when the static
    parallel-safety pass (:mod:`repro.analysis.concurrency`) finds
    unsuppressed hazards and a non-serial executor was requested. The
    message names the findings and the escape hatches (``# repro:
    ignore[rule]``, ``--force-parallel``, ``REPRO_FORCE_PARALLEL=1``).
    """


class ExecutorDegradedWarning(UserWarning):
    """An executor exhausted its worker retry budget and degraded a tier.

    The run continues — process pools fall back to threads, thread
    pools to inline serial execution — with identical output (the merge
    is schedule-independent), just without the failed kind of fan-out.
    Raise the budget with ``REPRO_WORKER_RETRIES`` or
    ``RunContext(worker_retry_budget=...)``.
    """


def force_parallel_requested(context=None) -> bool:
    """True when the safety gate should be skipped for this run."""
    if context is not None and getattr(context, "force_parallel", False):
        return True
    return os.environ.get(ENV_FORCE_PARALLEL, "").strip().lower() not in (
        "", "0", "false", "off", "no",
    )


def resolve_worker_timeout(override: Optional[float] = None) -> float:
    """Worker-lost timeout in seconds, resolved at call time.

    ``override`` (a ``RunContext.worker_timeout`` / ``Supervision``
    value) wins; otherwise ``REPRO_PARALLEL_TIMEOUT`` is re-read on
    every call — tests can lower it with ``monkeypatch.setenv`` without
    reloading the module.
    """
    if override is not None:
        return float(override)
    raw = os.environ.get(ENV_WORKER_TIMEOUT)
    if raw:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_WORKER_TIMEOUT}={raw!r} is not a number of seconds"
            ) from None
    return DEFAULT_WORKER_TIMEOUT


def resolve_retry_budget(override: Optional[int] = None) -> int:
    """Worker deaths tolerated per run, resolved at call time."""
    if override is not None:
        return int(override)
    raw = os.environ.get(ENV_RETRY_BUDGET)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"{ENV_RETRY_BUDGET}={raw!r} is not an integer retry budget"
            ) from None
    return DEFAULT_RETRY_BUDGET


@dataclass
class Supervision:
    """Per-run supervision settings an executor runs under.

    Built by ``RunContext.resolve_executor()`` so fault policy and
    timeout/budget knobs reach the executor without widening every
    ``run_tasks`` call site. ``None`` fields defer to the environment
    (re-read at call time) and then to the defaults above.
    """

    fault_policy: Optional[object] = None
    retry_budget: Optional[int] = None
    worker_timeout: Optional[float] = None
    #: base of the exponential backoff charged to *simulated* time per
    #: recovery (mirrors the cluster's stage-retry accounting)
    backoff_base: float = 0.05
    #: the run's tracer (None = NULL_TRACER): when enabled, workers ship
    #: span/metric buffers back with results and the driver re-parents
    #: them into per-worker lanes (see repro.obs.trace)
    tracer: Optional[object] = None


@dataclass
class RecoveryStats:
    """Supervision activity during one run (observability only).

    Like :class:`WorkerStats`, nothing here ever feeds back into
    results: recovery re-executes pure tasks whose values are already
    determined, so these counters describe *how* the run survived, not
    *what* it computed.
    """

    worker_restarts: int = 0
    chunks_reexecuted: int = 0
    tasks_reexecuted: int = 0
    task_retries: int = 0
    replies_dropped: int = 0
    deadline_hits: int = 0
    degradations: int = 0
    backoff_seconds: float = 0.0

    def any(self) -> bool:
        return bool(
            self.worker_restarts
            or self.chunks_reexecuted
            or self.tasks_reexecuted
            or self.task_retries
            or self.replies_dropped
            or self.deadline_hits
            or self.degradations
        )

    def merge(self, other: "RecoveryStats") -> None:
        self.worker_restarts += other.worker_restarts
        self.chunks_reexecuted += other.chunks_reexecuted
        self.tasks_reexecuted += other.tasks_reexecuted
        self.task_retries += other.task_retries
        self.replies_dropped += other.replies_dropped
        self.deadline_hits += other.deadline_hits
        self.degradations += other.degradations
        self.backoff_seconds += other.backoff_seconds

    def as_dict(self) -> dict:
        return {
            "worker_restarts": self.worker_restarts,
            "chunks_reexecuted": self.chunks_reexecuted,
            "tasks_reexecuted": self.tasks_reexecuted,
            "task_retries": self.task_retries,
            "replies_dropped": self.replies_dropped,
            "deadline_hits": self.deadline_hits,
            "degradations": self.degradations,
            "backoff_seconds": round(self.backoff_seconds, 6),
        }


@dataclass
class OverheadStats:
    """Where the worker-time *budget* (workers × wall) of a run went.

    Every ``run_tasks`` call decomposes its capacity into six components
    (see :mod:`repro.obs.attribution` for the model): task function time
    (``compute``), result pickling (``serialize``), spawn/handoff gaps
    (``dispatch``), driver-side result folding (``merge``), recovery
    machinery and lost-lane capacity (``supervision``), and the clamped
    residual nobody used (``idle``). The components sum to the budget by
    construction, so an attribution table always covers ~100% of
    capacity. Observability only — never feeds back into results.
    """

    serialize_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    compute_seconds: float = 0.0
    idle_seconds: float = 0.0
    merge_seconds: float = 0.0
    supervision_seconds: float = 0.0
    wall_seconds: float = 0.0
    budget_seconds: float = 0.0
    calls: int = 0

    def finish(self, wall: float, workers: int) -> None:
        """Close one call: record wall/budget, make ``idle`` the residual."""
        self.calls += 1
        self.wall_seconds += wall
        budget = wall * workers
        self.budget_seconds += budget
        used = (
            self.serialize_seconds
            + self.dispatch_seconds
            + self.compute_seconds
            + self.merge_seconds
            + self.supervision_seconds
            + self.idle_seconds
        )
        self.idle_seconds += max(0.0, budget - used)

    def merge(self, other: "OverheadStats") -> "OverheadStats":
        self.serialize_seconds += other.serialize_seconds
        self.dispatch_seconds += other.dispatch_seconds
        self.compute_seconds += other.compute_seconds
        self.idle_seconds += other.idle_seconds
        self.merge_seconds += other.merge_seconds
        self.supervision_seconds += other.supervision_seconds
        self.wall_seconds += other.wall_seconds
        self.budget_seconds += other.budget_seconds
        self.calls += other.calls
        return self

    def as_dict(self) -> dict:
        return {
            "serialize_seconds": round(self.serialize_seconds, 6),
            "dispatch_seconds": round(self.dispatch_seconds, 6),
            "compute_seconds": round(self.compute_seconds, 6),
            "idle_seconds": round(self.idle_seconds, 6),
            "merge_seconds": round(self.merge_seconds, 6),
            "supervision_seconds": round(self.supervision_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "budget_seconds": round(self.budget_seconds, 6),
            "calls": self.calls,
        }


@dataclass
class WorkerStats:
    """What one worker did during one fan-out (observability only).

    ``tasks`` and ``chunks`` depend only on the work list; which worker
    claimed them — and therefore ``stolen_chunks`` and the timing fields
    — depends on OS scheduling. None of these values ever feed back into
    results, so determinism is preserved. ``busy_seconds`` is task
    function time only; ``serialize_seconds`` is result pickling/pipe
    time (process workers); ``lifetime_seconds`` spans the worker's
    start to exit, so ``lifetime - busy - serialize`` is its wait time.
    """

    worker: int
    tasks: int = 0
    chunks: int = 0
    stolen_chunks: int = 0
    busy_seconds: float = 0.0
    serialize_seconds: float = 0.0
    lifetime_seconds: float = 0.0


@dataclass
class ParallelStats:
    """Accumulated per-worker counters across a whole run."""

    kind: str = "serial"
    max_workers: int = 1
    calls: int = 0
    tasks: int = 0
    chunks: int = 0
    stolen_chunks: int = 0
    busy_seconds: float = 0.0
    per_worker: Dict[int, WorkerStats] = field(default_factory=dict)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    overhead: OverheadStats = field(default_factory=OverheadStats)

    def add(self, worker_stats: Sequence[WorkerStats]) -> None:
        if not worker_stats:
            return
        self.calls += 1
        for ws in worker_stats:
            self.tasks += ws.tasks
            self.chunks += ws.chunks
            self.stolen_chunks += ws.stolen_chunks
            self.busy_seconds += ws.busy_seconds
            agg = self.per_worker.get(ws.worker)
            if agg is None:
                agg = WorkerStats(worker=ws.worker)
                self.per_worker[ws.worker] = agg
            agg.tasks += ws.tasks
            agg.chunks += ws.chunks
            agg.stolen_chunks += ws.stolen_chunks
            agg.busy_seconds += ws.busy_seconds
            agg.serialize_seconds += ws.serialize_seconds
            agg.lifetime_seconds += ws.lifetime_seconds

    def merge(self, other: "ParallelStats") -> "ParallelStats":
        """Fold another accumulation into this one (returns self).

        Used by multi-stage drivers (TiMR folds per-stage cluster stats
        into one job-level summary).
        """
        self.calls += other.calls
        self.tasks += other.tasks
        self.chunks += other.chunks
        self.stolen_chunks += other.stolen_chunks
        self.busy_seconds += other.busy_seconds
        for wid, ws in other.per_worker.items():
            agg = self.per_worker.get(wid)
            if agg is None:
                agg = WorkerStats(worker=wid)
                self.per_worker[wid] = agg
            agg.tasks += ws.tasks
            agg.chunks += ws.chunks
            agg.stolen_chunks += ws.stolen_chunks
            agg.busy_seconds += ws.busy_seconds
            agg.serialize_seconds += ws.serialize_seconds
            agg.lifetime_seconds += ws.lifetime_seconds
        self.recovery.merge(other.recovery)
        self.overhead.merge(other.overhead)
        return self

    def as_dict(self) -> dict:
        return {
            "executor": self.kind,
            "max_workers": self.max_workers,
            "calls": self.calls,
            "tasks": self.tasks,
            "chunks": self.chunks,
            "stolen_chunks": self.stolen_chunks,
            "busy_seconds": round(self.busy_seconds, 6),
            "recovery": self.recovery.as_dict(),
            "overhead": self.overhead.as_dict(),
            "workers": [
                {
                    "worker": ws.worker,
                    "tasks": ws.tasks,
                    "chunks": ws.chunks,
                    "stolen_chunks": ws.stolen_chunks,
                    "busy_seconds": round(ws.busy_seconds, 6),
                    "serialize_seconds": round(ws.serialize_seconds, 6),
                    "lifetime_seconds": round(ws.lifetime_seconds, 6),
                }
                for ws in sorted(self.per_worker.values(), key=lambda w: w.worker)
            ],
        }


class _TaskError(Exception):
    """Internal carrier: (task index, formatted traceback)."""

    def __init__(self, index: int, detail: str):
        super().__init__(detail)
        self.index = index
        self.detail = detail


def _raise_lowest(errors: List[_TaskError]) -> None:
    """Raise the lowest-index failure — independent of scheduling."""
    first = min(errors, key=lambda e: e.index)
    raise RuntimeError(
        f"parallel task {first.index} failed:\n{first.detail}"
    )


def _chunk_size(n_tasks: int, n_workers: int) -> int:
    """Chunks per worker ~4: small enough to steal, big enough to amortize."""
    return max(1, -(-n_tasks // (n_workers * 4)))


#: Sentinel for a result slot no worker has acknowledged yet. ``None``
#: is a legitimate task value (cluster map tasks return it on exotic
#: faults), so supervision needs a value no task can produce.
_UNSET = object()

#: Degradation ladder order (None = the executor's native tier).
_TIER_ORDER = {None: 0, "thread": 1, "serial": 2}

#: Per-thread marker set while a pool worker (thread or forked child)
#: executes tasks. Forked children inherit the spawning thread's False
#: and set True at entry; worker threads set it in their own slot.
_worker_state = threading.local()


def in_parallel_worker() -> bool:
    """True when the calling thread is a parallel executor's pool worker.

    Nested :func:`resolve_executor` calls resolve to serial there: a
    daemonic pool child cannot fork grandchildren, and the
    coarse-grained schedule wants exactly one level of fan-out — an
    embedded engine inside a parallelized reduce partition runs inline
    on the worker instead of spawning a second tier of workers. Outputs
    are byte-identical either way (the executor contract), so the only
    observable difference is the absence of oversubscription.
    """
    return getattr(_worker_state, "active", False)


class Executor:
    """Strategy object: how independent tasks are fanned out.

    Executors hold **no persistent OS resources** — worker threads and
    forked pools live only for the duration of one :meth:`run_tasks`
    call. That makes executor objects cheap, reusable, and safe to stash
    in a frozen :class:`~repro.runtime.RunContext`.

    Supervision state *is* per-instance: worker failures accumulate
    against the retry budget across calls, and a degradation
    (:attr:`degraded`) sticks for the remainder of the run.
    """

    kind = "serial"
    parallel = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        supervision: Optional[Supervision] = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        #: per-worker stats of the most recent run_tasks call (the
        #: single-threaded driver reads this right after the call)
        self.last_stats: List[WorkerStats] = []
        #: supervision activity of the most recent run_tasks call
        self.last_recovery = RecoveryStats()
        #: overhead decomposition of the most recent run_tasks call
        self.last_overhead = OverheadStats()
        #: (worker id, claimed chunk start) pairs of the workers lost in
        #: the most recent call — the attribution behind the recovery
        self.last_lost: List = []
        self.supervision = supervision if supervision is not None else Supervision()
        self._degraded: Optional[str] = None
        self._worker_failures = 0

    # -- protocol ------------------------------------------------------------

    def run_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        """Run every task; return results in task order (the merge rule)."""
        raise NotImplementedError

    @property
    def tracer(self):
        """The run's tracer (:data:`~repro.obs.trace.NULL_TRACER` default)."""
        t = self.supervision.tracer
        return t if t is not None else NULL_TRACER

    @property
    def degraded(self) -> Optional[str]:
        """The tier this executor fell back to (``None``: native tier)."""
        return self._degraded

    def force_degrade(self, to_kind: str) -> None:
        """Pin this executor at a lower tier for the rest of the run
        (never back up: the lower tier wins)."""
        if _TIER_ORDER[to_kind] > _TIER_ORDER[self._degraded]:
            self._degraded = to_kind
            self._worker_failures = 0  # a fresh budget for the new tier

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.max_workers}>"

    # -- supervision helpers -------------------------------------------------

    def _predraw_task_retries(self, n: int, rec: RecoveryStats, stage: str) -> None:
        """Consult the fault policy for per-task transient faults.

        Draws happen in the driver in task order — never in workers — so
        the injection schedule is independent of OS scheduling, exactly
        like the cluster's pre-consulted map draws. Each injected fault
        charges exponential backoff to *simulated* time and retries the
        (virtual) attempt; blacklisting bounds the loop, with a hard cap
        as a backstop for policies that never relent.
        """
        policy = self.supervision.fault_policy
        if policy is None:
            return
        from ..mapreduce.faults import TASK_TRANSIENT, InjectedFault

        base = self.supervision.backoff_base
        for i in range(n):
            attempt = 1
            while True:
                try:
                    policy.maybe_fail(TASK_TRANSIENT, stage, i, attempt)
                    break
                except InjectedFault as fault:
                    if attempt >= _MAX_TASK_ATTEMPTS:
                        raise RuntimeError(
                            f"task {i} still faulting after "
                            f"{_MAX_TASK_ATTEMPTS} attempts at {stage}"
                        ) from fault
                    rec.task_retries += 1
                    rec.backoff_seconds += base * (1 << (attempt - 1))
                    attempt += 1

    def _predraw_worker_kills(self, count: int, stage: str):
        """Which workers the seeded chaos policy kills this call."""
        policy = self.supervision.fault_policy
        if policy is None:
            return set()
        from ..mapreduce.faults import WORKER_KILL, InjectedFault

        doomed = set()
        for wid in range(count):
            try:
                policy.maybe_fail(WORKER_KILL, stage, wid, 1)
            except InjectedFault:
                doomed.add(wid)
        return doomed

    def _predraw_reply_drops(self, n: int, chunk: int, stage: str):
        """Chunk starts whose first reply the driver will discard."""
        policy = self.supervision.fault_policy
        if policy is None:
            return set()
        from ..mapreduce.faults import REPLY_DROP, InjectedFault

        drops = set()
        for ci, start in enumerate(range(0, n, chunk)):
            try:
                policy.maybe_fail(REPLY_DROP, stage, ci, 1)
            except InjectedFault:
                drops.add(start)
        return drops

    def _refill_missing(
        self, tasks, results: List[object], rec: RecoveryStats, chunk: int
    ) -> List[_TaskError]:
        """Re-execute every task whose result never arrived, inline.

        This is the recovery ground truth: whatever messages were lost
        (dead worker, dropped reply, abandoned thread), any slot still
        unacknowledged is recomputed in the driver. Tasks are pure, so
        the refilled values are byte-identical to what the worker would
        have sent.
        """
        missing = [i for i, r in enumerate(results) if r is _UNSET]
        if not missing:
            return []
        import traceback

        rec.tasks_reexecuted += len(missing)
        groups: Dict[int, List[int]] = {}
        for i in missing:
            groups.setdefault((i // chunk) * chunk, []).append(i)
        rec.chunks_reexecuted += len(groups)
        tracer = self.tracer
        errors: List[_TaskError] = []
        for start in sorted(groups):
            idxs = groups[start]
            span = None
            if tracer.enabled:
                # the re-executed chunk gets a real span on the driver's
                # recovery lane, so the trace shows exactly one span per
                # chunk even when the original owner died mid-claim
                span = tracer.span(
                    "worker.chunk",
                    category="worker",
                    chunk_start=start,
                    tasks=len(idxs),
                    lane="driver",
                    recovered=True,
                )
                span.__enter__()
            try:
                for i in idxs:
                    try:
                        results[i] = tasks[i]()
                    except BaseException:
                        errors.append(_TaskError(i, traceback.format_exc()))
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
        return errors

    def _note_worker_failures(self, count: int, rec: RecoveryStats) -> None:
        """Charge ``count`` worker deaths against the run's retry budget."""
        if count <= 0:
            return
        rec.worker_restarts += count
        base = self.supervision.backoff_base
        for _ in range(count):
            self._worker_failures += 1
            rec.backoff_seconds += base * (
                1 << min(self._worker_failures - 1, 20)
            )
        budget = resolve_retry_budget(self.supervision.retry_budget)
        if self._worker_failures > budget:
            self._degrade(rec)

    def _degrade(self, rec: RecoveryStats) -> None:
        if self._degraded == "serial":
            return
        nxt = (
            "thread"
            if self.kind == "process" and self._degraded is None
            else "serial"
        )
        self.force_degrade(nxt)
        rec.degradations += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.event(
                "supervision.degraded", category="supervision",
                lane="driver", to=nxt,
            )
        warnings.warn(
            ExecutorDegradedWarning(
                f"{self.kind} executor exceeded its worker retry budget; "
                f"degrading to {nxt} execution for the remainder of the "
                f"run (raise the budget with {ENV_RETRY_BUDGET} or "
                f"RunContext(worker_retry_budget=...))"
            ),
            stacklevel=4,
        )


class SerialExecutor(Executor):
    """Run tasks inline, in order — the reference semantics."""

    kind = "serial"
    parallel = False

    def __init__(
        self,
        max_workers: Optional[int] = None,
        supervision: Optional[Supervision] = None,
    ):
        super().__init__(max_workers=1, supervision=supervision)

    def run_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        self.last_recovery = RecoveryStats()
        overhead = self.last_overhead = OverheadStats()
        t0 = _time.perf_counter()
        results = [task() for task in tasks]
        busy = _time.perf_counter() - t0
        self.last_stats = [
            WorkerStats(
                worker=0,
                tasks=len(tasks),
                chunks=1 if tasks else 0,
                busy_seconds=busy,
                lifetime_seconds=busy,
            )
        ]
        overhead.compute_seconds = busy
        overhead.finish(busy, 1)
        return results


class ThreadExecutor(Executor):
    """Worker threads with chunked work-stealing over the task list."""

    kind = "thread"
    parallel = True

    def run_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        n = len(tasks)
        if self._degraded == "serial" or n <= 1:
            return SerialExecutor.run_tasks(self, tasks)
        rec = self.last_recovery = RecoveryStats()
        overhead = self.last_overhead = OverheadStats()
        tracer = self.tracer
        trace_on = tracer.enabled
        self._predraw_task_retries(n, rec, "executor.pool")
        workers = min(self.max_workers, n)
        chunk = _chunk_size(n, workers)
        results: List[object] = [_UNSET] * n
        errors: List[_TaskError] = []
        cursor = [0]
        lock = threading.Lock()
        stats = [WorkerStats(worker=i) for i in range(workers)]
        recorders = [WorkerSpanRecorder() if trace_on else None for _ in range(workers)]
        call_t0 = _time.perf_counter()

        def worker(wid: int) -> None:
            import traceback

            _worker_state.active = True
            ws = stats[wid]
            recorder = recorders[wid]
            t0 = _time.perf_counter()
            try:
                while True:
                    with lock:
                        start = cursor[0]
                        if start >= n:
                            break
                        cursor[0] = start + chunk
                    ws.chunks += 1
                    if ws.chunks > 1:
                        ws.stolen_chunks += 1
                    end = min(start + chunk, n)
                    span = None
                    if recorder is not None:
                        span = recorder.span(
                            "worker.chunk", category="worker",
                            chunk_start=start, tasks=end - start,
                        )
                        span.__enter__()
                    c0 = _time.perf_counter()
                    try:
                        for i in range(start, end):
                            try:
                                results[i] = tasks[i]()
                            except BaseException:
                                with lock:
                                    errors.append(
                                        _TaskError(i, traceback.format_exc())
                                    )
                                ws.tasks += 1
                                if span is not None:
                                    span.set("error", True)
                                return  # this worker stops; others drain
                            ws.tasks += 1
                    finally:
                        ws.busy_seconds += _time.perf_counter() - c0
                        if span is not None:
                            span.__exit__(None, None, None)
            finally:
                ws.lifetime_seconds = _time.perf_counter() - t0

        threads = [
            threading.Thread(
                target=worker, args=(i,), name=f"repro-exec-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in threads:
            t.start()
        if trace_on:
            for wid in range(workers):
                tracer.event(
                    "supervision.spawn", category="supervision",
                    lane=f"worker-{wid}", worker=wid, tier="thread",
                )
        timeout = resolve_worker_timeout(self.supervision.worker_timeout)
        deadline = _time.monotonic() + timeout
        stalled = 0
        for t in threads:
            t.join(max(0.0, deadline - _time.monotonic()))
            if t.is_alive():
                stalled += 1
        window = _time.perf_counter() - call_t0  # the workers' live window
        self.last_stats = stats
        if errors:
            _raise_lowest(errors)
        supervision_t = 0.0
        if stalled:
            # deadline recovery: abandon the stuck daemon threads and
            # re-run their unfinished tasks inline. A straggler that
            # races a late write stores the identical value (tasks are
            # pure), so the refill stays byte-identical.
            rec.deadline_hits += 1
            if trace_on:
                tracer.event(
                    "supervision.deadline", category="supervision",
                    lane="driver", stalled=stalled,
                )
            s0 = _time.perf_counter()
            refill_errors = self._refill_missing(tasks, results, rec, chunk)
            supervision_t += _time.perf_counter() - s0
            if refill_errors:
                _raise_lowest(refill_errors)
            self._note_worker_failures(stalled, rec)
        if trace_on:
            for wid, recorder in enumerate(recorders):
                absorb_worker_state(
                    tracer, recorder.state(), lane=f"worker-{wid}", worker=wid
                )
            chunk_hist = tracer.metrics.histogram("executor.chunk_tasks")
            for start in range(0, n, chunk):
                chunk_hist.observe(min(chunk, n - start))
        overhead.compute_seconds = sum(ws.busy_seconds for ws in stats)
        overhead.dispatch_seconds = sum(
            max(0.0, window - ws.lifetime_seconds)
            for ws in stats
            if ws.lifetime_seconds > 0
        )
        overhead.supervision_seconds = supervision_t + stalled * window
        overhead.finish(_time.perf_counter() - call_t0, workers)
        return results


def _fork_context():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class ProcessExecutor(ThreadExecutor):
    """Forked worker processes; falls back to threads without ``fork``.

    ``run_tasks`` forks a fresh pool per call: children inherit the task
    closures through copy-on-write memory (no pickling of plans or user
    lambdas), claim chunks from a shared cursor, and pipe *results* back
    tagged with their task index, so the merge is position-exact. Task
    results must therefore be picklable — events and rows with plain
    payloads are; exotic payload objects should use threads instead.

    The pool is *supervised*: the driver polls child sentinels while it
    drains the result queue, attributes each claimed chunk to its owner
    through a shared claims array, and re-executes any unacknowledged
    task inline when a worker dies — byte-identically, since tasks are
    pure and slots are position-exact. Worker deaths count against the
    run's retry budget; exhausting it degrades the executor to threads
    (then serial) with an :class:`ExecutorDegradedWarning`.
    """

    kind = "process"
    parallel = True

    #: False on platforms without os.fork (the executor then runs threads).
    can_fork = _fork_context() is not None

    def run_tasks(self, tasks: Sequence[Callable[[], object]]) -> List[object]:
        n = len(tasks)
        if self._degraded is not None or n <= 1 or not self.can_fork:
            return super().run_tasks(tasks)
        rec = self.last_recovery = RecoveryStats()
        overhead = self.last_overhead = OverheadStats()
        sup = self.supervision
        tracer = self.tracer
        trace_on = tracer.enabled  # inherited by forked children
        ctx = _fork_context()
        workers = min(self.max_workers, n)
        chunk = _chunk_size(n, workers)
        # seeded executor chaos, drawn serially in the driver so the
        # schedule is reproducible (workers never consult the policy)
        kill_plan = self._predraw_worker_kills(workers, "executor.pool")
        drop_plan = self._predraw_reply_drops(n, chunk, "executor.pool")
        self._predraw_task_retries(n, rec, "executor.pool")
        cursor = ctx.Value("l", 0)
        claims = ctx.Array("l", [-1] * workers)
        queue = ctx.Queue()

        def child(wid: int) -> None:  # pragma: no cover - runs in fork
            import traceback

            _worker_state.active = True
            if wid in kill_plan:
                # injected crash: claim one chunk if work remains, burn
                # half of it, then die holding the claim with nothing
                # reported — the driver must notice and recover. Dying
                # unconditionally (even when siblings drained the
                # cursor first) keeps the kill schedule deterministic.
                with cursor.get_lock():
                    start = cursor.value
                    if start < n:
                        cursor.value = start + chunk
                        claims[wid] = start
                    else:
                        start = n
                for i in range(start, (start + min(start + chunk, n)) // 2):
                    try:
                        tasks[i]()
                    except BaseException:
                        pass
                os._exit(113)
            recorder = WorkerSpanRecorder() if trace_on else None
            if recorder is not None:
                import pickle as _pickle

                task_hist = recorder.metrics.histogram(
                    "executor.task_seconds",
                    buckets=TIME_BUCKETS,
                    deterministic=False,
                )
                pipe_hist = recorder.metrics.histogram(
                    "executor.pipe_bytes", deterministic=False
                )
            tasks_done = chunks = stolen = 0
            busy_s = send_s = 0.0
            t0 = _time.perf_counter()
            failed = False
            try:
                while True:
                    with cursor.get_lock():
                        start = cursor.value
                        if start >= n:
                            break
                        cursor.value = start + chunk
                        claims[wid] = start
                    chunks += 1
                    if chunks > 1:
                        stolen += 1
                    end = min(start + chunk, n)
                    block = []
                    span = None
                    if recorder is not None:
                        span = recorder.span(
                            "worker.chunk", category="worker",
                            chunk_start=start, tasks=end - start,
                        )
                        span.__enter__()
                    c0 = _time.perf_counter()
                    for i in range(start, end):
                        try:
                            if recorder is not None:
                                tk0 = _time.perf_counter()
                                block.append(tasks[i]())
                                task_hist.observe(_time.perf_counter() - tk0)
                            else:
                                block.append(tasks[i]())
                        except BaseException:
                            # report the completed prefix, then the true
                            # failing task index (not the chunk start)
                            busy_s += _time.perf_counter() - c0
                            if span is not None:
                                span.set("error", True)
                                span.__exit__(None, None, None)
                            if block:
                                s0 = _time.perf_counter()
                                queue.put(("ok", wid, start, block))
                                send_s += _time.perf_counter() - s0
                            queue.put(
                                ("err", wid, i, traceback.format_exc())
                            )
                            failed = True
                            break
                    if failed:
                        break  # this worker stops; others drain the cursor
                    busy_s += _time.perf_counter() - c0
                    if span is not None:
                        span.__exit__(None, None, None)
                        pipe_hist.observe(len(_pickle.dumps(block)))
                    tasks_done += end - start
                    s0 = _time.perf_counter()
                    queue.put(("ok", wid, start, block))
                    send_s += _time.perf_counter() - s0
            finally:
                queue.put(
                    (
                        "done",
                        wid,
                        (
                            tasks_done,
                            chunks,
                            stolen,
                            busy_s,
                            send_s,
                            _time.perf_counter() - t0,
                            recorder.state() if recorder is not None else None,
                        ),
                    )
                )
                queue.close()

        procs = [
            ctx.Process(target=child, args=(i,), daemon=True)
            for i in range(workers)
        ]
        call_t0 = _time.perf_counter()
        for p in procs:
            p.start()
        if trace_on:
            for wid in range(workers):
                tracer.event(
                    "supervision.spawn", category="supervision",
                    lane=f"worker-{wid}", worker=wid, tier="process",
                )
        results: List[object] = [_UNSET] * n
        stats = [WorkerStats(worker=i) for i in range(workers)]
        states: Dict[int, object] = {}
        dropped: List[int] = []
        errors: List[_TaskError] = []
        done = set()
        lost = set()
        merge_t = 0.0
        timeout = resolve_worker_timeout(sup.worker_timeout)
        import queue as _queue_mod

        last_progress = _time.monotonic()
        try:
            while len(done) + len(lost) < workers:
                try:
                    msg = queue.get(timeout=_POLL_INTERVAL)
                except _queue_mod.Empty:
                    # no message: check the process sentinels, not just
                    # the clock — a crashed child never sends "done"
                    progressed = False
                    for wid, p in enumerate(procs):
                        if wid in done or wid in lost:
                            continue
                        if not p.is_alive():
                            p.join()
                            lost.add(wid)
                            progressed = True
                    now = _time.monotonic()
                    if progressed:
                        last_progress = now
                    elif now - last_progress > timeout:
                        # every worker claims alive yet nothing arrives:
                        # per-call deadline. Reap the pool and recover
                        # inline rather than failing the run.
                        rec.deadline_hits += 1
                        if trace_on:
                            tracer.event(
                                "supervision.deadline",
                                category="supervision",
                                lane="driver",
                            )
                        for wid, p in enumerate(procs):
                            if wid not in done:
                                p.terminate()
                                p.join(5)
                                lost.add(wid)
                    continue
                last_progress = _time.monotonic()
                tag = msg[0]
                if tag == "ok":
                    _, wid, start, block = msg
                    if start in drop_plan:
                        # injected reply loss: the block vanishes in the
                        # pipe; the refill pass recovers the slots
                        drop_plan.discard(start)
                        rec.replies_dropped += 1
                        dropped.append(start)
                        continue
                    m0 = _time.perf_counter()
                    results[start : start + len(block)] = block
                    merge_t += _time.perf_counter() - m0
                elif tag == "err":
                    _, wid, index, detail = msg
                    errors.append(_TaskError(index, detail))
                else:  # done
                    _, wid, payload = msg
                    (tasks_done, chunks, stolen, busy, send_s, lifetime,
                     state) = payload
                    ws = stats[wid]
                    ws.tasks, ws.chunks, ws.stolen_chunks = (
                        tasks_done, chunks, stolen,
                    )
                    ws.busy_seconds = busy
                    ws.serialize_seconds = send_s
                    ws.lifetime_seconds = lifetime
                    if state is not None:
                        states[wid] = state
                    if wid in lost:
                        # the liveness probe raced a clean exit whose
                        # stats were still in flight — not a crash
                        lost.discard(wid)
                    done.add(wid)
        finally:
            for p in procs:
                p.join(5)
                if p.is_alive():  # pragma: no cover - hang breaker
                    p.terminate()
                    p.join(5)
            queue.close()
            queue.join_thread()
        window = _time.perf_counter() - call_t0  # the workers' live window
        self.last_stats = stats
        # attribution: which chunk each lost worker held when it died
        self.last_lost = [
            (wid, claims[wid]) for wid in sorted(lost) if claims[wid] >= 0
        ]
        if errors:
            _raise_lowest(errors)
        if trace_on:
            # supervision markers, in deterministic order (the kill and
            # drop plans are seeded; arrival order is not)
            for wid in sorted(lost):
                tracer.event(
                    "supervision.worker_lost", category="supervision",
                    lane=f"worker-{wid}", worker=wid,
                )
            for start in sorted(dropped):
                tracer.event(
                    "supervision.reply_dropped", category="supervision",
                    lane="driver", chunk_start=start,
                )
        supervision_t = 0.0
        s0 = _time.perf_counter()
        refill_errors = self._refill_missing(tasks, results, rec, chunk)
        supervision_t += _time.perf_counter() - s0
        if refill_errors:
            _raise_lowest(refill_errors)
        self._note_worker_failures(len(lost), rec)
        if trace_on:
            for wid in sorted(states):
                absorb_worker_state(
                    tracer, states[wid], lane=f"worker-{wid}", worker=wid
                )
            chunk_hist = tracer.metrics.histogram("executor.chunk_tasks")
            for start in range(0, n, chunk):
                chunk_hist.observe(min(chunk, n - start))
        overhead.compute_seconds = sum(ws.busy_seconds for ws in stats)
        overhead.serialize_seconds = sum(ws.serialize_seconds for ws in stats)
        overhead.dispatch_seconds = sum(
            max(0.0, window - ws.lifetime_seconds)
            for ws in stats
            if ws.lifetime_seconds > 0
        )
        overhead.merge_seconds = merge_t
        overhead.supervision_seconds = supervision_t + len(lost) * window
        overhead.finish(_time.perf_counter() - call_t0, workers)
        return results

#: The shared inline executor (serial runs have no supervision state).
SERIAL = SerialExecutor()

_KINDS = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def resolve_executor(
    spec=None,
    max_workers: Optional[int] = None,
    supervision: Optional[Supervision] = None,
) -> Executor:
    """Resolve an executor spec (string / instance / None) to an instance.

    ``None`` defers to the environment: ``REPRO_EXECUTOR`` names the
    kind and ``REPRO_WORKERS`` the worker count (``REPRO_WORKERS`` > 1
    alone selects threads), falling back to serial. This is what lets CI
    run the whole test suite under ``workers=4`` without touching any
    call site, while explicit specs — ``RunContext(executor="serial")``,
    an :class:`Executor` instance — stay pinned.

    ``"auto"`` picks processes when ``fork`` is available (real
    multi-core speedup) and threads otherwise.

    ``supervision`` (when given) is attached to the resolved executor —
    including a passed-through instance, so a context's fault policy and
    timeout/budget knobs always reach the executor that runs under it.

    On a pool worker thread or forked child (a nested engine inside a
    parallelized task) every spec resolves to serial: one level of
    fan-out, no daemonic grandchildren. See :func:`in_parallel_worker`.
    """
    if in_parallel_worker():
        return SerialExecutor(supervision=supervision)
    if isinstance(spec, Executor):
        if supervision is not None:
            spec.supervision = supervision
        return spec
    if spec is None:
        spec = os.environ.get(ENV_EXECUTOR) or None
        if spec is not None and spec not in _KINDS and spec != "auto":
            raise ValueError(
                f"{ENV_EXECUTOR}={spec!r} names an unknown executor; "
                f"expected one of {sorted(_KINDS)} or 'auto'"
            )
        if max_workers is None:
            env_workers = os.environ.get(ENV_WORKERS)
            if env_workers:
                try:
                    max_workers = int(env_workers)
                except ValueError:
                    raise ValueError(
                        f"{ENV_WORKERS}={env_workers!r} is not an integer "
                        "worker count"
                    ) from None
        if spec is None:
            spec = "thread" if (max_workers or 1) > 1 else "serial"
    if spec == "auto":
        spec = "process" if ProcessExecutor.can_fork else "thread"
    if (max_workers or 1) <= 1 and spec != "serial" and not isinstance(spec, Executor):
        # one worker cannot fan out; keep the cheap inline path unless the
        # caller explicitly asked for a kind with default (cpu_count) workers
        if max_workers is not None:
            return SerialExecutor(supervision=supervision)
    try:
        cls = _KINDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown executor {spec!r}; expected one of "
            f"{sorted(_KINDS)} or 'auto'"
        ) from None
    return cls(max_workers=max_workers, supervision=supervision)
