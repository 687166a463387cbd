"""One bundle of run-wide plumbing shared by every execution layer.

Before this module existed each layer grew its own ``tracer=None →
NULL_TRACER`` fallback, its own fault/quarantine kwargs, and its own
checkpoint parameters — eighteen-odd scattered defaults that had to be
threaded by hand from the CLI through :class:`~repro.mapreduce.cluster.
Cluster`, :class:`~repro.timr.runner.TiMR`, and the embedded engines.
:class:`RunContext` replaces them with a single immutable value: build
one at the entry point, hand it to any layer, and every nested component
(a TiMR reducer's embedded engine, a GroupApply sub-plan chain) inherits
the same tracer, fault policy, clock, and checkpoint settings.

The context is frozen; use :meth:`RunContext.derive` to produce a
variant (e.g. the chaos CLI deriving a per-phase fault policy from one
base context). Constructors keep their legacy keyword arguments as thin
shims resolved through :meth:`RunContext.of`.
"""

from __future__ import annotations

import gc
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..obs.trace import NULL_TRACER


class _CollectorPause:
    """The process-wide pause of CPython's cyclic collector.

    The collector is one per process, so the pause is too: sections
    nest (``TiMR.run`` around each reducer's ``Engine.run``) and overlap
    across threads (engines on thread-executor workers), and only the
    outermost one touches ``gc`` — it records whether the collector was
    on when it entered and puts exactly that back when the last section
    leaves, whichever thread that is and however it leaves.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def enter(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def leave(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


@dataclass(frozen=True)
class RunContext:
    """Immutable run-wide settings threaded through all three layers.

    Attributes:
        tracer: the telemetry sink (:class:`repro.obs.Tracer`); defaults
            to the shared zero-cost :data:`~repro.obs.NULL_TRACER`.
        fault_policy: pluggable fault source for the simulated cluster
            (:mod:`repro.mapreduce.faults`); ``None`` disables injection.
        quarantine: divert poison rows / malformed events to dead-letter
            datasets instead of failing the job.
        max_restarts: task re-runs allowed before a fault propagates.
        seed: RNG seed recorded for the run (chaos policies and data
            generators read it so reruns are reproducible).
        clock: monotonic clock used for wall-time measurements; swap in
            a fake for deterministic timing tests.
        checkpoint_dir: when set, TiMR persists completed stage outputs
            plus a manifest there.
        resume: load the manifest from ``checkpoint_dir`` and skip
            verified stages.
        verify_replay: on resume, replay the last checkpointed stage and
            require byte-identical output.
        validate: run the static pre-flight analyzer before executing.
        batch_size: events fed per batch by the batch driver
            (:class:`repro.temporal.Engine`); bounds its working-set
            memory together with window state.
        executor: how independent work units (cluster map and reduce
            tasks; a GroupApply wave's due chains, on threads only) fan
            out: ``"serial"`` / ``"thread"`` / ``"process"`` /
            ``"auto"``, or a prebuilt
            :class:`repro.runtime.parallel.Executor` instance. ``None``
            defers to the ``REPRO_EXECUTOR`` / ``REPRO_WORKERS``
            environment (serial when unset). Outputs are byte-identical
            across executors — see docs/PARALLELISM.md.
        max_workers: worker cap for parallel executors (``None``: the
            ``REPRO_WORKERS`` environment variable, then CPU count).
        force_parallel: skip the parallel-safety gate: run parallel
            even when the static pass reports hazards (the CLI's
            ``--force-parallel``; ``REPRO_FORCE_PARALLEL=1`` is the
            env equivalent).
        race_check: dynamic race detection mode: ``False`` defers to
            the ``REPRO_RACE_CHECK`` environment variable; ``True`` /
            ``"shadow"`` shadow-executes parallel waves serially with
            mutation attribution; ``"perturb"`` additionally reverses
            each wave's task order. See docs/PARALLELISM.md.
        worker_timeout: seconds the supervised executor waits on a
            silent worker before declaring it lost and recovering its
            work inline (``None``: the ``REPRO_PARALLEL_TIMEOUT``
            environment variable, re-read at call time, then 300).
        worker_retry_budget: worker deaths tolerated per run before the
            executor degrades a tier (process → thread → serial) with
            an ``ExecutorDegradedWarning`` (``None``: the
            ``REPRO_WORKER_RETRIES`` environment variable, then 3).
        waves_per_dispatch: accepted, ignored; leaves with the
            benchmark's keyword (``benchmarks/e2e/workloads.py`` builds
            ``scale_par`` with it). Nothing reads the value.
    """

    tracer: object = NULL_TRACER
    fault_policy: Optional[object] = None
    quarantine: bool = False
    max_restarts: int = 3
    seed: Optional[int] = None
    clock: Callable[[], float] = field(default=_time.perf_counter)
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    verify_replay: bool = True
    validate: bool = True
    batch_size: int = 1024
    executor: Optional[object] = None
    max_workers: Optional[int] = None
    force_parallel: bool = False
    race_check: object = False
    worker_timeout: Optional[float] = None
    worker_retry_budget: Optional[int] = None
    waves_per_dispatch: Optional[object] = None

    def resolve_executor(self):
        """The live :class:`~repro.runtime.parallel.Executor` for this run.

        The resolved executor carries a :class:`~repro.runtime.parallel.
        Supervision` built from this context, so the fault policy (for
        executor-site chaos draws) and the timeout/retry-budget knobs
        reach it without widening any ``run_tasks`` call site.
        """
        from .parallel import Supervision, resolve_executor

        supervision = Supervision(
            fault_policy=self.fault_policy,
            retry_budget=self.worker_retry_budget,
            worker_timeout=self.worker_timeout,
            tracer=self.tracer,
        )
        return resolve_executor(
            self.executor, self.max_workers, supervision=supervision
        )

    @contextmanager
    def quiet(self):
        """Pause the cyclic collector for a bounded batch run.

        A batch run allocates hundreds of thousands of long-lived,
        acyclic output events; every full collection re-traverses all of
        them and frees nothing, which was a quarter to a half of a run's
        wall time. The runtime's own cycles are severed by
        ``Dataflow.close()``, so the run's graph is still freed the
        moment it returns; cyclic garbage user code makes inside the
        section waits for the first collection after it. Re-entrant and
        thread-safe; the caller's collector state is restored on return
        and on exception. The same under every executor
        (docs/EXECUTION.md, "GC-quiet batch runs").
        """
        _COLLECTOR_PAUSE.enter()
        try:
            yield
        finally:
            _COLLECTOR_PAUSE.leave()

    @property
    def metrics(self):
        """The tracer's metrics registry (no-op under ``NULL_TRACER``)."""
        return self.tracer.metrics

    def derive(self, **changes) -> "RunContext":
        """A copy of this context with ``changes`` applied."""
        return replace(self, **changes)

    @classmethod
    def of(cls, context: Optional["RunContext"] = None, **overrides) -> "RunContext":
        """Resolve a context plus legacy per-layer kwargs into one value.

        ``context`` wins as the base (falling back to the shared
        default); any override that is not ``None`` replaces the base
        field. This is what lets ``Engine(tracer=...)`` and
        ``Cluster(fault_policy=...)`` keep working as shims.
        """
        base = context if context is not None else DEFAULT_CONTEXT
        cleaned = {k: v for k, v in overrides.items() if v is not None}
        if not cleaned:
            return base
        return replace(base, **cleaned)


#: Shared all-defaults context (no tracing, no faults, validation on).
DEFAULT_CONTEXT = RunContext()
