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
base context). It is the only way to configure a run: ``Engine``,
``StreamingEngine``, ``Cluster`` and the TiMR reducers take
``context=`` (``None`` means :data:`DEFAULT_CONTEXT`), and a ``TiMR``
runs under its cluster's context.
"""

from __future__ import annotations

import gc
import threading
import time as _time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

from ..obs.trace import NULL_TRACER


class _CollectorPause:
    """The process-wide pause of CPython's cyclic collector.

    The collector is one per process, so the pause is too: sections
    nest (``TiMR.run`` around each reducer's ``Engine.run``) and overlap
    across threads (engines a caller runs on its own threads), and only the
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

#: The values ``RunContext(executor=)`` accepts; none of them fans out.
EXECUTORS = (None, "serial", "thread", "process", "auto")

#: The named resolution a run records when its context names a parallel
#: executor: no fallback is silent.
SERIAL_RESOLUTION = "executor.serial"


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
        executor, max_workers, waves_per_dispatch: accepted, ignored,
            and leaving with the benchmark's ``scale_par`` keywords
            (``benchmarks/e2e/workloads.py`` builds its context with
            all three). Every run is serial; ``executor`` still rejects
            a name outside :data:`EXECUTORS`, and any value but
            ``None`` / ``"serial"`` is one counted
            :data:`SERIAL_RESOLUTION` per ``Engine.run`` / ``TiMR.run``
            (:meth:`executor_resolutions`).
    """

    tracer: object = NULL_TRACER
    fault_policy: Optional[object] = None
    quarantine: bool = False
    max_restarts: int = 3
    clock: Callable[[], float] = field(default=_time.perf_counter)
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    verify_replay: bool = True
    validate: bool = True
    batch_size: int = 1024
    executor: Optional[str] = None
    max_workers: Optional[int] = None
    waves_per_dispatch: Optional[object] = None

    def __post_init__(self):
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{[name for name in EXECUTORS if name is not None]} or None"
            )

    def executor_resolutions(self) -> Dict[str, dict]:
        """The run's :data:`SERIAL_RESOLUTION`, in ``EngineStats.
        resolutions`` shape, when the context names a parallel executor;
        empty otherwise."""
        if self.executor in (None, "serial"):
            return {}
        return {
            SERIAL_RESOLUTION: {
                "count": 1,
                "reason": (
                    f"executor={self.executor!r} ran serially: operators "
                    "are serial and parallelism is M-R partitions, costed "
                    "by the makespan model (docs/EXECUTION.md, Parallelism)"
                ),
            }
        }

    @contextmanager
    def quiet(self):
        """Pause the cyclic collector for a bounded batch run.

        A batch run allocates hundreds of thousands of long-lived,
        acyclic output events; every full collection re-traverses all of
        them and frees nothing, which was a quarter to a half of a run's
        wall time. The runtime's graph holds no reference cycle (no step
        points back at its flow), so it is still freed the moment the run
        returns; cyclic garbage user code makes inside the section waits
        for the first collection after it. Re-entrant and
        thread-safe; the caller's collector state is restored on return
        and on exception (docs/EXECUTION.md, "GC-quiet batch runs").
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


#: Shared all-defaults context (no tracing, no faults, validation on).
DEFAULT_CONTEXT = RunContext()
