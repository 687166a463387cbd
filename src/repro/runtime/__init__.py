"""Shared execution runtime: one operator graph, one run-wide context.

:class:`Dataflow` is the single incremental operator runtime both the
batch :class:`~repro.temporal.Engine` and the push-based
:class:`~repro.temporal.StreamingEngine` drive; :class:`RunContext`
bundles the tracer, fault policy, clock, and checkpoint settings every
layer used to thread by hand.
"""

from .context import DEFAULT_CONTEXT, RunContext
from .dataflow import GROUP_SOURCE, Dataflow, StreamingUnsupported, group_key
from .parallel import (
    Executor,
    ExecutorDegradedWarning,
    ParallelSafetyWarning,
    ParallelStats,
    ProcessExecutor,
    RecoveryStats,
    SerialExecutor,
    Supervision,
    ThreadExecutor,
    WorkerStats,
    force_parallel_requested,
    resolve_executor,
    resolve_retry_budget,
    resolve_worker_timeout,
)

__all__ = [
    "DEFAULT_CONTEXT",
    "Dataflow",
    "Executor",
    "ExecutorDegradedWarning",
    "GROUP_SOURCE",
    "ParallelSafetyWarning",
    "ParallelStats",
    "ProcessExecutor",
    "RecoveryStats",
    "RunContext",
    "SerialExecutor",
    "StreamingUnsupported",
    "Supervision",
    "ThreadExecutor",
    "WorkerStats",
    "force_parallel_requested",
    "group_key",
    "resolve_executor",
    "resolve_retry_budget",
    "resolve_worker_timeout",
]
