"""Shared execution runtime: one operator graph, one run-wide context.

:class:`Dataflow` is the single incremental operator runtime both the
batch :class:`~repro.temporal.Engine` and the push-based
:class:`~repro.temporal.StreamingEngine` drive; :class:`RunContext`
bundles the tracer, fault policy, clock, and checkpoint settings every
layer used to thread by hand.
"""

from .context import DEFAULT_CONTEXT, RunContext
from .dataflow import GROUP_SOURCE, Dataflow, StreamingUnsupported

__all__ = [
    "DEFAULT_CONTEXT",
    "Dataflow",
    "GROUP_SOURCE",
    "RunContext",
    "StreamingUnsupported",
]
