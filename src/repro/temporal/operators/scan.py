"""ScanUDO: a stateful per-event user-defined operator.

DSMS UDOs may be *incremental* (Section II-A.2: "the user provides code
to perform computations over the (windowed) input stream"). While
:class:`WindowedUDO` recomputes over a hopping window, ``ScanUDO`` folds
state over the stream one event at a time — the natural host for online
algorithms such as incremental logistic regression (Section IV-B.4: "We
can plug-in an incremental LR algorithm").

The user supplies a ``state_factory`` (fresh state per operator
instance, so reducer restarts stay deterministic) and a function
``fn(state, payload, le) -> iterable of payloads``; each returned
payload becomes a point event at the input event's LE.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..event import Event
from .base import UnaryOperator

ScanFn = Callable[[Any, dict, int], Iterable[dict]]


class ScanUDO(UnaryOperator):
    """Fold ``fn`` over the stream with per-run state."""

    def __init__(self, state_factory: Callable[[], Any], fn: ScanFn):
        self.state = state_factory()
        self.fn = fn

    def on_batch(self, events) -> list:
        fn, state = self.fn, self.state
        return [
            Event.point(e.le, dict(payload))
            for e in events
            for payload in fn(state, e.payload, e.le)
        ]

    def next_wake(self):
        # folded state only ever emits on events, never on watermarks
        return None
