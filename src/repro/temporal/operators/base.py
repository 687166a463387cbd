"""Operator framework for the single-node temporal engine.

Operators consume events in non-decreasing LE order and produce events.
Each operator is *incremental*: it exposes ``on_event`` (one event in,
zero or more events out) and ``on_flush`` (drain buffered state at end of
input). The batch helper ``apply`` drives the incremental interface over
a whole stream and re-establishes LE order on the output — exactly what
TiMR's embedded-DSMS reducer does with a partition of offline rows, while
the same ``on_event`` path remains usable against a live feed.

Binary operators additionally define how their two inputs are merged into
a single time-ordered sequence (``RIGHT_FIRST`` tie-breaking, so that at
equal timestamps reference data on the right input is visible to probes
on the left — e.g. a bot interval starting at *t* already filters a click
at *t*).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..event import _LE, Event
from ..time import MAX_TIME, MIN_TIME

#: Tag for events arriving on the left input of a binary operator.
LEFT = 0
#: Tag for events arriving on the right input of a binary operator.
RIGHT = 1

#: ``next_wake`` value: deliver every watermark (the conservative default).
WAKE_ALWAYS = MIN_TIME
#: ``next_wake`` value: no watermark short of the end-of-input flush matters.
WAKE_AT_FLUSH = MAX_TIME


def sort_events(events: List[Event]) -> List[Event]:
    """Sort events by LE (stable). Timsort makes mostly-sorted output cheap."""
    events.sort(key=_LE)
    return events


class UnaryOperator:
    """Base class for one-input operators."""

    #: True when every output event carries a payload dict the operator
    #: built for that event alone and keeps no reference to, so a
    #: consumer may add columns to it in place (GroupApply attaching its
    #: key columns) instead of copying it. Pass-through operators, and
    #: those emitting whatever mapping a user function returns, leave
    #: this False.
    fresh_payloads = False

    def on_event(self, event: Event) -> Iterable[Event]:
        """Process one input event (arriving in LE order); yield outputs."""
        raise NotImplementedError

    def on_batch(self, events: Sequence[Event]) -> List[Event]:
        """Process a chunk of LE-ordered events (the batch-driver path).

        Semantically identical to calling ``on_event`` per event —
        stateless operators override this with a bulk fast path.
        """
        out: List[Event] = []
        for e in events:
            out.extend(self.on_event(e))
        return out

    def on_flush(self) -> Iterable[Event]:
        """Drain any buffered state at end of input."""
        return ()

    def on_watermark(self, w: int) -> Iterable[Event]:
        """No further input with LE < ``w`` will arrive: emit what is final.

        Used by the streaming engine (CTI propagation). The default emits
        nothing — stateless operators already emitted everything.
        """
        return ()

    def watermark_out(self, w: int) -> int:
        """Given input watermark ``w``, a bound below which no future
        output LE can fall. Default: outputs never precede inputs."""
        return w

    def next_wake(self) -> Optional[int]:
        """The least watermark at which ``on_watermark`` could emit or
        change state, or ``None`` when the operator is idle.

        Below the returned watermark ``on_watermark`` emits nothing and
        mutates nothing, and ``watermark_out(w)`` is ``min(w, hold)`` for
        a constant ``hold`` — so the runtime may skip delivering those
        watermarks and wake the operator only when the time comes (it
        still delivers every event, and ``on_flush`` at end of input).
        It checks that the held value really is constant by calling
        ``watermark_out`` with watermarks it has not delivered, so that
        method must stay free of side effects. ``None`` is the stateless
        case: ``on_watermark`` never emits and ``watermark_out`` is the
        identity until the next event arrives. The default,
        :data:`WAKE_ALWAYS`, is conservative: never skip. Too early a
        wake costs a no-op visit; too late a wake loses or delays output.
        """
        return WAKE_ALWAYS

    def apply(self, events: Sequence[Event]) -> List[Event]:
        """Run the operator over a whole LE-ordered stream (batch mode)."""
        out = self.on_batch(events)
        out.extend(self.on_flush())
        return sort_events(out)


class BinaryOperator:
    """Base class for two-input operators.

    ``apply`` merges both LE-ordered inputs into one sequence (right input
    first at ties) and feeds ``on_left`` / ``on_right``.
    """

    def on_left(self, event: Event) -> Iterable[Event]:
        raise NotImplementedError

    def on_right(self, event: Event) -> Iterable[Event]:
        raise NotImplementedError

    def on_left_batch(self, events: Sequence[Event]) -> List[Event]:
        """Process a contiguous run of left events whose delivery order
        relative to the right input has already been decided by the
        runtime. Semantically identical to per-event ``on_left``."""
        out: List[Event] = []
        for e in events:
            out.extend(self.on_left(e))
        return out

    def on_right_batch(self, events: Sequence[Event]) -> List[Event]:
        """Batch counterpart of ``on_right``; see ``on_left_batch``."""
        out: List[Event] = []
        for e in events:
            out.extend(self.on_right(e))
        return out

    def on_flush(self) -> Iterable[Event]:
        return ()

    def apply(self, left: Sequence[Event], right: Sequence[Event]) -> List[Event]:
        out: List[Event] = []
        for side, event in merge_streams(left, right):
            if side == LEFT:
                out.extend(self.on_left(event))
            else:
                out.extend(self.on_right(event))
        out.extend(self.on_flush())
        return sort_events(out)


def merge_streams(left: Sequence[Event], right: Sequence[Event]):
    """Merge two LE-ordered streams into one, right side first at ties.

    Yields ``(side, event)`` pairs. The right-first tie-break means that
    for joins/anti-joins the right synopsis is always complete up to and
    including the current instant before a left event is probed.
    """
    i = j = 0
    nl, nr = len(left), len(right)
    while i < nl and j < nr:
        if right[j].le <= left[i].le:
            yield RIGHT, right[j]
            j += 1
        else:
            yield LEFT, left[i]
            i += 1
    while j < nr:
        yield RIGHT, right[j]
        j += 1
    while i < nl:
        yield LEFT, left[i]
        i += 1
