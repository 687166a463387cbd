"""Operator framework for the single-node temporal engine.

Operators consume events in non-decreasing LE order and produce events.
Each operator is *incremental*, and batches are its only way in:
``on_batch`` takes a chunk of LE-ordered events and returns what is now
final, ``on_watermark`` what a CTI makes final, and ``on_flush`` drains
buffered state at end of input. A live feed is a stream of one-event
batches (``StreamingEngine.push``); TiMR's embedded-DSMS reducer feeds a
partition of offline rows in bounded chunks. The batch helper ``apply``
runs the operator over a whole stream and re-establishes LE order on the
output.

Binary operators take ``on_left_batch`` / ``on_right_batch``; their two
inputs are merged into a single time-ordered sequence by
:func:`_deliver`, right input first at ties, so that at equal timestamps
reference data on the right input is visible to probes on the left —
e.g. a bot interval starting at *t* already filters a click at *t*.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..event import _LE, Event
from ..time import MAX_TIME, MIN_TIME

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

    def on_batch(self, events: Sequence[Event]) -> List[Event]:
        """Process a chunk of LE-ordered events; return a list of the
        operator's own (the runtime extends it) of what is now final."""
        raise NotImplementedError

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
    first at ties) and feeds ``on_left_batch`` / ``on_right_batch``.
    """

    def on_left_batch(self, events: Sequence[Event]) -> List[Event]:
        """Process a contiguous run of left events whose delivery order
        relative to the right input the runtime has already decided."""
        raise NotImplementedError

    def on_right_batch(self, events: Sequence[Event]) -> List[Event]:
        """The right-input counterpart of ``on_left_batch``."""
        raise NotImplementedError

    def on_flush(self) -> Iterable[Event]:
        return ()

    def apply(self, left: Sequence[Event], right: Sequence[Event]) -> List[Event]:
        """Run the operator over two whole LE-ordered streams (batch
        mode): the runtime's merge with both watermarks at the end of
        time, then the flush."""
        out: List[Event] = []
        _deliver(self, left, right, MAX_TIME, MAX_TIME, out.extend)
        out.extend(self.on_flush())
        return sort_events(out)


def _deliver(op, levs, revs, w, rw, ext) -> Tuple[int, int]:
    """Hand binary ``op`` its queued input ``levs`` / ``revs``, merged up
    to the joint watermark ``w`` (``rw`` is the right side's), right side
    first at ties, so the right synopsis is complete before a left probe.
    At the flush both watermarks are ``MAX_TIME``, and the same loop
    drains both sides whole in merged order, which is all
    :meth:`BinaryOperator.apply` asks of it. Outputs go to ``ext``;
    returns how many of each side it delivered.

    While one side's head does not change, the other side's
    deliverability bound is a constant — so maximal same-side runs are
    found by a scan and handed to the batch kernels in one call."""
    on_left_batch = op.on_left_batch
    on_right_batch = op.on_right_batch
    li = ri = 0
    nl, nr = len(levs), len(revs)
    while True:
        lh = levs[li] if li < nl else None
        rh = revs[ri] if ri < nr else None
        if rh is not None and rh.le <= w and (lh is None or rh.le <= lh.le):
            bound = w if lh is None or w <= lh.le else lh.le
            rj = ri + 1
            while rj < nr and revs[rj].le <= bound:
                rj += 1
            ext(on_right_batch(revs[ri:rj]))
            ri = rj
        elif lh is not None and (lh.le < rw or rw >= MAX_TIME):
            if rw >= MAX_TIME:
                bound = rh.le if (rh is not None and rh.le <= w) else None
            else:
                bound = rw
                if rh is not None and rh.le <= w and rh.le < bound:
                    bound = rh.le
            if bound is None:
                lj = nl
            else:
                lj = li + 1
                while lj < nl and levs[lj].le < bound:
                    lj += 1
            ext(on_left_batch(levs[li:lj]))
            li = lj
        else:
            return li, ri
