"""Windowed user-defined operators (UDOs).

DSMSs support incremental user-defined operators where the user provides
code to run over the (windowed) input stream (Section II-A.2). The paper
uses a hopping-window UDO twice: the z-score computation of feature
selection and the periodic logistic-regression model rebuild (hop size =
how often to relearn, window size = how much history to learn from).

``WindowedUDO`` invokes the user function at every hop boundary *b* with
the payloads whose timestamps fall in the window ``(b - w, b]``; each
returned payload becomes an output event with lifetime ``[b, b + h)`` —
i.e. the result (e.g. model weights) is "current" until the next rebuild,
ready to be lodged in a TemporalJoin synopsis for scoring.

``SnapshotUDO`` is the non-windowed variant: the user function runs once
per snapshot over the active payload bag (used for per-snapshot math such
as the two-proportion z-test).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from math import inf
from typing import Callable, Iterable, List, Optional

from ..event import Event
from .base import UnaryOperator

#: User function for hopping UDOs: (window payloads, boundary time) -> payloads.
HoppingFn = Callable[[List[dict], int], Iterable[dict]]
#: User function for snapshot UDOs: active payload bag -> payloads.
SnapshotFn = Callable[[List[dict]], Iterable[dict]]


class WindowedUDO(UnaryOperator):
    """Run ``fn`` over a hopping window of the input's point timestamps.

    Args:
        w: window width (ticks of history visible at each boundary).
        h: hop size (boundary spacing; also the output lifetime).
        fn: ``fn(payloads, boundary) -> iterable of payload dicts``.
        skip_empty: when True (default) boundaries whose window is empty
            do not invoke ``fn``.
    """

    def __init__(self, w: int, h: int, fn: HoppingFn, skip_empty: bool = True):
        if w <= 0 or h <= 0:
            raise ValueError("window width and hop size must be positive")
        self.w = w
        self.h = h
        self.fn = fn
        self.skip_empty = skip_empty
        self._les: List[int] = []
        self._payloads: List[dict] = []
        self._start = 0  # index of first un-evicted buffered event
        self._next_boundary: Optional[int] = None
        self._max_le: Optional[int] = None

    def _quantize_up(self, t: int) -> int:
        return -(-t // self.h) * self.h

    def _fire(self, boundary: int) -> Iterable[Event]:
        """Evaluate the window ``(boundary - w, boundary]`` and emit results."""
        low = boundary - self.w
        # evict events that have left every future window
        while self._start < len(self._les) and self._les[self._start] <= low:
            self._start += 1
        if self._start > 4096 and self._start * 2 > len(self._les):
            del self._les[: self._start]
            del self._payloads[: self._start]
            self._start = 0
        hi = bisect_right(self._les, boundary, lo=self._start)
        window = self._payloads[self._start : hi]
        if window or not self.skip_empty:
            for payload in self.fn(window, boundary):
                yield Event(boundary, boundary + self.h, dict(payload))

    def _advance_to(self, t: int) -> Iterable[Event]:
        """Fire every boundary strictly before ``t`` (its window is final)."""
        if self._next_boundary is None:
            return
        while self._next_boundary < t:
            # fast-forward across stretches with no buffered events
            if self.skip_empty and self._start >= len(self._les):
                nxt = self._quantize_up(t)
                self._next_boundary = max(self._next_boundary, nxt)
                if self._next_boundary >= t:
                    break
            yield from self._fire(self._next_boundary)
            self._next_boundary += self.h

    def on_batch(self, events) -> list:
        out = []
        for event in events:
            le = event.le
            out.extend(self._advance_to(le))
            if self._next_boundary is None:
                self._next_boundary = self._quantize_up(le)
            self._les.append(le)
            self._payloads.append(event.payload)
            self._max_le = le
        return out

    def on_flush(self) -> Iterable[Event]:
        if self._max_le is None:
            return
        # Fire every boundary whose window (b - w, b] can still see data:
        # the last one is the largest multiple of h below max_le + w. This
        # matches hopping_window + aggregate semantics exactly.
        last = ((self._max_le + self.w - 1) // self.h) * self.h
        yield from self._advance_to(last + 1)

    def on_watermark(self, w: int) -> Iterable[Event]:
        # a boundary b < w only sees events with LE <= b < w: all arrived
        yield from self._advance_to(w)

    def next_wake(self):
        # with no buffered events, skip_empty fast-forwards boundaries
        # without firing; emission can only resume on a new event.
        # Otherwise boundaries fire as the watermark passes them and
        # nothing holds the output watermark back: the default applies
        if self.skip_empty and self._start >= len(self._les):
            return None
        return super().next_wake()


class SnapshotUDO(UnaryOperator):
    """Run ``fn`` over the active payload bag at every snapshot.

    Output events carry ``fn``'s payloads over each maximal interval
    between changepoints with a non-empty active set. This is the shape
    used by CalcScore (Figure 13): the joined count stream changes at hop
    boundaries and the UDO recomputes z-scores per snapshot.
    """

    def __init__(self, fn: SnapshotFn):
        self.fn = fn
        self._pending: List = []  # (re, seq, payload)
        self._active: List[dict] = []
        self._seq = 0
        self._segment_start: Optional[int] = None

    def _emit_segment(self, end: int) -> Iterable[Event]:
        if self._active and self._segment_start is not None and end > self._segment_start:
            for payload in self.fn(list(self._active)):
                yield Event(self._segment_start, end, dict(payload))
        self._segment_start = end

    def _drain_until(self, t: int) -> Iterable[Event]:
        while self._pending and self._pending[0][0] <= t:
            re = self._pending[0][0]
            yield from self._emit_segment(re)
            while self._pending and self._pending[0][0] == re:
                _, _, payload = heapq.heappop(self._pending)
                self._active.remove(payload)
        if not self._active:
            self._segment_start = None

    def on_batch(self, events) -> list:
        out = []
        for event in events:
            le = event.le
            out.extend(self._drain_until(le))
            if self._active:
                out.extend(self._emit_segment(le))
            else:
                self._segment_start = le
            self._active.append(event.payload)
            self._seq += 1
            heapq.heappush(self._pending, (event.re, self._seq, event.payload))
        return out

    def on_flush(self) -> Iterable[Event]:
        # every payload, one whose RE lies past MAX_TIME too
        yield from self._drain_until(inf)

    def on_watermark(self, w: int) -> Iterable[Event]:
        yield from self._drain_until(w)

    def watermark_out(self, w: int) -> int:
        if self._active and self._segment_start is not None:
            return min(w, self._segment_start)
        return w

    def next_wake(self):
        return self._pending[0][0] if self._pending else None
