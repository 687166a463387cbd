"""Temporal partitioning (Section III-B).

Many CQs (e.g. a global sliding-window aggregate) are not partitionable
by any payload column — but if the query's lifetime extent is bounded,
computation can be partitioned *on time*. The time axis is divided into
overlapping spans: span *i* produces output for ``[t0 + i*s, t0 +
(i+1)*s)`` (``s`` = span width) but receives input events from
``[t0 + i*s - w, t0 + (i+1)*s + f)`` where ``(w, f)`` is the plan's
(past, future) extent. The overlap re-derives enough window state that
each span's output is exact; events near boundaries are *duplicated*
into several spans, which is the redundant work that makes very small
spans slow in Figure 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..temporal.time import TICK


@dataclass(frozen=True)
class SpanLayout:
    """Geometry of a temporal partitioning.

    Attributes:
        t0: reference timestamp (start of the first span's output).
        span_width: output interval width ``s`` per span.
        past: input overlap before each span's output interval.
        future: input lookahead after each span's output interval.
        num_spans: total spans covering the dataset.
    """

    t0: int
    span_width: int
    past: int
    future: int
    num_spans: int

    def output_interval(self, i: int) -> Tuple[int, int]:
        """The half-open output interval of span ``i``."""
        start = self.t0 + i * self.span_width
        return (start, start + self.span_width)

    def input_interval(self, i: int) -> Tuple[int, int]:
        """The half-open input interval span ``i`` must receive."""
        start, end = self.output_interval(i)
        return (start - self.past, end + self.future)

    def spans_for_time(self, t: int) -> List[int]:
        """All span indices whose input interval contains timestamp ``t``.

        A timestamp belongs to its own span plus up to
        ``ceil(past / span_width)`` later spans (whose windows still look
        back at it) and ``ceil(future / span_width)`` earlier spans.
        """
        return self.spans_for_lifetime(t, t + TICK)

    def spans_for_lifetime(self, le, re) -> List[int]:
        """All span indices an event alive over ``[le, re)`` must reach:
        those whose output interval meets ``[le - future, re + past)``.
        For a point event, :meth:`spans_for_time` of its LE; ``le`` and
        ``re`` may be floats."""
        s = self.span_width
        lo = int((le - self.future - self.t0) // s)
        hi = -int((self.t0 - re - self.past) // s)  # ceil((re + past - t0) / s)
        return list(range(max(0, lo), min(self.num_spans, hi)))

    @property
    def duplication_factor(self) -> float:
        """Expected copies of a row under this layout (overlap overhead)."""
        return (self.span_width + self.past + self.future) / self.span_width


def plan_spans(
    t_min: int,
    t_max: int,
    span_width: int,
    extent: Tuple[int, int],
) -> SpanLayout:
    """Lay out spans covering data timestamps ``[t_min, t_max]``.

    Args:
        t_min / t_max: observed data timestamp range: the first LE, and
            the last tick an input is alive at (its RE less one tick).
        span_width: desired output width per span (``s``).
        extent: the fragment plan's (past, future) lifetime extent; the
            span overlap (``w`` in the paper) is exactly this extent.

    The spans cover the full *output* range ``[t_min - future,
    t_max + past]``: windowed lifetimes make output extend up to ``past``
    ticks beyond the last input timestamp, and backward shifts can emit
    up to ``future`` ticks before the first.
    """
    if span_width <= 0:
        raise ValueError("span width must be positive")
    if t_max < t_min:
        raise ValueError("empty time range")
    past, future = extent
    if past < 0 or future < 0:
        raise ValueError(f"invalid extent {extent!r}")
    t0 = t_min - future
    # enough spans that the last one's output interval reaches the end
    # of the last tick plus the past extent (floats round up as well)
    end = t_max + TICK + past
    num_spans = -int((t0 - end) // span_width)
    return SpanLayout(
        t0=t0, span_width=span_width, past=past, future=future, num_spans=num_spans
    )
