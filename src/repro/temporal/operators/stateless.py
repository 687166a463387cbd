"""Select (Where), Project, AlterLifetime, and window operators.

AlterLifetime (Section II-A.2) is the windowing workhorse: it rewrites
event lifetimes, which controls the time range over which an event
contributes to downstream snapshot computations. Sliding windows, hopping
windows, and lifetime shifts are all AlterLifetime specializations.
"""

from __future__ import annotations

from operator import le as le_
from operator import or_
from typing import Callable, Iterable

from ..event import Event
from ..time import MAX_TIME, TICK
from .base import WAKE_AT_FLUSH, UnaryOperator

PayloadPredicate = Callable[[dict], bool]
PayloadTransform = Callable[[dict], dict]


class Where(UnaryOperator):
    """Keep events whose payload satisfies ``predicate``."""

    def __init__(self, predicate: PayloadPredicate):
        self.predicate = predicate

    def on_batch(self, events) -> list:
        pred = self.predicate
        return [e for e in events if pred(e.payload)]

    def next_wake(self):
        return None


class Project(UnaryOperator):
    """Rewrite each payload with ``fn`` (schema change, derived columns)."""

    def __init__(self, fn: PayloadTransform):
        self.fn = fn

    def on_batch(self, events) -> list:
        fn = self.fn
        return [e.with_payload(fn(e.payload)) for e in events]

    def next_wake(self):
        return None


#: AlterLifetime spec kinds whose new lifetime is a function of the old
#: LE alone, keeps LE order and is never empty: time windows. A shift,
#: ``("shift", delta_le, delta_re)``, reads the RE too.
WINDOW_SPECS = ("window", "hop")


def spec_lifetimes(specs, les, res):
    """New ``(les, res)`` after a chain of AlterLifetime ``specs`` — what
    their ``le_fn`` / ``re_fn`` give, column by column; ``les[i]`` is
    ``None`` where a shift emptied lifetime ``i`` (it vanishes, as in
    :meth:`AlterLifetime.on_batch`). ``res`` may be ``None`` when the
    first spec is a time window; ``les`` comes back as passed when no
    spec moves an LE."""
    emptied = None
    for spec in specs:
        if spec[0] == "shift":
            _, dle, dre = spec
            if dle:
                les = [le + dle for le in les]
            res = [re + dre for re in res]
            if dre < dle:
                gone = list(map(le_, res, les))
                emptied = gone if emptied is None else list(map(or_, emptied, gone))
        else:
            w = spec[1]
            if spec[0] == "hop":
                h = spec[2]
                les = [-(-le // h) * h for le in les]
            res = [le + w for le in les]
    if emptied is not None and any(emptied):
        les = [None if gone else le for le, gone in zip(les, emptied)]
    return les, res


class AlterLifetime(UnaryOperator):
    """Generic lifetime rewrite: ``(le, re) -> (le_fn(le, re), re_fn(le, re))``.

    Note: a rewrite may *reorder* events by their new LE (e.g. hopping
    quantization); batch ``apply`` re-sorts, so downstream operators still
    see LE order.
    """

    def __init__(
        self,
        le_fn: Callable[[int, int], int],
        re_fn: Callable[[int, int], int],
        spec: tuple = None,
    ):
        self.le_fn = le_fn
        self.re_fn = re_fn
        # a rewrite's shape — ("window", w) | ("hop", w, h) | ("shift",
        # delta_le, delta_re) — lets the keyed GroupApply sweep compute
        # lifetimes column by column (spec_lifetimes); the spec must
        # describe le_fn/re_fn exactly
        self.spec = spec

    def on_batch(self, events) -> list:
        le_fn, re_fn = self.le_fn, self.re_fn
        out = []
        append = out.append
        for e in events:
            le, re = e.le, e.re
            new_le = le_fn(le, re)
            new_re = re_fn(le, re)
            if new_re > new_le:  # empty lifetimes vanish from the relation
                append(Event(new_le, new_re, e.payload))
        return out

    def next_wake(self):
        return None


def event_kernel(ops):
    """What a chain of Where / Project / AlterLifetime operators does to
    one event, as ``kernel(le, re, payload)``: the event's ``(le, re,
    payload)`` after the chain, or ``None`` when a Where drops it or a
    rewrite leaves its lifetime empty. Builds no ``Event`` and never
    writes to the payload it is given."""
    stages = [
        (op.predicate, None, None) if isinstance(op, Where)
        else (None, op.le_fn, op.re_fn) if isinstance(op, AlterLifetime)
        else (None, None, op.fn)
        for op in ops
    ]

    def kernel(le, re, payload):
        for predicate, le_fn, fn in stages:
            if predicate is not None:
                if not predicate(payload):
                    return None
            elif le_fn is not None:
                le, re = le_fn(le, re), fn(le, re)
                if re <= le:  # empty lifetimes vanish from the relation
                    return None
            else:
                payload = fn(payload)
        return le, re, payload

    return kernel


def sliding_window(w: int) -> AlterLifetime:
    """Sliding window of width ``w``: set ``re = le + w``.

    At any time *t* the active set then contains all events with timestamp
    in ``(t - w, t]`` (paper Section II-A.2).
    """
    if w <= 0:
        raise ValueError("window width must be positive")
    return AlterLifetime(
        lambda le, re: le, lambda le, re: le + w, spec=("window", w)
    )


def hopping_window(w: int, h: int) -> AlterLifetime:
    """Hopping window of width ``w`` advancing every ``h`` ticks.

    An event with timestamp *t* becomes visible to every hop boundary
    *b* (a multiple of ``h``) such that its window ``(b - w, b]`` contains
    *t* — i.e. lifetime ``[ceil(t / h) * h, ceil(t / h) * h + w)``.
    Downstream snapshots therefore only change at hop boundaries.
    """
    if w <= 0 or h <= 0:
        raise ValueError("window width and hop size must be positive")
    if w % h != 0:
        raise ValueError("window width must be a multiple of the hop size")

    def quantize_up(t: int) -> int:
        return -(-t // h) * h

    return AlterLifetime(
        lambda le, re: quantize_up(le),
        lambda le, re: quantize_up(le) + w,
        spec=("hop", w, h),
    )


def shift_lifetime(delta_le: int, delta_re: int = None) -> AlterLifetime:
    """Shift LE by ``delta_le`` and RE by ``delta_re`` (defaults to LE's shift).

    ``shift_lifetime(-d, 0)`` reproduces Figure 12's ``LE = OldLE - 5min``:
    a click at *c* then covers ``[c - d, c + 1)``, so an AntiSemiJoin drops
    impressions followed by a click within *d*.
    """
    if delta_re is None:
        delta_re = delta_le
    return AlterLifetime(
        lambda le, re: le + delta_le,
        lambda le, re: re + delta_re,
        spec=("shift", delta_le, delta_re),
    )


def to_point_events() -> AlterLifetime:
    """Collapse each event to a point event at its LE."""
    return AlterLifetime(lambda le, re: le, lambda le, re: le + TICK)


def extend_to_infinity() -> AlterLifetime:
    """Extend each event's lifetime to the end of time (RE = MAX_TIME)."""
    return AlterLifetime(lambda le, re: le, lambda le, re: MAX_TIME)


class CountWindow(UnaryOperator):
    """Keep each event alive until ``n`` further events have arrived.

    The count-based window of CEP engines (the "Count Window w=3" box of
    the paper's Figure 3): at any instant the active set is the last
    ``n`` events by arrival timestamp. Implemented by rewriting event
    ``i``'s RE to event ``i+n``'s LE (events sharing that LE expire
    together; an event is never alive past the point where ``n`` newer
    events exist). Unlike time windows this operator is stateful — it
    buffers ``n`` events — but it remains streaming-friendly: an event
    is released as soon as its successor ``n`` steps later arrives.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("count window size must be positive")
        self.n = n
        self._buffer = []  # the last <= n events, pending their RE

    def on_batch(self, events) -> list:
        out = []
        buffer, n = self._buffer, self.n
        for event in events:
            buffer.append(event)
            if len(buffer) > n:
                expired = buffer.pop(0)
                if event.le > expired.le:
                    out.append(Event(expired.le, event.le, expired.payload))
                # events with identical timestamps expire instantly: they
                # never own a snapshot, so they vanish from the relation
        return out

    def on_flush(self) -> Iterable[Event]:
        # the trailing n events never expire: alive to the end of time
        for event in self._buffer:
            yield Event(event.le, MAX_TIME, event.payload)
        self._buffer = []

    def on_watermark(self, w: int) -> Iterable[Event]:
        return ()

    def watermark_out(self, w: int) -> int:
        if self._buffer:
            return min(w, self._buffer[0].le)
        return w

    def next_wake(self):
        # buffered events are only ever released by a successor or flush
        return WAKE_AT_FLUSH if self._buffer else None


def count_window(n: int) -> CountWindow:
    """Events stay active until ``n`` newer events arrive (Figure 3)."""
    return CountWindow(n)


class SessionWindow(UnaryOperator):
    """Group activity into sessions separated by gaps of at least ``gap``.

    Every event's lifetime becomes its whole session: ``[le,
    last_event_of_session.le + gap)``. A downstream per-snapshot count
    then reports "events in the current session so far", and a
    TemporalJoin against a session stream implements "same-session"
    correlation — the natural unit of web-analytics behavior in the
    paper's domain. Sessions close ``gap`` ticks after their last event,
    so results are emitted with at most that delay.
    """

    def __init__(self, gap: int):
        if gap <= 0:
            raise ValueError("session gap must be positive")
        self.gap = gap
        self._session = []  # events of the currently open session

    def _close(self) -> Iterable[Event]:
        if not self._session:
            return
        session_end = self._session[-1].le + self.gap
        for event in self._session:
            yield Event(event.le, session_end, event.payload)
        self._session = []

    def on_batch(self, events) -> list:
        out = []
        for event in events:
            if self._session and event.le - self._session[-1].le >= self.gap:
                out.extend(self._close())
            self._session.append(event)
        return out

    def on_flush(self) -> Iterable[Event]:
        yield from self._close()

    def on_watermark(self, w: int) -> Iterable[Event]:
        if self._session and w - self._session[-1].le >= self.gap:
            yield from self._close()

    def watermark_out(self, w: int) -> int:
        if self._session:
            return min(w, self._session[0].le)
        return w

    def next_wake(self):
        # the open session closes once the watermark is a gap past it
        return self._session[-1].le + self.gap if self._session else None


def session_window(gap: int) -> SessionWindow:
    """Events stay active for their whole gap-delimited session."""
    return SessionWindow(gap)
