"""TemporalJoin and AntiSemiJoin (Section II-A.2).

TemporalJoin outputs the relational join of its inputs restricted to
pairs with overlapping lifetimes; the output lifetime is the lifetimes'
intersection. It is implemented as a symmetric hash join on the equi-join
key: each side keeps a per-key synopsis of active events, pruned lazily
as application time advances (any stored event whose RE is <= the current
LE can never match again, because future events only arrive with larger
LEs).

AntiSemiJoin eliminates point events from the left input that intersect
some matching event in the right synopsis — the paper's tool for "remove
impressions that were clicked" and "remove activity of bot users". The
right-before-left tie-break of the operator framework guarantees the
right synopsis is complete up to the probe instant.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..event import Event
from .base import BinaryOperator

#: Optional extra predicate over (left payload, right payload).
Residual = Callable[[dict, dict], bool]
#: Payload combiner for join output; default merges left into right.
Selector = Callable[[dict, dict], dict]


def _default_select(left: dict, right: dict) -> dict:
    return {**left, **right}


class _Synopsis:
    """Per-key lists of stored events with lazy expiration."""

    __slots__ = ("by_key",)

    def __init__(self):
        self.by_key: Dict[Tuple, List[Event]] = {}

    def insert(self, key: Tuple, event: Event) -> None:
        self.by_key.setdefault(key, []).append(event)

    def probe(self, key: Tuple, now: int) -> List[Event]:
        """Live events for ``key``, pruning ones that expired before ``now``."""
        stored = self.by_key.get(key)
        if stored is None:
            return []
        for e in stored:
            if e.re <= now:
                break
        else:
            return stored  # nothing expired: no copy needed
        live = [e for e in stored if e.re > now]
        if live:
            self.by_key[key] = live
        else:
            del self.by_key[key]
        return live

    def size(self) -> int:
        return sum(len(v) for v in self.by_key.values())


def _key_fn(columns: Sequence[str]):
    cols = tuple(columns)
    if len(cols) == 1:
        (c0,) = cols

        def key1(payload: dict) -> Tuple:
            return (payload[c0],)

        return key1
    if len(cols) == 2:
        c0, c1 = cols

        def key2(payload: dict) -> Tuple:
            return (payload[c0], payload[c1])

        return key2

    def key(payload: dict) -> Tuple:
        return tuple(payload[c] for c in cols)

    return key


class TemporalJoin(BinaryOperator):
    """Symmetric hash equi-join with lifetime intersection.

    Args:
        on: join key column names (present in both inputs).
        residual: optional extra predicate over both payloads.
        select: payload combiner; defaults to ``{**left, **right}``.
    """

    def __init__(
        self,
        on: Sequence[str],
        residual: Optional[Residual] = None,
        select: Optional[Selector] = None,
    ):
        if not on:
            raise ValueError("TemporalJoin requires at least one key column")
        self.on = tuple(on)
        self.residual = residual
        self.select = select or _default_select
        self._key = _key_fn(on)
        self._left = _Synopsis()
        self._right = _Synopsis()

    def _probe_batch(
        self,
        events: Sequence[Event],
        own: _Synopsis,
        other: _Synopsis,
        events_are_left: bool,
    ) -> List[Event]:
        """Probe the other side's synopsis with each event, then insert
        it into its own. The per-key no-expiry fast path lives in
        ``_Synopsis.probe``."""
        key_fn = self._key
        residual = self.residual
        select = self.select
        probe = other.probe
        insert = own.insert
        out: List[Event] = []
        append = out.append
        for event in events:
            payload = event.payload
            key = key_fn(payload)
            now = event.le
            matches = probe(key, now)
            if matches:
                event_re = event.re
                for match in matches:
                    if events_are_left:
                        lp, rp = payload, match.payload
                    else:
                        lp, rp = match.payload, payload
                    if residual is not None and not residual(lp, rp):
                        continue
                    le = now if now >= match.le else match.le
                    re = event_re if event_re <= match.re else match.re
                    if re > le:
                        append(Event(le, re, select(lp, rp)))
            insert(key, event)
        return out

    def on_left_batch(self, events: Sequence[Event]) -> List[Event]:
        return self._probe_batch(events, self._left, self._right, True)

    def on_right_batch(self, events: Sequence[Event]) -> List[Event]:
        return self._probe_batch(events, self._right, self._left, False)


class AntiSemiJoin(BinaryOperator):
    """Emit left *point* events not covered by any matching right event."""

    def __init__(self, on: Sequence[str], residual: Optional[Residual] = None):
        if not on:
            raise ValueError("AntiSemiJoin requires at least one key column")
        self.on = tuple(on)
        self.residual = residual
        self._key = _key_fn(on)
        self._right = _Synopsis()

    def on_left_batch(self, events: Sequence[Event]) -> List[Event]:
        key_fn = self._key
        probe = self._right.probe
        residual = self.residual
        out: List[Event] = []
        append = out.append
        for event in events:
            if not event.is_point:
                raise ValueError(
                    "AntiSemiJoin supports point events on its left input only "
                    f"(got lifetime [{event.le}, {event.re}))"
                )
            payload = event.payload
            le = event.le
            for match in probe(key_fn(payload), le):
                if match.le <= le and (
                    residual is None or residual(payload, match.payload)
                ):
                    break  # covered: the probe event is eliminated
            else:
                append(event)
        return out

    def on_right_batch(self, events: Sequence[Event]) -> List[Event]:
        key_fn = self._key
        insert = self._right.insert
        for event in events:
            insert(key_fn(event.payload), event)
        return []
