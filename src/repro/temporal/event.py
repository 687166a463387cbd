"""Events: the unit of data flowing through the temporal engine.

An event (Section II-A.1) carries a *payload* (a mapping of column name to
value) and a *control parameter*: the half-open validity interval
``[le, re)`` over which the payload contributes to query output. Point
events — instantaneous notifications such as a click — have ``re = le +
TICK``.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from .time import MAX_TIME, TICK

Payload = Mapping[str, Any]


class Event:
    """A payload with a validity lifetime ``[le, re)``.

    Events are immutable by convention: operators never mutate a payload
    in place, they build new ``Event`` instances. ``__slots__`` keeps the
    per-event footprint small, which matters because benchmarks push
    hundreds of thousands of events through the engine.
    """

    __slots__ = ("le", "re", "payload")

    def __init__(self, le: int, re: int, payload: Payload):
        if re <= le:  # validate_interval, inlined: once per event built
            raise ValueError(f"empty or inverted lifetime [{le}, {re})")
        self.le = le
        self.re = re
        self.payload = payload

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, t: int, payload: Payload) -> "Event":
        """An instantaneous event at time ``t`` (lifetime ``[t, t+TICK)``)."""
        return cls(t, t + TICK, payload)

    @classmethod
    def until_end_of_time(cls, t: int, payload: Payload) -> "Event":
        """An event valid from ``t`` forever (lifetime ``[t, MAX_TIME)``)."""
        return cls(t, MAX_TIME, payload)

    # -- predicates --------------------------------------------------------

    @property
    def is_point(self) -> bool:
        """True when this event occupies exactly one tick."""
        return self.re == self.le + TICK

    def active_at(self, t: int) -> bool:
        """True when ``t`` falls inside this event's lifetime."""
        return self.le <= t < self.re

    def overlaps(self, other: "Event") -> bool:
        """True when the two lifetimes share at least one tick."""
        return self.le < other.re and other.le < self.re

    # -- derivation --------------------------------------------------------

    def with_lifetime(self, le: int, re: int) -> "Event":
        """A copy of this event with a new lifetime."""
        return Event(le, re, self.payload)

    def with_payload(self, payload: Payload) -> "Event":
        """A copy of this event with a new payload."""
        return Event(self.le, self.re, payload)

    # -- plumbing ----------------------------------------------------------

    def sort_key(self):
        """Deterministic total order used when canonicalizing streams."""
        return (self.le, self.re, sorted(self.payload.items(), key=repr))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.le == other.le
            and self.re == other.re
            and dict(self.payload) == dict(other.payload)
        )

    def __hash__(self):  # pragma: no cover - events are not hashable
        raise TypeError("Event is not hashable (payloads are dicts)")

    def __repr__(self) -> str:
        re_str = "inf" if self.re >= MAX_TIME else str(self.re)
        return f"Event([{self.le},{re_str}) {dict(self.payload)!r})"


def point_event(
    row: Payload, time_column: str = "Time", drop_time: bool = True
) -> Event:
    """One row (dict) as a point event keyed on ``time_column``.

    Raises ``KeyError`` when the row has no ``time_column`` and whatever
    :class:`Event` raises for an unusable timestamp.
    """
    t = row[time_column]
    if drop_time:
        payload = {k: v for k, v in row.items() if k != time_column}
    else:
        payload = row
    return Event.point(t, payload)


def point_events(
    rows: Iterable[Payload], time_column: str = "Time", drop_time: bool = True
) -> list:
    """Convert rows (dicts) into point events keyed on ``time_column``.

    This is exactly the row→event conversion TiMR's generated reducer
    performs (Section III-A step 4): the predefined ``Time`` column becomes
    the event timestamp and the rest of the row becomes the payload. The
    timestamp lives in the event lifetime, not the payload, so results
    are identical whether a query runs on one node or round-trips through
    M-R files (which re-derive the Time column from event LEs).

    Args:
        rows: input rows; each must contain ``time_column``.
        time_column: name of the timestamp column.
        drop_time: keep the time column out of the payload (default).
    """
    return [point_event(row, time_column, drop_time) for row in rows]


def events_to_rows(
    events: Iterable[Event], time_column: str = "Time", re_column: Optional[str] = "_re"
) -> list:
    """Convert result events back into rows (the reducer's output side).

    The event LE is written to ``time_column``; the RE is preserved in
    ``re_column`` (pass ``None`` to drop it) so that downstream TiMR stages
    can faithfully reconstruct interval events.
    """
    rows = []
    for e in events:
        row = dict(e.payload)
        row[time_column] = e.le
        if re_column is not None:
            row[re_column] = e.re
        rows.append(row)
    return rows


def rows_to_events(
    rows: Iterable[Payload], time_column: str = "Time", re_column: str = "_re"
) -> list:
    """Inverse of :func:`events_to_rows` for intermediate TiMR stages.

    Rows carrying an ``re_column`` become interval events; rows without it
    become point events. Each payload is a copy of its row minus the two
    lifetime columns, the rest in the row's order; the rows themselves
    are not touched (a reducer may be handed them again).
    """
    events = []
    for row in rows:
        payload = dict(row)
        t = payload.pop(time_column)
        re = payload.pop(re_column, t + TICK)
        events.append(Event(t, re, payload))
    return events
