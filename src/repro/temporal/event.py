"""Events: the unit of data flowing through the temporal engine.

An event (Section II-A.1) carries a *payload* (a mapping of column name to
value) and a *control parameter*: the half-open validity interval
``[le, re)`` over which the payload contributes to query output. Point
events — instantaneous notifications such as a click — have ``re = le +
TICK``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import attrgetter, contains, eq, gt, le
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .time import _INT_ONLY, MAX_TIME, TICK, check_time, check_times, data_error, validate_interval

Payload = Mapping[str, Any]

#: The reserved columns of an M-R row (paper Section III-A step 4): the
#: event's LE, its RE (absent: a point event, RE = LE + TICK), and the
#: input a row of a multi-input union came from. :func:`decode_row` and
#: :func:`encode_row` at the end of this module are the row format.
TIME_COLUMN = "Time"
RE_COLUMN = "_re"
SRC_COLUMN = "_src"


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
            raise data_error(ValueError(f"empty or inverted lifetime [{le}, {re})"))
        self.le = le
        self.re = re
        self.payload = payload

    @classmethod
    def point(cls, t: int, payload: Payload) -> "Event":
        """An instantaneous event at time ``t`` (lifetime ``[t, t+TICK)``)."""
        return cls(t, t + TICK, payload)

    @classmethod
    def until_end_of_time(cls, t: int, payload: Payload) -> "Event":
        """An event valid from ``t`` forever (lifetime ``[t, MAX_TIME)``)."""
        return cls(t, MAX_TIME, payload)

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

    def with_lifetime(self, le: int, re: int) -> "Event":
        """A copy of this event with a new lifetime."""
        return Event(le, re, self.payload)

    def with_payload(self, payload: Payload) -> "Event":
        """A copy of this event with a new payload."""
        return Event(self.le, self.re, payload)

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


_LE = attrgetter("le")
_RE = attrgetter("re")
_PAYLOAD = attrgetter("payload")
_ROW_DROPS = frozenset((TIME_COLUMN, RE_COLUMN))
_TAGGED_DROPS = _ROW_DROPS | {SRC_COLUMN}

#: ``EngineStats.resolutions`` names of result rows kept unpacked (:attr:`Batch.resolutions`)
TIMES_UNPACKED = "retained.times_unpacked"
PAYLOADS_WHOLE = "retained.payloads_whole"


class Batch(Sequence):
    """Events held as columns: the one batch type between M-R rows and
    the engine, and what ``Engine.run`` returns. Read-only; compares
    equal to a list of equal events. ``les`` is the LE column, ``_res``
    the RE column or ``None`` when every row is a point (:attr:`res`
    spells it out). A payload is held one of two ways:

    * as a source's row (``rows``, in ``Time`` order, times checked)
      plus the columns its decode ``drops``: ``Time``, ``_re`` and, for a
      tagged input, ``_src``. The first read of an event decodes every
      row (:func:`_decode`) and later readers share those events
      (:attr:`decoded`); a keyed sweep reads the columns and decodes none.
    * as values under a *layout* (its keys in order, interned once per
      batch) in that layout's one flat list, rows grouped into maximal
      runs of one layout; a payload not exactly a ``dict`` is kept whole
      in a run of the ``None`` layout. Each read builds a fresh ``Event``
      and payload dict: none is held per row, and mutating one changes
      nothing. A keyed root's release is one run (:meth:`of_columns`),
      over ``array('q')`` times in the array form, which :meth:`pack`
      appends as they are.
    """

    __slots__ = ("les", "_res", "rows", "drops", "_events", "_keys", "_values", "_ids",
                 "_run_rows", "_run_layouts", "_run_ordinals")

    def __init__(self, les, res, rows: Optional[list] = None, drops=_ROW_DROPS):
        self.les, self._res, self.rows, self.drops = les, res, rows, drops
        self._events: Optional[list] = None  # the rows' events, once decoded
        self._keys: List[Optional[tuple]] = []  # layout -> its keys; None: whole
        self._values: List[list] = []  # layout -> its rows' values
        self._ids: Dict[Optional[tuple], int] = {}  # keys -> layout
        # per run: its first row, its layout, and that row's ordinal in the layout
        self._run_rows, self._run_layouts, self._run_ordinals = array("q"), array("q"), array("q")

    @classmethod
    def source(cls, rows: List[Payload], tagged: bool = False) -> "Batch":
        """A source's rows in ``Time`` order, times and REs checked up
        front (:func:`rows_by_time`, :func:`_row_res`) so that reading
        cannot fail; ``tagged``: each row carries a TiMR map task's ``_src``."""
        rows, les = rows_by_time(rows)
        return cls(les, _row_res(les, rows), rows, _TAGGED_DROPS if tagged else _ROW_DROPS)

    def cut(self, i: int, j: int) -> "Batch":
        """Rows ``i`` to ``j`` of a source's batch, as a batch of their own."""
        res = None if self._res is None else self._res[i:j]
        return Batch(self.les[i:j], res, self.rows[i:j], self.drops)

    @classmethod
    def of_columns(cls, layout: tuple, les, res, columns: List[list]) -> "Batch":
        """Rows over lifetimes ``les`` / ``res`` whose values are ``columns``,
        a list per column of ``layout``: a keyed sweep's release, one run."""
        batch = cls(les, res)
        values = batch._open_run(layout, 0)  # row-major: a slice assignment per column
        values.extend(repeat(None, len(columns) * len(les)))
        for i, column in enumerate(columns):
            values[i :: len(columns)] = column
        return batch

    @classmethod
    def pack(cls, batches: Iterable[Sequence[Event]]) -> "Batch":
        """``batches`` of events, in order, as layout values over int64
        times (lists, once a time does not fit: :attr:`resolutions`),
        then ordered by LE (stable; only when some LE decreases)."""
        packed = cls(array("q"), array("q"))
        for batch in batches:
            packed._extend(batch)
        les = packed.les
        if ((np.diff(np.asarray(les)) < 0).any() if type(les) is array
                else any(map(gt, les, islice(les, 1, None)))):
            # rare: no benchmark query's driver releases out of LE order
            return cls.pack([sorted(packed, key=_LE)])
        return packed

    def _extend(self, events: Sequence[Event]) -> None:
        if not events:
            return
        row = len(self.les)
        if type(events) is Batch and events.rows is None and len(events._run_rows) == 1:
            # a keyed root's release: its columns as they are, no Event
            self._extend_times(events.les, events._res)
            self._open_run(events._keys[0], row).extend(events._values[0])
            return
        self._extend_times(list(map(_LE, events)), list(map(_RE, events)))
        payloads = list(map(_PAYLOAD, events))
        if set(map(type, payloads)) == {dict}:
            keys = tuple(payloads[0])
            # every payload has these keys in this order iff their keys, in a
            # row, are ``keys`` repeated (a dict's keys are distinct)
            if [*chain.from_iterable(payloads)] == [*keys] * len(payloads):
                values = self._open_run(keys, row)
                values.extend(chain.from_iterable(map(dict.values, payloads)))
                return
        current = 0  # no layout yet: not a tuple, not None
        for row, payload in enumerate(payloads, row):
            keys = tuple(payload) if type(payload) is dict else None
            if keys != current:
                values, current = self._open_run(keys, row), keys
            values.extend((payload,) if keys is None else payload.values())

    def _extend_times(self, les, res) -> None:
        """Append lifetimes; a time ``array('q')`` cannot hold turns both
        columns into lists of the original values for good."""
        if type(self.les) is array:
            if type(les) is array:  # int64 already: one copy
                self.les.extend(les)
                self._res.extend(res)
                return
            try:
                self.les.fromlist(les)
                self._res.fromlist(res)
                return
            except (TypeError, OverflowError):  # a failed fromlist adds nothing
                del self.les[len(self._res):]
                self.les, self._res = self.les.tolist(), self._res.tolist()
        self.les.extend(les)
        self._res.extend(res)

    def _open_run(self, keys: Optional[tuple], row: int) -> list:
        """Continue or start the run ``row`` belongs to; its value list."""
        layout = self._ids.setdefault(keys, len(self._keys))
        if layout == len(self._keys):
            self._keys.append(keys)
            self._values.append([])
        values = self._values[layout]
        if not self._run_layouts or self._run_layouts[-1] != layout:
            width = 1 if keys is None else len(keys)
            self._run_rows.append(row)
            self._run_layouts.append(layout)
            self._run_ordinals.append(len(values) // width if width else 0)
        return values

    @property
    def res(self) -> list:
        """Each row's RE: the RE column, or LE + ``TICK`` for a point."""
        return [le + TICK for le in self.les] if self._res is None else self._res

    @property
    def decoded(self) -> bool:
        """Whether some reader has turned a source's rows into events."""
        return self._events is not None

    def _read(self) -> list:
        if self._events is None:
            self._events = _decode(self.les, self.rows, self._res, SRC_COLUMN in self.drops)
        return self._events

    def _payloads(self):
        """Every row's payload, in row order: a fresh dict, except for a
        row kept whole, which is the object itself."""
        if self.rows is not None:
            yield from _row_payloads(self.rows, self._res is not None, SRC_COLUMN in self.drops)
            return
        # one iterator per layout walks its values once, run after run
        streams = [iter(values) for values in self._values]
        starts = self._run_rows
        for layout, start, end in zip(self._run_layouts, starts, [*starts[1:], len(self.les)]):
            rows = end - start
            keys, stream = self._keys[layout], streams[layout]
            if keys is None:
                yield from islice(stream, rows)
            else:
                # each zip draws len(keys) values off the shared stream
                yield from map(dict, map(zip, repeat(keys, rows), repeat(stream, rows)))

    def _payload(self, i: int):
        run = bisect_right(self._run_rows, i) - 1
        layout = self._run_layouts[run]
        keys, values = self._keys[layout], self._values[layout]
        at = self._run_ordinals[run] + i - self._run_rows[run]
        if keys is None:
            return values[at]
        return dict(zip(keys, values[at * len(keys) : (at + 1) * len(keys)]))

    def __len__(self) -> int:
        return len(self.les)

    def __getitem__(self, i):
        if self.rows is not None:
            return self._read()[i]
        at = range(len(self.les))[i]
        if type(at) is range:
            return [self[j] for j in at]
        return Event(self.les[at], self.res[at], self._payload(at))

    def __iter__(self):
        if self.rows is not None:
            return iter(self._read())
        return map(Event, self.les, self._res, self._payloads())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Batch, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"Batch({list(self)!r})"

    def to_rows(self, re_column: Optional[str] = RE_COLUMN) -> list:
        """:func:`events_to_rows` read straight off the columns: one dict
        per row and no ``Event``."""
        # reading an int64 column makes a new int per value; rows built
        # from Events shared the events' objects, so share equal times
        share = {}.setdefault
        les = [share(t, t) for t in self.les]
        res = [share(t, t) for t in self.res] if re_column is not None else les
        rows = []
        for payload, le, re in zip(self._payloads(), les, res):
            # a payload is a fresh dict unless it is kept whole
            row = payload if type(payload) is dict else dict(payload)
            row[TIME_COLUMN] = le
            if re_column is not None:
                row[RE_COLUMN] = re
            rows.append(row)
        return rows

    @property
    def resolutions(self) -> Dict[str, dict]:
        """A packed batch's rows kept unpacked, in ``EngineStats.resolutions`` shape."""
        unpacked = {
            TIMES_UNPACKED: (len(self.les) * (type(self.les) is not array), "an output time is "
                             "not an int64: les/res kept as lists of the original values"),
            PAYLOADS_WHOLE: (len(self._values[self._ids[None]]) if None in self._ids else 0,
                             "an output payload is not a plain dict: kept as the object "
                             "itself, not split into a layout"),
        }
        return {name: {"count": n, "reason": why} for name, (n, why) in unpacked.items() if n}


# -- the M-R row codec ----------------------------------------------------------


def not_a_row(rows: Iterable, numbered: bool = True) -> None:
    """Raise the named ``ValueError`` for the first of ``rows`` that is
    not a mapping of column to value: its position (unless not
    ``numbered``), type and value. A reader calls it once reading a row
    failed with a ``TypeError``, so valid rows pay nothing for it."""
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            at = f"row {i}" if numbered else "the row"
            raise data_error(ValueError(
                f"{at} is {type(row).__name__} {row!r}, not a mapping of column to value"))


def decode_row(row: Payload) -> Tuple[Any, Any, dict]:
    """One M-R row as ``(le, re, payload)``: what TiMR's generated
    reducer makes of it (Section III-A step 4). ``Time`` is the LE and
    ``_re`` the RE (none: a point); the payload is a copy of the row's
    other columns, in order, and the row is not touched (M-R may hand
    it to a reducer again). Raises ``KeyError('Time')`` for a row
    without ``Time``, and ``ValueError`` for a row that is not a
    mapping, a time :func:`~.time.check_time` refuses or an empty
    lifetime.
    """
    if type(row) is not dict and not isinstance(row, Mapping):
        not_a_row([row], numbered=False)
    payload = dict(row)
    le = check_time(payload.pop(TIME_COLUMN))
    if RE_COLUMN in payload:
        re = check_time(payload.pop(RE_COLUMN), RE_COLUMN, end=True)
    else:
        re = le + TICK
    validate_interval(le, re)
    return le, re, payload


def encode_row(le, re, payload: Payload) -> dict:
    """An event's lifetime and payload as one M-R row, the inverse of
    :func:`decode_row`: the payload's columns, then ``Time`` and
    ``_re`` (a payload column of either name is overwritten). ``re=None``
    writes no ``_re``: the row of a final output read as points."""
    row = dict(payload)
    row[TIME_COLUMN] = le
    if re is not None:
        row[RE_COLUMN] = re
    return row


def row_times(rows: List[Payload]) -> list:
    """Every row's ``Time`` as it is, for :func:`~.time.check_times`:
    ``KeyError('Time')`` for a row without one, the named ``ValueError``
    for a row that is not a mapping."""
    try:
        return [row[TIME_COLUMN] for row in rows]
    except TypeError:
        not_a_row(rows)
        raise
    except KeyError as exc:
        raise data_error(exc)


def rows_by_time(rows: List[Payload]) -> Tuple[list, list]:
    """``(rows, times)``: ``rows`` in ``Time`` order (stable; ``rows``
    itself when already in order) and their times, checked by
    :func:`~.time.check_times` once they ascend: the largest is then the
    last, and the check makes no pass for it."""
    times = row_times(rows)
    try:
        if not all(map(le, times, islice(times, 1, None))):
            order = sorted(range(len(times)), key=times.__getitem__)
            rows = [rows[i] for i in order]
            times = [times[i] for i in order]
    except TypeError:
        check_times(times)  # a time that is no number: the named error
        raise
    return rows, check_times(times, ordered=True)


def point_events(rows: Iterable[Payload]) -> list:
    """Rows as events: :func:`decode_row` over a list, at batch level.

    The one list decoder, and what ``Engine.run`` makes of a source of
    rows wherever it reads them as events. The timestamp lives in the
    event lifetime, not the payload, so results are identical whether a
    query runs on one node or round-trips through M-R files.
    """
    rows = rows if type(rows) is list else list(rows)
    les = check_times(row_times(rows))
    return _decode(les, rows, _row_res(les, rows))


#: :func:`point_events` under the name of the inverse of :func:`events_to_rows`.
rows_to_events = point_events


def decode_rows(rows: List[Payload]) -> Tuple[list, list, list]:
    """:func:`decode_row` over a list, at batch level: ``(les, res,
    payloads)``. A list with a row :func:`decode_row` refuses raises
    that row's own error, for the first such row."""
    try:
        les = check_times(row_times(rows))
        res = _row_res(les, rows)
    except (KeyError, TypeError, ValueError):
        for row in rows:
            decode_row(row)
        raise
    ends = [le + TICK for le in les] if res is None else res
    return les, ends, _row_payloads(rows, res is not None)


def _row_payloads(rows: List[Payload], has_re: bool, tagged: bool = False) -> list:
    """Each row's payload: a copy without its ``Time``, its ``_re`` (when
    some row ``has_re``) and, ``tagged``, its ``_src``."""
    payloads = []
    append = payloads.append
    for row in rows:
        payload = dict(row)
        del payload[TIME_COLUMN]
        if has_re and RE_COLUMN in payload:
            del payload[RE_COLUMN]
        if tagged:
            del payload[SRC_COLUMN]
        append(payload)
    return payloads


def _decode(les: list, rows: List[Payload], res: Optional[list], tagged: bool = False) -> list:
    """:func:`point_events` for ``rows`` whose times ``les`` and REs
    ``res`` (``None``: every row a point) :func:`_row_res` already
    checked; a ``tagged`` row loses its ``_src``."""
    ends = [le + TICK for le in les] if res is None else res
    return list(map(Event, les, ends, _row_payloads(rows, res is not None, tagged)))


def _row_res(les: list, rows: List[Payload]) -> Optional[list]:
    """The REs of ``rows`` whose LEs ``les`` are checked, with
    :func:`decode_row`'s checks and errors and no payload copied;
    ``None`` when no row has an ``_re`` (every row a point). All-``int``
    REs past their LEs pass in C-level passes."""
    if not any(map(contains, rows, repeat(RE_COLUMN))):
        return None
    res = [row.get(RE_COLUMN, le + TICK) for le, row in zip(les, rows)]
    if set(map(type, res)) <= _INT_ONLY and all(map(gt, res, les)):
        return res
    res = []
    for le, row in zip(les, rows):
        if RE_COLUMN in row:
            re = check_time(row[RE_COLUMN], RE_COLUMN, end=True)
            validate_interval(le, re)  # Event's own check and message
            res.append(re)
        else:
            res.append(le + TICK)
    return res


def events_to_rows(events: Iterable[Event], re_column: Optional[str] = RE_COLUMN) -> list:
    """Events as rows, each as :func:`encode_row` writes it (the
    reducer's output side). ``re_column=None`` leaves ``_re`` out, for
    a final output read as points. A :class:`Batch` (an ``Engine.run``
    result) is read column-wise, with no ``Event`` built.
    """
    if type(events) is Batch:
        return events.to_rows(re_column)
    keep_re = re_column is not None
    return [encode_row(e.le, e.re if keep_re else None, e.payload) for e in events]
