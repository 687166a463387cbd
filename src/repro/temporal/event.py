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
from operator import attrgetter, contains, eq, gt, index as as_index, itemgetter, le
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .time import MAX_TIME, TICK, check_time, check_times, validate_interval

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


_LE = attrgetter("le")
_RE = attrgetter("re")
_PAYLOAD = attrgetter("payload")
_DICT_ONLY = {dict}
_INT_ONLY = {int}
_NO_LAYOUT = object()
_ROW_LE = itemgetter(0)
_ROW_RE = itemgetter(1)
_ROW_VALUES = itemgetter(slice(2, None))


class LayoutRows(Sequence):
    """Rows ``(le, re, *values)`` under one payload *layout*, read as events.

    What a flow releases from a keyed GroupApply at its root: ``rows``
    are the node's output as it built it, ``layout`` the payload's
    column names in order. Indexing and iteration build each ``Event``
    with a fresh payload dict; :class:`EventColumns` packs the rows
    directly, building none. Read-only; compares equal to a list of
    equal events.
    """

    __slots__ = ("layout", "rows")

    def __init__(self, layout: tuple, rows: list):
        self.layout = layout
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(LayoutRows(self.layout, self.rows[i]))
        le, re, *values = self.rows[i]
        return Event(le, re, dict(zip(self.layout, values)))

    def __iter__(self):
        rows = self.rows
        payloads = map(dict, map(zip, repeat(self.layout), map(_ROW_VALUES, rows)))
        return map(Event, map(_ROW_LE, rows), map(_ROW_RE, rows), payloads)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (LayoutRows, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"LayoutRows({list(self)!r})"


#: ``EngineStats.resolutions`` names of the two ways a row is retained
#: unpacked: a time ``array('q')`` cannot hold, a payload not a plain dict.
TIMES_UNPACKED = "retained.times_unpacked"
PAYLOADS_WHOLE = "retained.payloads_whole"


class EventColumns(Sequence):
    """A run's output, kept as columns; each access builds a fresh ``Event``.

    ``les`` / ``res`` are ``array('q')``. A payload is stored under its
    *layout* — its key tuple, in the payload's own order, interned once
    per run — as its values, appended to that layout's one list. Rows
    are grouped into maximal runs of one layout, so a result whose rows
    share one layout is one run: two int64 columns and one value list,
    and no dict, tuple or ``Event`` per row.

    Indexing and iteration rebuild each ``Event`` with a new payload dict
    of the same keys, in the same order, over the same value objects:
    equal to the event the run released, never the same object, so
    mutating it leaves the result unchanged. Read-only; compares equal
    to a list of equal events. Two kinds of row are kept as they came
    and counted in :attr:`resolutions`: a time ``array('q')`` cannot
    hold (a float, say) turns ``les`` / ``res`` into lists, and a payload
    that is not exactly a ``dict`` is kept as the object itself.
    """

    __slots__ = (
        "les", "res", "_keys", "_values", "_ids", "_counts",
        "_run_rows", "_run_layouts", "_run_ordinals", "_whole",
    )

    def __init__(self, batches: Iterable[Sequence[Event]] = ()):
        """Pack ``batches`` of events, in order, then order rows by LE
        (stable: a permutation runs only when some LE decreases). A
        batch is a sequence of ``Event`` or a :class:`LayoutRows`."""
        self._reset()
        for batch in batches:
            self._extend(batch)
        self._order_by_le()

    def _reset(self) -> None:
        self.les = array("q")
        self.res = array("q")
        self._keys: List[Optional[tuple]] = []  # layout -> keys; None: whole
        self._values: List[list] = []  # layout -> its rows' values
        self._ids: Dict[Optional[tuple], int] = {}  # keys -> layout
        self._counts: List[int] = []  # layout -> rows in its closed runs
        # one entry per run: its first row, its layout, and that row's
        # ordinal among the layout's rows (for random access)
        self._run_rows = array("q")
        self._run_layouts = array("q")
        self._run_ordinals = array("q")
        self._whole = 0

    # -- packing -------------------------------------------------------------

    def _extend(self, events: Sequence[Event]) -> None:
        if not events:
            return
        row = len(self.les)
        if type(events) is LayoutRows:
            # already columns in all but name: transpose, no dict or Event
            les, res, *columns = zip(*events.rows)
            self._extend_times(list(les), list(res))
            values = self._open_run(events.layout, row)
            width, start = len(columns), len(values)
            values.extend(repeat(None, width * len(les)))
            for i, column in enumerate(columns):
                values[start + i :: width] = column
            return
        self._extend_times(list(map(_LE, events)), list(map(_RE, events)))
        payloads = list(map(_PAYLOAD, events))
        if set(map(type, payloads)) == _DICT_ONLY:
            keys = tuple(payloads[0])
            # every payload has exactly these keys in this order iff their
            # concatenated keys are ``keys`` repeated (a dict's keys are
            # distinct, so no row can straddle two repetitions)
            if [*chain.from_iterable(payloads)] == [*keys] * len(payloads):
                values = self._open_run(keys, row)
                values.extend(chain.from_iterable(map(dict.values, payloads)))
                return
        current = _NO_LAYOUT
        for row, payload in enumerate(payloads, row):
            if type(payload) is dict:
                keys = tuple(payload)
                if keys != current:
                    values = self._open_run(keys, row)
                    current = keys
                values.extend(payload.values())
            else:
                if current is not None:
                    values = self._open_run(None, row)
                    current = None
                values.append(payload)
                self._whole += 1

    def _extend_times(self, les: list, res: list) -> None:
        """Append one batch's lifetimes; a time ``array('q')`` cannot hold
        turns both columns into lists of the original values for good."""
        if isinstance(self.les, array):
            row = len(self.les)
            try:
                self.les.fromlist(les)
                self.res.fromlist(res)
                return
            except (TypeError, OverflowError):
                del self.les[row:]  # a failed fromlist adds nothing
                self.les, self.res = self.les.tolist(), self.res.tolist()
        self.les.extend(les)
        self.res.extend(res)

    def _open_run(self, keys: Optional[tuple], row: int) -> list:
        """Continue or start the run ``row`` belongs to; its value list."""
        layout = self._ids.get(keys)
        if layout is None:
            layout = self._ids[keys] = len(self._keys)
            self._keys.append(keys)
            self._values.append([])
            self._counts.append(0)
        layouts = self._run_layouts
        if layouts:
            if layouts[-1] == layout:
                return self._values[layout]
            self._counts[layouts[-1]] += row - self._run_rows[-1]
        self._run_rows.append(row)
        layouts.append(layout)
        self._run_ordinals.append(self._counts[layout])
        return self._values[layout]

    def _order_by_le(self) -> None:
        les = self.les
        if not any(map(gt, les, islice(les, 1, None))):
            return
        # rare (no benchmark query's driver releases out of LE order):
        # repack from the events themselves
        order = sorted(range(len(les)), key=les.__getitem__)
        events = list(self)
        self._reset()
        self._extend([events[i] for i in order])

    # -- reading -------------------------------------------------------------

    def _payloads(self):
        """Every row's payload, in row order: a fresh dict for a row of a
        layout, the object itself for a row kept whole."""
        # a layout's runs are met in ordinal order, so one iterator per
        # layout walks its values exactly once
        streams = [iter(values) for values in self._values]
        starts = self._run_rows
        ends = [*starts[1:], len(self.les)]
        for layout, start, end in zip(self._run_layouts, starts, ends):
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
        ordinal = self._run_ordinals[run] + i - self._run_rows[run]
        keys, values = self._keys[layout], self._values[layout]
        if keys is None:
            return values[ordinal]
        start = ordinal * len(keys)
        return dict(zip(keys, values[start : start + len(keys)]))

    def __len__(self) -> int:
        return len(self.les)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.les)))]
        i = as_index(i)
        n = len(self.les)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("EventColumns index out of range")
        return Event(self.les[i], self.res[i], self._payload(i))

    def __iter__(self):
        return map(Event, self.les, self.res, self._payloads())

    def __eq__(self, other) -> bool:
        if not isinstance(other, (EventColumns, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"EventColumns({list(self)!r})"

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
            # a layout's payload is already a fresh dict; a whole one is not
            row = payload if type(payload) is dict else dict(payload)
            row[TIME_COLUMN] = le
            if re_column is not None:
                row[RE_COLUMN] = re
            rows.append(row)
        return rows

    @property
    def resolutions(self) -> Dict[str, dict]:
        """The rows kept unpacked, in ``EngineStats.resolutions`` shape."""
        found = {}
        if not isinstance(self.les, array):
            found[TIMES_UNPACKED] = {
                "count": len(self.les),
                "reason": "an output time is not an int64: les/res kept as "
                "lists of the original values",
            }
        if self._whole:
            found[PAYLOADS_WHOLE] = {
                "count": self._whole,
                "reason": "an output payload is not a plain dict: kept as "
                "the object itself, not split into a layout",
            }
        return found




# -- the M-R row codec ----------------------------------------------------------


def not_a_row(rows: Iterable, numbered: bool = True) -> None:
    """Raise the named ``ValueError`` for the first of ``rows`` that is
    not a mapping of column to value: its position (unless not
    ``numbered``), type and value. A reader calls it once reading a row
    failed with a ``TypeError``, so valid rows pay nothing for it."""
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            at = f"row {i}" if numbered else "the row"
            raise ValueError(
                f"{at} is {type(row).__name__} {row!r}, not a mapping of "
                "column to value"
            )


def decode_row(row: Payload) -> Tuple[Any, Any, dict]:
    """One M-R row as ``(le, re, payload)``: what TiMR's generated
    reducer makes of it (Section III-A step 4).

    ``Time`` is the LE and ``_re`` the RE; a row without ``_re`` is a
    point event. The payload is a copy of the row's other columns, in
    the row's order; the row itself is not touched (M-R may hand it to
    a reducer again). Raises ``KeyError('Time')`` when the row has no
    ``Time``, and ``ValueError`` for a row that is not a mapping, a time
    :func:`~.time.check_time` refuses or an empty lifetime.
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


class TaggedRows(list):
    """One input's rows of a multi-input TiMR stage, each still carrying
    the ``_src`` its map task wrote: ``Engine.run`` decodes them without
    it, and a keyed sweep that reads ``_src`` reads the decoded payload."""


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
    if res is None:
        return les, [le + TICK for le in les], _payloads(rows, False)
    return les, res, _payloads(rows, True)


def _payloads(rows: List[Payload], has_re: bool, tagged: bool = False) -> list:
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
    if res is None:
        return list(map(Event, les, [le + TICK for le in les], _payloads(rows, False, tagged)))
    return list(map(Event, les, res, _payloads(rows, True, tagged)))


_ROW_DROPS = frozenset((TIME_COLUMN, RE_COLUMN))
_TAGGED_DROPS = _ROW_DROPS | {SRC_COLUMN}


class RowEvents(Sequence):
    """One chunk of a source's rows, read as events only when read.

    ``rows`` are in ``Time`` order, ``les`` are their times, checked by
    :func:`rows_by_time`, and ``res`` their REs, checked by
    :func:`_row_res` (``None`` when every row is a point), so reading the
    view cannot fail. Indexing and iteration decode every row once
    (:func:`_decode`) and keep the events: a second reader gets the same
    ones. ``drops`` are the row columns a decoded payload lacks: ``Time``,
    ``_re`` and, for a ``tagged`` row, ``_src``. A reader that needs only
    columns reads ``les``, :attr:`res` and ``rows`` and builds no
    ``Event`` (:attr:`decoded` stays False). Read-only.
    """

    __slots__ = ("les", "rows", "_res", "drops", "_events")

    def __init__(self, les: list, rows: List[Payload], res: Optional[list], tagged: bool = False):
        self.les = les
        self.rows = rows
        self._res = res
        self.drops = _TAGGED_DROPS if tagged else _ROW_DROPS
        self._events: Optional[list] = None

    @property
    def res(self) -> list:
        """Each row's RE: its ``_re``, or its LE + ``TICK`` for a point."""
        if self._res is None:
            return [le + TICK for le in self.les]
        return self._res

    @property
    def decoded(self) -> bool:
        """Whether some reader has turned the rows into events."""
        return self._events is not None

    def _read(self) -> list:
        if self._events is None:
            self._events = _decode(
                self.les, self.rows, self._res, SRC_COLUMN in self.drops
            )
        return self._events

    def __len__(self) -> int:
        return len(self.les)

    def __getitem__(self, i):
        return self._read()[i]

    def __iter__(self):
        return iter(self._read())


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


def events_to_rows(
    events: Iterable[Event], re_column: Optional[str] = RE_COLUMN
) -> list:
    """Events as rows, each as :func:`encode_row` writes it (the
    reducer's output side). ``re_column=None`` leaves ``_re`` out, for
    a final output read as points. An ``Engine.run`` result
    (:class:`EventColumns`) is read column-wise, with no ``Event`` built.
    """
    if isinstance(events, EventColumns):
        return events.to_rows(re_column)
    keep_re = re_column is not None
    return [encode_row(e.le, e.re if keep_re else None, e.payload) for e in events]
