"""Columnar event batches: the struct-of-arrays physical format.

The logical unit of flow in the dataflow runtime is a *batch of events*.
Until now the physical representation was always ``List[Event]`` — one
heap object plus one payload dict per event. This module provides the
columnar alternative: an :class:`EventBatch` stores the two lifetime
endpoints as packed ``array('q')`` columns and each payload key as one
named column, so the stateless hot path (Where / Project /
AlterLifetime) becomes column sweeps instead of per-event dict hops,
and a whole batch pickles as a handful of arrays instead of N objects.

Correctness never depends on which operators understand the columnar
format. The representation is *exactly* row-convertible:

* per-row payload key order is preserved via interned ``layouts``
  (distinct key tuples) plus a per-row ``layout_ids`` index, so
  ``EventBatch.from_events(events).to_events() == events`` including
  heterogeneous payloads and missing keys;
* absent keys are stored as the :data:`MISSING` sentinel and never
  surface in reconstructed payloads;
* lifetimes are plain ints in ``[MIN_TIME, MAX_TIME]``, which fits
  ``array('q')`` (both sentinels are ±2**62).

Payload immutability contract
-----------------------------

Columns may be *shared* between batches (``with_lifetimes`` reuses the
input's columns; an all-pass Where returns its input batch unchanged),
and user callables running over a columnar batch receive a
:class:`BatchRowView` — a read-only mapping over the shared columns —
instead of a private dict. User functions must therefore treat payload
arguments as immutable and return new mappings; mutating them in place
was already undefined behaviour in row mode (events are multicast to
every consumer) and is now flagged statically by the
``batch.payload-mutation`` lint rule (see docs/BATCH_FORMAT.md).
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from typing import Iterable, List, Sequence, Tuple

from .event import Event

__all__ = ["MISSING", "EventBatch", "BatchRowView"]


class _MissingType:
    """Singleton marking "this row has no value for this column"."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"

    def __reduce__(self):
        # pickle round-trips to the same singleton so ``is MISSING``
        # checks keep working on the far side of a pipe
        return (_MissingType, ())


MISSING = _MissingType()


class EventBatch:
    """A struct-of-arrays batch of temporal events.

    Attributes:
        les / res: ``array('q')`` of lifetime endpoints, one per row.
        columns: ``{column name: list of values}``; every list has one
            slot per row, with :data:`MISSING` where the row's payload
            lacks the key. Insertion order is first-seen column order.
        layouts: interned distinct per-row key tuples (payload key
            *order* matters for exact row round-trips).
        layout_ids: ``array('i')`` mapping each row to its layout.

    Batches are immutable by contract: every transformation returns a
    new batch (possibly sharing column lists with its input), and
    nothing in the runtime writes to a column after construction.
    """

    __slots__ = ("les", "res", "columns", "layouts", "layout_ids", "_payloads")

    def __init__(self, les, res, columns, layouts, layout_ids):
        self.les = les
        self.res = res
        self.columns = columns
        self.layouts = layouts
        self.layout_ids = layout_ids
        # memoized payload_dicts() result, boxed so batches sharing the
        # same rows (with_lifetimes) also share the cache; row bridges
        # on both sides of a lifetime rewrite then materialize payload
        # dicts once, mirroring row mode's share-by-reference economics
        self._payloads = [None]

    def __getstate__(self):
        # the payload cache never crosses the pickle boundary: the
        # receiver rebuilds rows on demand, and shipping cached dicts
        # would defeat the compact wire format
        return (self.les, self.res, self.columns, self.layouts, self.layout_ids)

    def __setstate__(self, state):
        self.les, self.res, self.columns, self.layouts, self.layout_ids = state
        self._payloads = [None]

    # -- construction -------------------------------------------------

    @classmethod
    def empty(cls) -> "EventBatch":
        return cls(array("q"), array("q"), {}, [], array("i"))

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> "EventBatch":
        """Build a batch from events, preserving per-row payload layout."""
        les = array("q", [e.le for e in events])
        res = array("q", [e.re for e in events])
        if events:
            # single-layout fast path: real feeds are overwhelmingly
            # homogeneous, and per-column comprehensions beat the
            # per-row/per-key loop by a wide margin
            keys = tuple(events[0].payload)
            if all(tuple(e.payload) == keys for e in events):
                batch = cls(
                    les,
                    res,
                    {key: [e.payload[key] for e in events] for key in keys},
                    [keys],
                    array("i", bytes(4 * len(les))),
                )
                # the events' own payload dicts seed the row bridge —
                # the same objects row mode shares by reference
                batch._payloads[0] = [e.payload for e in events]
                return batch
        columns: dict = {}
        layouts: list = []
        layout_map: dict = {}
        layout_ids = array("i", bytes(4 * len(les)))
        width = 0
        for i, event in enumerate(events):
            payload = event.payload
            keys = tuple(payload)
            lid = layout_map.get(keys)
            if lid is None:
                lid = layout_map[keys] = len(layouts)
                layouts.append(keys)
            layout_ids[i] = lid
            for key, value in payload.items():
                col = columns.get(key)
                if col is None:
                    col = columns[key] = [MISSING] * i
                    width += 1
                col.append(value)
            if width > len(keys):
                for col in columns.values():
                    if len(col) <= i:
                        col.append(MISSING)
        batch = cls(les, res, columns, layouts, layout_ids)
        batch._payloads[0] = [e.payload for e in events]
        return batch

    @classmethod
    def from_rows(cls, times, rows, drop: str) -> "EventBatch":
        """Build a point-event batch straight from source row dicts.

        ``times`` holds one LE per row (already extracted and sorted by
        the driver); rows become point events (lifetime ``[t, t+TICK)``)
        and ``drop`` is the time column, excluded from the payload
        exactly as the row path's ``dict(row); del row[drop]`` would.
        Skipping the per-row :class:`Event` materialisation is the
        columnar feed edge's main saving.
        """
        from .time import TICK

        les = array("q", times)
        res = array("q", [t + TICK for t in times])
        if rows:
            all_keys = tuple(rows[0])
            if all(tuple(r) == all_keys for r in rows):
                keys = tuple(k for k in all_keys if k != drop)
                return cls(
                    les,
                    res,
                    {key: [r[key] for r in rows] for key in keys},
                    [keys],
                    array("i", bytes(4 * len(les))),
                )
        payloads = []
        for row in rows:
            payload = dict(row)
            del payload[drop]
            payloads.append(payload)
        return cls.from_payloads(les, res, payloads)

    @classmethod
    def from_payloads(cls, les, res, payloads: Iterable[Mapping]) -> "EventBatch":
        """Build a batch from lifetime arrays plus one payload mapping
        per row (the Project kernel's output path). ``les``/``res`` and
        the payload mappings are adopted, not copied: the mappings seed
        the row-bridge cache (exactly the objects row mode would have
        carried as ``Event.payload``), so treat them as read-only."""
        if not isinstance(payloads, list):
            payloads = list(payloads)
        if payloads:
            keys = tuple(payloads[0])
            if all(tuple(p) == keys for p in payloads):
                batch = cls(
                    les,
                    res,
                    {key: [p[key] for p in payloads] for key in keys},
                    [keys],
                    array("i", bytes(4 * len(les))),
                )
                batch._payloads[0] = payloads
                return batch
        columns: dict = {}
        layouts: list = []
        layout_map: dict = {}
        layout_ids = array("i", bytes(4 * len(les)))
        width = 0
        for i, payload in enumerate(payloads):
            keys = tuple(payload)
            lid = layout_map.get(keys)
            if lid is None:
                lid = layout_map[keys] = len(layouts)
                layouts.append(keys)
            layout_ids[i] = lid
            for key in keys:
                col = columns.get(key)
                if col is None:
                    col = columns[key] = [MISSING] * i
                    width += 1
                col.append(payload[key])
            if width > len(keys):
                for col in columns.values():
                    if len(col) <= i:
                        col.append(MISSING)
        batch = cls(les, res, columns, layouts, layout_ids)
        batch._payloads[0] = payloads
        return batch

    @classmethod
    def concat(cls, batches: Sequence["EventBatch"]) -> "EventBatch":
        """Concatenate batches into one, re-interning layouts."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        les = array("q")
        res = array("q")
        columns: dict = {}
        layouts: list = []
        layout_map: dict = {}
        layout_ids = array("i")
        n = 0
        for batch in batches:
            les.extend(batch.les)
            res.extend(batch.res)
            remap = []
            for keys in batch.layouts:
                lid = layout_map.get(keys)
                if lid is None:
                    lid = layout_map[keys] = len(layouts)
                    layouts.append(keys)
                remap.append(lid)
            layout_ids.extend(remap[lid] for lid in batch.layout_ids)
            m = len(batch.les)
            for key, col in batch.columns.items():
                dest = columns.get(key)
                if dest is None:
                    dest = columns[key] = [MISSING] * n
                dest.extend(col)
            n += m
            for dest in columns.values():
                if len(dest) < n:
                    dest.extend([MISSING] * (n - len(dest)))
        return cls(les, res, columns, layouts, layout_ids)

    # -- row bridge ---------------------------------------------------

    def to_events(self) -> List[Event]:
        """Reconstruct the exact row sequence (payload key order and
        values included) this batch was built from."""
        # map() drives the construction loop at C level
        return list(map(Event, self.les, self.res, self.payload_dicts()))

    def payload_at(self, index: int) -> dict:
        """A fresh, private payload dict for one row."""
        columns = self.columns
        return {
            key: columns[key][index]
            for key in self.layouts[self.layout_ids[index]]
        }

    def payload_dicts(self) -> List[dict]:
        """One payload mapping per row, in row order.

        The result is memoized (and shared with ``with_lifetimes``
        siblings), so the mappings are *shared, not private* — the same
        read-only contract as row-mode ``Event.payload``.
        """
        cached = self._payloads[0]
        if cached is not None:
            return cached
        les, columns = self.les, self.columns
        if len(self.layouts) == 1 and les:
            # single layout: C-level column transpose beats per-row
            # dictcomps by a wide margin
            keys = self.layouts[0]
            if not keys:
                payloads = [{} for _ in les]
            else:
                payloads = [
                    dict(zip(keys, vals))
                    for vals in zip(*(columns[key] for key in keys))
                ]
        else:
            layout_cols = [
                tuple((key, columns[key]) for key in keys)
                for keys in self.layouts
            ]
            layout_ids = self.layout_ids
            payloads = [
                {key: col[i] for key, col in layout_cols[layout_ids[i]]}
                for i in range(len(les))
            ]
        self._payloads[0] = payloads
        return payloads

    def row_view(self, index: int = 0) -> "BatchRowView":
        """A reusable read-only mapping view; kernels advance ``.index``."""
        return BatchRowView(self, index)

    # -- transformations ----------------------------------------------

    def gather(self, indices: Sequence[int]) -> "EventBatch":
        """Select rows by index (the Where kernel's output path)."""
        les, res = self.les, self.res
        layout_ids = self.layout_ids
        return EventBatch(
            array("q", [les[i] for i in indices]),
            array("q", [res[i] for i in indices]),
            {key: [col[i] for i in indices] for key, col in self.columns.items()},
            self.layouts,
            array("i", [layout_ids[i] for i in indices]),
        )

    def slice(self, start: int, stop: int) -> "EventBatch":
        """Contiguous row range as a new batch (columns are copied
        slices; layouts are shared)."""
        return EventBatch(
            self.les[start:stop],
            self.res[start:stop],
            {key: col[start:stop] for key, col in self.columns.items()},
            self.layouts,
            self.layout_ids[start:stop],
        )

    def with_lifetimes(self, les, res) -> "EventBatch":
        """Same rows, new lifetime arrays (the AlterLifetime kernel's
        no-drop output path — payload columns are shared, not copied)."""
        batch = EventBatch(les, res, self.columns, self.layouts, self.layout_ids)
        batch._payloads = self._payloads  # same rows: share the dict cache
        return batch

    # -- introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self.les)

    @property
    def last_le(self) -> int:
        return self.les[-1]

    def column_names(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def __repr__(self) -> str:
        return (
            f"EventBatch({len(self)} rows, "
            f"columns={list(self.columns)!r}, layouts={len(self.layouts)})"
        )

    def __eq__(self, other):
        if not isinstance(other, EventBatch):
            return NotImplemented
        return self.to_events() == other.to_events()

    __hash__ = None


class BatchRowView:
    """Read-only ``Mapping`` view of one batch row's payload.

    Kernels allocate one view per batch and advance ``view.index``
    across rows, so black-box predicates and projection functions run
    without a per-row dict materialisation. The view is only valid
    while the kernel is positioned on the row; user functions must not
    retain it (they receive payloads as transient arguments already).
    """

    __slots__ = ("_batch", "_columns", "index")

    def __init__(self, batch: EventBatch, index: int = 0):
        self._batch = batch
        self._columns = batch.columns  # bound once: the hot lookup path
        self.index = index

    def __getitem__(self, key):
        value = self._columns[key][self.index]
        if value is MISSING:
            raise KeyError(key)
        return value

    def get(self, key, default=None):
        column = self._columns.get(key)
        if column is None:
            return default
        value = column[self.index]
        return default if value is MISSING else value

    def __contains__(self, key) -> bool:
        column = self._columns.get(key)
        return column is not None and column[self.index] is not MISSING

    def keys(self) -> Tuple[str, ...]:
        return self._batch.layouts[self._batch.layout_ids[self.index]]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    def items(self):
        columns = self._batch.columns
        index = self.index
        return [(key, columns[key][index]) for key in self.keys()]

    def values(self):
        columns = self._batch.columns
        index = self.index
        return [columns[key][index] for key in self.keys()]

    def copy(self) -> dict:
        return self._batch.payload_at(self.index)

    def __eq__(self, other):
        if isinstance(other, BatchRowView):
            return self.items() == other.items()
        if isinstance(other, Mapping):
            return self.copy() == dict(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"BatchRowView({self.copy()!r})"


# a BatchRowView satisfies the Mapping protocol (and user code may
# reasonably isinstance-check payload arguments against it)
Mapping.register(BatchRowView)
