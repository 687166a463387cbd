"""Map-reduce job definitions.

The basic model of Section II-B: each *stage* has a map phase, which
assigns every row to a partition via a partitioning key, and a reduce
phase, which runs the same user-supplied reducer over every partition in
parallel. Rows within a partition are delivered to the reducer sorted by
``Time`` (secondary sort), which is the contract TiMR's embedded-DSMS
reducers rely on.

Partition routing uses a *stable* hash (crc32 of the key's repr) so that
job output is identical across processes and reruns — Python's builtin
``hash`` is randomized per process and would break the determinism the
paper's failure-recovery argument requires.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Sequence

Row = dict
Reducer = Callable[[int, List[Row]], Iterable[Row]]
#: a map task's transform: one input partition in, the list of rows it
#: maps to out, in input order (a row may map to none or to several).
#: It should treat each row on its own: a failing task is run again on
#: parts of its partition, down to single rows, to find the rows that
#: fail, and a failure no single row explains raises the task's error
#: (``Cluster._map_partition_rows``)
MapFn = Callable[[List[Row]], List[Row]]


def stable_hash(value) -> int:
    """Deterministic 32-bit hash of any repr-able value."""
    return zlib.crc32(repr(value).encode("utf-8"))


class ColumnKey:
    """A map-phase key function: a row's values in ``columns``, always
    as a tuple. :meth:`of` keys a whole partition in C-level passes."""

    __slots__ = ("columns", "_get")

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        self._get = itemgetter(*self.columns) if self.columns else None

    def __call__(self, row: Row) -> tuple:
        return self.of([row])[0]

    def of(self, rows: List[Row]) -> List[tuple]:
        """Every row's key, in order."""
        if len(self.columns) == 1:
            return list(zip(map(self._get, rows)))
        if not self.columns:
            return [()] * len(rows)
        return list(map(self._get, rows))


def key_by_columns(columns: Sequence[str]) -> ColumnKey:
    """A map-phase key function extracting the named columns."""
    return ColumnKey(columns)


def random_key(row: Row) -> int:
    """Round-robin-ish routing for stages that accept any partitioning."""
    return stable_hash(tuple(sorted(row.items(), key=repr)))


@dataclass
class MapReduceStage:
    """One map+reduce stage.

    Attributes:
        name: stage label (shows up in cost reports).
        key_fn: map phase — extracts the partitioning key from a row.
        reducer: ``reducer(partition_index, rows_sorted_by_time) -> rows``.
        num_partitions: how many reduce partitions (the paper buckets
            fine-grained keys into ``hash(key) % #machines`` partitions,
            Section III-C.3).
        sort_by_time: deliver partition rows time-sorted (default, the
            TiMR contract).
        partition_fn: optional override routing a key directly to a
            partition index (used by temporal partitioning, where one row
            can belong to *several* spans — return a list of indices).

    A map function belongs to an input: ``Cluster.run_stage`` takes one
    per dataset it reads.
    """

    name: str
    key_fn: Callable[[Row], object]
    reducer: Reducer
    num_partitions: int = 8
    sort_by_time: bool = True
    partition_fn: Optional[Callable[[Row], List[int]]] = None
