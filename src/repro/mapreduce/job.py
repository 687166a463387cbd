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
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

Row = dict
Reducer = Callable[[int, List[Row]], Iterable[Row]]
#: a map-phase row transform: row in, rows out (``[]`` drops the row)
MapFn = Callable[[Row], Iterable[Row]]


def stable_hash(value) -> int:
    """Deterministic 32-bit hash of any repr-able value."""
    return zlib.crc32(repr(value).encode("utf-8"))


def key_by_columns(columns: Sequence[str]) -> Callable[[Row], tuple]:
    """A map-phase key function extracting the named columns."""
    cols = tuple(columns)

    def key(row: Row) -> tuple:
        return tuple([row[c] for c in cols])

    return key


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


@dataclass
class MapReduceJob:
    """A sequence of stages; each stage consumes the previous one's output."""

    name: str
    stages: List[MapReduceStage] = field(default_factory=list)

    def add_stage(self, stage: MapReduceStage) -> "MapReduceJob":
        self.stages.append(stage)
        return self
