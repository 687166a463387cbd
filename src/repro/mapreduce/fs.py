"""A simulated distributed file system (Cosmos/HDFS/GFS stand-in).

Datasets are named collections of row dicts, stored as a list of
*partitions* (the unit a reducer consumes). The paper's convention
(Section III-A footnote) is enforced on ingest: the first column of
every source, intermediate, and output file is ``Time``, so TiMR can
transparently derive and maintain temporal information.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List

from ..temporal.event import TIME_COLUMN, not_a_row

Row = dict


class DistributedFile:
    """A dataset stored as one or more partitions of rows."""

    _serials = itertools.count()

    def __init__(self, name: str, partitions: List[List[Row]]):
        self.name = name
        self.partitions = partitions
        self.serial = next(DistributedFile._serials)  # unlike ``id``, never handed out again

    @property
    def num_rows(self) -> int:
        return sum(len(p) for p in self.partitions)

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def all_rows(self) -> List[Row]:
        """All rows, concatenated across partitions."""
        rows: List[Row] = []
        for p in self.partitions:
            rows.extend(p)
        return rows

    def __repr__(self):
        return (
            f"DistributedFile({self.name!r}, rows={self.num_rows}, "
            f"partitions={self.num_partitions})"
        )


class DistributedFileSystem:
    """Named datasets living "in the cluster"."""

    def __init__(self):
        self._files: Dict[str, DistributedFile] = {}

    def write(
        self,
        name: str,
        rows: Iterable[Row],
        num_partitions: int = 1,
        require_time_column: bool = True,
    ) -> DistributedFile:
        """Store ``rows`` under ``name``, round-robin across partitions.

        Raises ``ValueError`` when a row is not a mapping or lacks the
        mandatory ``Time`` column (unless ``require_time_column`` is
        disabled for ad-hoc side data).
        """
        rows = list(rows)
        if require_time_column:
            try:
                missing = [row for row in rows if TIME_COLUMN not in row]
            except TypeError:
                missing = rows  # some row is no mapping: named below
            if missing:
                not_a_row(rows)
                raise ValueError(
                    f"row {missing[0]!r} has no 'Time' column; TiMR requires "
                    "the first column of every file to be Time"
                )
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        parts: List[List[Row]] = [[] for _ in range(num_partitions)]
        for i, row in enumerate(rows):
            parts[i % num_partitions].append(row)
        f = DistributedFile(name, parts)
        self._files[name] = f
        return f

    def write_partitioned(self, name: str, partitions: List[List[Row]]) -> DistributedFile:
        """Store already-partitioned data (stage outputs)."""
        f = DistributedFile(name, [list(p) for p in partitions])
        self._files[name] = f
        return f

    def read(self, name: str) -> DistributedFile:
        try:
            return self._files[name]
        except KeyError:
            raise KeyError(
                f"no dataset named {name!r}; have {sorted(self._files)}"
            ) from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete(self, name: str) -> None:
        self._files.pop(name, None)

    def list_files(self) -> List[str]:
        return sorted(self._files)
