"""On-disk persistence for the simulated distributed file system.

Datasets serialize as one JSON-Lines file per partition plus a small
metadata file, mirroring how Cosmos/HDFS expose a logical file as
physical extents. Used to snapshot generated workloads and intermediate
TiMR outputs across processes (and for the CLI's ``generate`` command).

Layout for a dataset named ``logs``::

    <dir>/logs/_meta.json          {"name": ..., "num_partitions": N,
                                    "partitions": [{"rows": ..., "sha256": ...}, ...]}
    <dir>/logs/part-00000.jsonl
    <dir>/logs/part-00001.jsonl

Writes are *crash-safe*: every partition file and the metadata file are
written to a temp name and atomically renamed into place, with the
metadata last. A dataset is only considered valid once ``_meta.json``
exists, so a killed process can never leave a half-written dataset that
later loads as complete — and the per-partition row counts and content
hashes recorded in the metadata let :func:`load_file` detect torn or
tampered partitions (raising :class:`CorruptDatasetError`), which is
what TiMR's checkpoint/resume manifest relies on.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import List, Optional

from .fs import DistributedFile, DistributedFileSystem, Row

_META = "_meta.json"


class CorruptDatasetError(RuntimeError):
    """A persisted dataset does not match its recorded integrity metadata."""


def _dataset_dir(directory: str, name: str) -> str:
    # dataset names may contain dots (timr.frag0); they are file-safe
    return os.path.join(directory, name)


def _partition_bytes(partition: List[Row]) -> bytes:
    lines = []
    for row in partition:
        lines.append(json.dumps(row, sort_keys=True))
        lines.append("\n")
    return "".join(lines).encode("utf-8")


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file + atomic rename."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def dataset_sha256(dfile: DistributedFile) -> str:
    """Content hash of a whole dataset (partition-order sensitive)."""
    digest = hashlib.sha256()
    for partition in dfile.partitions:
        digest.update(_partition_bytes(partition))
        digest.update(b"\x00")  # partition boundary
    return digest.hexdigest()


def save_file(dfile: DistributedFile, directory: str) -> str:
    """Write one dataset under ``directory``; returns its path.

    Partition files first, metadata last, each atomically renamed into
    place — interrupting this function at any point leaves either the
    previous complete dataset or no valid dataset at all.
    """
    path = _dataset_dir(directory, dfile.name)
    os.makedirs(path, exist_ok=True)
    partition_meta = []
    for i, partition in enumerate(dfile.partitions):
        data = _partition_bytes(partition)
        _atomic_write(os.path.join(path, f"part-{i:05d}.jsonl"), data)
        partition_meta.append(
            {"rows": len(partition), "sha256": hashlib.sha256(data).hexdigest()}
        )
    meta = {
        "name": dfile.name,
        "num_partitions": dfile.num_partitions,
        "partitions": partition_meta,
    }
    _atomic_write(
        os.path.join(path, _META), json.dumps(meta, sort_keys=True).encode("utf-8")
    )
    return path


def load_file(directory: str, name: str, verify: bool = True) -> DistributedFile:
    """Read one dataset previously written by :func:`save_file`.

    When the metadata carries per-partition integrity records (datasets
    written by this version) and ``verify`` is true, each partition's
    content hash is checked before it is parsed, then its row count; a
    mismatch raises :class:`CorruptDatasetError`. Older datasets without
    the records load unverified. A metadata or partition file that cannot
    be read (torn mid-line, not UTF-8, keys missing) raises it too,
    verified or not, naming the dataset and the file.
    """
    path = _dataset_dir(directory, name)
    meta_path = os.path.join(path, _META)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no dataset {name!r} under {directory!r}")
    try:
        with open(meta_path, encoding="utf-8") as f:
            meta = json.load(f)
        integrity = meta.get("partitions") if verify else None
        count, stored_name = range(meta["num_partitions"]), meta["name"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise _unreadable(name, meta_path, exc) from exc
    partitions: List[List[Row]] = []
    for i in count:
        part_path = os.path.join(path, f"part-{i:05d}.jsonl")
        data = b""
        if os.path.exists(part_path):
            with open(part_path, "rb") as f:
                data = f.read()
        try:
            expected = integrity[i] if integrity is not None and i < len(integrity) else None
            actual_hash = hashlib.sha256(data).hexdigest()
            torn = expected is not None and actual_hash != expected["sha256"]
            if not torn:
                rows = [json.loads(line) for line in data.decode("utf-8").splitlines()
                        if line.strip()]
                torn = expected is not None and len(rows) != expected["rows"]
        except (ValueError, KeyError, TypeError) as exc:
            raise _unreadable(name, part_path, exc) from exc
        if torn:
            raise CorruptDatasetError(
                f"partition {i} of dataset {name!r} ({part_path}) does not match "
                f"its recorded integrity metadata (hash {actual_hash[:12]}…): the "
                "file is torn or was modified after the write"
            )
        partitions.append(rows)
    return DistributedFile(stored_name, partitions)


def _unreadable(name: str, file: str, exc: Exception) -> CorruptDatasetError:
    return CorruptDatasetError(f"dataset {name!r}: {file} cannot be read ({exc})")


def save_fs(fs: DistributedFileSystem, directory: str) -> List[str]:
    """Persist every dataset of a file system; returns saved names."""
    os.makedirs(directory, exist_ok=True)
    names = fs.list_files()
    for name in names:
        save_file(fs.read(name), directory)
    return names


def load_fs(directory: str, names: Optional[List[str]] = None) -> DistributedFileSystem:
    """Rebuild a file system from a directory written by :func:`save_fs`."""
    fs = DistributedFileSystem()
    if names is None:
        names = sorted(
            entry
            for entry in os.listdir(directory)
            if os.path.exists(os.path.join(directory, entry, _META))
        )
    for name in names:
        dfile = load_file(directory, name)
        fs.write_partitioned(name, dfile.partitions)
    return fs
