"""Job-level checkpoint/resume for TiMR (the ReStore argument).

TiMR already materializes every fragment's output as a dataset in the
distributed file system — exactly the property ReStore (Elghandour &
Aboulnaga, VLDB 2012) exploits to reuse intermediate M-R results across
runs. This module makes that reuse *safe* across process crashes: when
``TiMR.run(..., checkpoint_dir=...)`` completes a stage, the output
dataset is persisted via :mod:`repro.mapreduce.persist` (crash-safe
atomic writes) and recorded in a **job manifest** together with its
content hash. A job killed mid-run can then resume
(``TiMR.run(..., resume=True)``) from the last completed stage instead
of recomputing the whole plan.

Reuse is only sound because the temporal algebra is deterministic
(Section III-C.1): the same fragment over the same input produces
byte-identical output. Resume *verifies* that instead of assuming it —
the last checkpointed stage is replayed and re-hashed against the
manifest, so a non-deterministic reducer or a changed input surfaces as
a :class:`ResumeError` rather than silently corrupt output.

Manifest layout (``<dir>/<job>.manifest.json``)::

    {"job": "timr", "fingerprint": "<sha256 of the plan's skeleton><sha256 of its code>",
     "entries": [{"stage": "timr.timr.frag0", "dataset": "timr.frag0",
                  "sha256": "...", "rows": 123, "num_partitions": 4}, ...]}
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from ..mapreduce.persist import _atomic_write
from .fingerprint import PlanHasher, Unfingerprintable
from .fragments import Fragment


class ResumeError(RuntimeError):
    """The manifest cannot be safely resumed from (stale, foreign, or
    contradicted by a replay — the error message says which)."""


@dataclass
class StageCheckpoint:
    """One completed stage: where its output lives and what it hashed to."""

    stage: str
    dataset: str
    sha256: str
    rows: int
    num_partitions: int


@dataclass
class JobManifest:
    """Everything needed to resume one TiMR job."""

    job: str
    fingerprint: str
    entries: List[StageCheckpoint] = field(default_factory=list)


def plan_fingerprint(fragments: Sequence[Fragment]) -> str:
    """Identity of a fragment plan: resuming requires the same one.

    Two sha256 halves over the fragments in execution order: the
    skeleton (output dataset, input datasets, partitioning key), then
    each plan's code fingerprint (:class:`~repro.timr.fingerprint.PlanHasher`),
    so a manifest written by a changed reducer — or under another Python
    version, whose bytecode differs — fails this check. A plan that cannot
    be hashed by value adds nothing to the second half; the replay re-hash
    at resume time catches a change to it, a non-deterministic reducer, or
    changed input data.
    """
    skeleton, code = hashlib.sha256(), hashlib.sha256()
    for f in fragments:
        skeleton.update(
            repr((f.output_name, tuple(f.input_names), tuple(f.key))).encode("utf-8") + b"\x00"
        )
        try:
            # datasets by name: the skeleton pins them, resume re-hashes them
            code.update(PlanHasher().plan(f.root).encode("utf-8"))
        except Unfingerprintable:
            code.update(b"\x00")
    return skeleton.hexdigest() + code.hexdigest()


def manifest_path(directory: str, job: str) -> str:
    return os.path.join(directory, f"{job}.manifest.json")


def save_manifest(manifest: JobManifest, directory: str) -> str:
    """Atomically write the manifest (after each completed stage)."""
    os.makedirs(directory, exist_ok=True)
    path = manifest_path(directory, manifest.job)
    _atomic_write(
        path, json.dumps(asdict(manifest), sort_keys=True, indent=2).encode("utf-8")
    )
    return path


def load_manifest(directory: str, job: str) -> Optional[JobManifest]:
    """Load a job's manifest, or ``None`` when no checkpoint exists."""
    path = manifest_path(directory, job)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    return JobManifest(
        job=raw["job"],
        fingerprint=raw["fingerprint"],
        entries=[StageCheckpoint(**e) for e in raw["entries"]],
    )
