"""``repro.mapreduce`` — a simulated shared-nothing map-reduce cluster.

Stands in for SCOPE/Dryad over Cosmos (Section II-B): named datasets in a
distributed file system, stages of (partition-by-key map, per-partition
reduce) that a caller chains into multi-stage jobs, restart-based
failure handling, and a cost model that turns measured per-partition
work into simulated cluster makespans.
"""

from .cluster import Cluster
from .cost import CostModel, JobReport, StageReport
from .faults import (
    FS_READ,
    FS_WRITE,
    MAP,
    REDUCE,
    SHUFFLE,
    SITES,
    ChaosPolicy,
    FailureInjector,
    FaultPolicy,
    FaultStats,
    InjectedFault,
    ReducerKilled,
    StageExecutionError,
    StageKiller,
)
from .fs import DistributedFile, DistributedFileSystem
from .job import MapReduceStage, key_by_columns, random_key, stable_hash

__all__ = [
    "ChaosPolicy",
    "Cluster",
    "CostModel",
    "DistributedFile",
    "DistributedFileSystem",
    "FS_READ",
    "FS_WRITE",
    "FailureInjector",
    "FaultPolicy",
    "FaultStats",
    "InjectedFault",
    "JobReport",
    "MAP",
    "MapReduceStage",
    "REDUCE",
    "ReducerKilled",
    "SHUFFLE",
    "SITES",
    "StageExecutionError",
    "StageKiller",
    "StageReport",
    "key_by_columns",
    "random_key",
    "stable_hash",
]
