"""Cluster cost model: turning measured single-thread work into makespans.

The paper's speedups (Figures 15/16, Example 3) come from parallelism
over M-R partitions on a 150-machine cluster. We cannot run 150 machines,
so the simulator measures the *actual* CPU seconds each reduce partition
takes on this machine and schedules those measured chunks onto N
simulated machines (LPT / longest-processing-time-first, the classic
makespan heuristic). Repartitioning (exchange) cost is charged per row
moved, matching Section VI's "cost of writing tuples to disk,
repartitioning over the network, and reading tuples after repartitioning".

The result is an honest *shape*: duplicated overlap work, stragglers from
too-few partitions, and repartitioning overheads all show up exactly the
way they do in the paper, while absolute numbers reflect this machine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class CostModel:
    """Unit costs of the simulated cluster.

    Attributes:
        num_machines: cluster size (the paper uses ~150).
        shuffle_cost_per_row: seconds to write+transfer+read one row
            during repartitioning (exchange).
        map_cost_per_row: seconds for the map side to hash and route one
            row.
        stage_overhead: fixed per-stage scheduling/startup seconds.
        machine_speeds: optional per-machine speed factors (1.0 = nominal;
            0.25 = a straggler running at quarter speed). Shorter than
            ``num_machines`` is padded with 1.0.
        speculative_execution: when True, a task assigned to a slow
            machine also gets a backup copy on the fastest idle machine
            once the cluster drains (Dean & Ghemawat's backup tasks);
            the task finishes at the earlier of the two completions.
        retry_backoff_base: simulated seconds the scheduler waits before
            the first re-run of a failed task; retry *n* waits
            ``base * 2^(n-1)`` (the exponential attempt budget of
            ``repro.mapreduce.faults``).
    """

    num_machines: int = 150
    shuffle_cost_per_row: float = 2e-6
    map_cost_per_row: float = 5e-7
    stage_overhead: float = 0.5
    machine_speeds: Optional[List[float]] = None
    speculative_execution: bool = False
    retry_backoff_base: float = 0.25

    def __post_init__(self):
        if self.num_machines < 1:
            raise ValueError(f"num_machines must be at least 1, not {self.num_machines!r}")

    def _speeds(self, count: int) -> List[float]:
        speeds = list(self.machine_speeds or [])
        if len(speeds) < count:
            speeds.extend([1.0] * (count - len(speeds)))
        for s in speeds:
            if s <= 0:
                raise ValueError("machine speeds must be positive")
        return speeds[:count]

    def makespan(self, chunk_seconds: List[float]) -> float:
        """LPT schedule of measured per-partition work onto the machines.

        With heterogeneous ``machine_speeds``, each machine processes its
        chunks at its own rate; with ``speculative_execution``, the
        longest-running task additionally gets a backup on the machine
        that frees up first, bounding straggler damage.
        """
        if not chunk_seconds:
            return 0.0
        count = min(self.num_machines, max(1, len(chunk_seconds)))
        speeds = self._speeds(count)
        # heap of (finish_time, machine_index); LPT assignment
        machines = [(0.0, i) for i in range(count)]
        heapq.heapify(machines)
        assignments: List[Tuple[float, int, float]] = []  # (start, machine, work)
        for chunk in sorted(chunk_seconds, reverse=True):
            finish, idx = heapq.heappop(machines)
            start = finish
            end = start + chunk / speeds[idx]
            assignments.append((start, idx, chunk))
            heapq.heappush(machines, (end, idx))
        finish_times = {idx: t for t, idx in machines}
        plain = max(t for t, _ in machines)
        if not self.speculative_execution:
            return plain

        # Backup tasks: the task finishing last may be re-launched on the
        # earliest-idle other machine; completion = min of both copies.
        last_start, last_machine, last_work = max(
            assignments, key=lambda a: a[0] + a[2] / speeds[a[1]]
        )
        original_end = last_start + last_work / speeds[last_machine]
        other_idle = [
            (finish_times[i] if i != last_machine else float("inf"), i)
            for i in range(count)
        ]
        # the backup launches when some other machine drains (excluding
        # the original's own tail) and cannot start before the original
        backup_at, backup_machine = min(other_idle)
        if backup_machine == last_machine or backup_at == float("inf"):
            return plain
        backup_start = max(backup_at, last_start)
        backup_end = backup_start + last_work / speeds[backup_machine]
        return max(
            min(original_end, backup_end),
            max(t for t, i in machines if i != last_machine),
        )

    def shuffle_seconds(self, rows: int) -> float:
        """Simulated wall time to repartition ``rows`` across the cluster.

        The map and shuffle work is spread over all machines.
        """
        per_row = self.map_cost_per_row + self.shuffle_cost_per_row
        return rows * per_row / self.num_machines


@dataclass
class StageReport:
    """Measured + simulated costs of one M-R stage."""

    name: str
    rows_in: int = 0
    rows_out: int = 0
    num_partitions: int = 0
    partition_seconds: List[float] = field(default_factory=list)
    shuffle_seconds: float = 0.0
    restarted_partitions: int = 0
    retry_backoff_seconds: float = 0.0
    quarantined_rows: int = 0

    @property
    def reduce_cpu_seconds(self) -> float:
        """Total single-thread reduce work (what one machine would do)."""
        return sum(self.partition_seconds)

    def simulated_seconds(self, model: CostModel) -> float:
        """Simulated stage wall time on ``model.num_machines`` machines."""
        return (
            model.stage_overhead
            + self.shuffle_seconds
            + model.makespan(self.partition_seconds)
            + self.retry_backoff_seconds
        )

    def single_node_seconds(self, model: CostModel) -> float:
        """Time the same stage would take on one machine (no shuffle)."""
        return model.stage_overhead + self.reduce_cpu_seconds


@dataclass
class JobReport:
    """Costs of a multi-stage job (stages run sequentially)."""

    stages: List[StageReport] = field(default_factory=list)

    def simulated_seconds(self, model: CostModel) -> float:
        return sum(s.simulated_seconds(model) for s in self.stages)

    def simulated_seconds_pipelined(
        self, model: CostModel, fill_latency: float = 0.1
    ) -> float:
        """Simulated wall time under pipelined M-R (Section VII).

        MapReduce Online / SOPA stream reducer output downstream as it is
        produced instead of materializing between stages, so consecutive
        stages overlap: the job takes about as long as its *slowest*
        stage plus a small pipeline-fill latency per additional stage
        (data must flow through before the next stage produces output).
        TiMR benefits transparently when the platform supports it.
        """
        if not self.stages:
            return 0.0
        slowest = max(s.simulated_seconds(model) for s in self.stages)
        return slowest + fill_latency * (len(self.stages) - 1)

    def single_node_seconds(self, model: CostModel) -> float:
        return sum(s.single_node_seconds(model) for s in self.stages)

    def reduce_cpu_seconds(self) -> float:
        return sum(s.reduce_cpu_seconds for s in self.stages)

    def by_stage(self) -> Dict[str, StageReport]:
        return {s.name: s for s in self.stages}

    def observed_cardinalities(self) -> Dict[str, Tuple[int, int]]:
        """Stage name -> ``(rows_in, rows_out)`` as actually measured.

        This is the observed side of the optimizer calibration loop
        (:func:`repro.obs.calibrate`): the cost-based annotator's
        estimated cardinalities are compared against these counts.
        """
        return {s.name: (s.rows_in, s.rows_out) for s in self.stages}
