"""Fault injection and failure semantics for the simulated cluster.

The paper's core robustness argument (Section III-C.1) is that a
deterministic temporal algebra makes TiMR safe under map-reduce's
restart-based failure handling: any attempt of any task can die and be
re-run, and the regenerated output is guaranteed identical. This module
supplies the machinery to *exercise* that claim, not just state it:

* **Fault sites** — faults can strike the map phase, the shuffle
  transfer, the reduce attempt, or the file-system read/write that
  brackets a stage (``MAP``/``SHUFFLE``/``REDUCE``/``FS_READ``/
  ``FS_WRITE``).
* **Fault policies** — a :class:`FaultPolicy` decides, per
  ``(site, stage, partition, attempt)``, whether to inject an
  :class:`InjectedFault`. :class:`ChaosPolicy` does so probabilistically
  from a seed (so a fault *schedule* is reproducible);
  :class:`StageKiller` deterministically kills a whole stage (used to
  simulate a job crash for checkpoint/resume tests), and
  :class:`FailureInjector` kills the first reduce attempt of listed
  partitions.
* **Transient vs permanent faults** — a transient fault models a blip
  (lost packet, evicted container): the same simulated machine retries.
  A permanent fault models a dead machine: the policy *blacklists* the
  ``(site, stage, partition)`` immediately, i.e. the task is rescheduled
  onto a healthy machine and the fault cannot recur there.
* **Bounded retries with exponential attempt budgets** — each retry
  charges ``2^(attempt-1)`` times the cost model's base backoff to the
  stage's simulated wall time, and the cluster gives up after
  ``max_restarts`` re-runs of the same task.
* **Per-partition blacklisting** — even transient faults stop being
  injected at a key after ``blacklist_after`` hits, modelling the
  scheduler steering the retry away from a flaky machine. This is what
  guarantees a probabilistic chaos run terminates.

:class:`StageExecutionError` is the wrapper for *non-injected* failures
(user-code bugs, malformed rows): it carries stage name, partition
index, attempt number, and input row count so a failed partition can be
diagnosed without re-running the job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

#: Fault sites — where in a stage's lifecycle a fault can strike.
MAP = "map"
SHUFFLE = "shuffle"
REDUCE = "reduce"
FS_READ = "fs-read"
FS_WRITE = "fs-write"

SITES = (MAP, SHUFFLE, REDUCE, FS_READ, FS_WRITE)


class InjectedFault(RuntimeError):
    """A simulated infrastructure failure raised inside a task attempt.

    Attributes:
        site: which lifecycle point failed (one of :data:`SITES`).
        stage: stage name.
        partition: partition index (-1 for whole-file FS operations).
        attempt: 1-based attempt number the fault struck.
        transient: True for a blip (same machine retries); False for a
            dead machine (task is rescheduled, the site is blacklisted).
    """

    def __init__(
        self,
        message: str,
        site: str = REDUCE,
        stage: str = "?",
        partition: int = -1,
        attempt: int = 1,
        transient: bool = True,
    ):
        super().__init__(message)
        self.site = site
        self.stage = stage
        self.partition = partition
        self.attempt = attempt
        self.transient = transient


class StageExecutionError(RuntimeError):
    """A *real* (non-injected) failure of one task attempt.

    Wraps exceptions escaping user callables so the failure carries its
    execution context; the original exception is chained as
    ``__cause__``.
    """

    def __init__(self, stage: str, partition: int, attempt: int, rows_in: int, cause: BaseException):
        super().__init__(
            f"stage {stage!r} partition {partition} failed on attempt "
            f"{attempt} over {rows_in} input row(s): {cause!r}"
        )
        self.stage = stage
        self.partition = partition
        self.attempt = attempt
        self.rows_in = rows_in
        self.cause = cause


@dataclass
class FaultStats:
    """What a policy actually injected during a run."""

    injected: int = 0
    transient: int = 0
    permanent: int = 0
    by_site: Dict[str, int] = field(default_factory=dict)
    blacklisted: int = 0

    def record(self, fault: InjectedFault) -> None:
        self.injected += 1
        if fault.transient:
            self.transient += 1
        else:
            self.permanent += 1
        self.by_site[fault.site] = self.by_site.get(fault.site, 0) + 1


class FaultPolicy:
    """Base policy: never injects. Subclasses override :meth:`fault_for`.

    The cluster calls :meth:`maybe_fail` at every fault site; a policy
    answers by returning an :class:`InjectedFault` (or ``None``) from
    :meth:`fault_for`. Blacklisting is handled here so every policy
    inherits the termination guarantee.
    """

    #: stop injecting at a (site, stage, partition) key after this many hits
    blacklist_after: int = 2

    def __init__(self):
        self.stats = FaultStats()
        self._hits: Dict[Tuple[str, str, int], int] = {}
        self._blacklist: Set[Tuple[str, str, int]] = set()

    def fault_for(
        self, site: str, stage: str, partition: int, attempt: int
    ) -> Optional[InjectedFault]:
        return None

    def maybe_fail(self, site: str, stage: str, partition: int, attempt: int) -> None:
        key = (site, stage, partition)
        if key in self._blacklist:
            return
        fault = self.fault_for(site, stage, partition, attempt)
        if fault is None:
            return
        self.stats.record(fault)
        hits = self._hits.get(key, 0) + 1
        self._hits[key] = hits
        # a permanent fault kills the machine: the retry lands elsewhere,
        # so the key is blacklisted at once; transient faults age out
        # after blacklist_after hits (the scheduler steers away).
        if not fault.transient or hits >= self.blacklist_after:
            self._blacklist.add(key)
            self.stats.blacklisted += 1
        raise fault


class ChaosPolicy(FaultPolicy):
    """Seeded probabilistic fault injection at every site.

    Args:
        seed: RNG seed; the same seed over the same execution sequence
            reproduces the same fault schedule.
        rates: per-site injection probability (sites absent from the
            mapping never fault). A plain float applies to every site
            alike.
        transient_fraction: probability an injected fault is transient
            (the rest are permanent machine deaths).
        blacklist_after: per-key injection budget (see base class).
        max_faults: optional global cap on injected faults.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: "float | Mapping[str, float]" = 0.1,
        transient_fraction: float = 0.75,
        blacklist_after: int = 2,
        max_faults: Optional[int] = None,
    ):
        super().__init__()
        if isinstance(rates, Mapping):
            self.rates = dict(rates)
        else:
            self.rates = {site: float(rates) for site in SITES}
        for site, rate in self.rates.items():
            if site not in SITES:
                raise ValueError(f"unknown fault site {site!r}; have {SITES}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {site!r} must be in [0, 1], got {rate}")
        if not 0.0 <= transient_fraction <= 1.0:
            raise ValueError("transient_fraction must be in [0, 1]")
        self.seed = seed
        self.transient_fraction = transient_fraction
        self.blacklist_after = blacklist_after
        self.max_faults = max_faults
        self._rng = random.Random(seed)

    def fault_for(
        self, site: str, stage: str, partition: int, attempt: int
    ) -> Optional[InjectedFault]:
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return None
        if self.max_faults is not None and self.stats.injected >= self.max_faults:
            return None
        if self._rng.random() >= rate:
            return None
        transient = self._rng.random() < self.transient_fraction
        kind = "transient" if transient else "permanent"
        return InjectedFault(
            f"injected {kind} {site} fault in {stage}[{partition}] "
            f"(attempt {attempt}, seed {self.seed})",
            site=site,
            stage=stage,
            partition=partition,
            attempt=attempt,
            transient=transient,
        )


class StageKiller(FaultPolicy):
    """Deterministically fail every attempt of one stage.

    With ``permanent=True`` (default) the fault is unrecoverable within
    the retry budget, so the whole job aborts — the simulated "cluster
    lost the job mid-run" used by checkpoint/resume tests and the
    ``repro chaos`` CLI.
    """

    def __init__(self, stage_substring: str, site: str = REDUCE, permanent: bool = True):
        super().__init__()
        self.stage_substring = stage_substring
        self.site = site
        self.permanent = permanent
        # never stop injecting: the point is to kill the job
        self.blacklist_after = 10**9

    def maybe_fail(self, site: str, stage: str, partition: int, attempt: int) -> None:
        if site != self.site or self.stage_substring not in stage:
            return
        fault = InjectedFault(
            f"stage killer: {stage}[{partition}] attempt {attempt}",
            site=site,
            stage=stage,
            partition=partition,
            attempt=attempt,
            transient=not self.permanent,
        )
        self.stats.record(fault)
        raise fault


class ReducerKilled(InjectedFault):
    """Raised inside a reducer attempt that a :class:`FailureInjector`
    chose to kill."""


class FailureInjector(FaultPolicy):
    """Kill the first reduce attempt of selected (stage, partition) pairs.

    The original hand-targeted injector; :class:`ChaosPolicy` is its
    probabilistic generalization. Kept because "kill exactly this
    attempt" is still the sharpest tool for unit tests.
    """

    def __init__(self, kill: Iterable[Tuple[str, int]] = ()):
        super().__init__()
        self.kill: Set[Tuple[str, int]] = set(kill)
        self._killed: Set[Tuple[str, int]] = set()

    def maybe_fail(self, site: str, stage: str, partition: int, attempt: int) -> None:
        key = (stage, partition)
        if site != REDUCE or key not in self.kill or key in self._killed:
            return
        self._killed.add(key)
        fault = ReducerKilled(
            f"injected failure in {stage}[{partition}]",
            site=REDUCE,
            stage=stage,
            partition=partition,
        )
        self.stats.record(fault)
        raise fault


def backoff_seconds(base: float, restarts: int) -> float:
    """Simulated exponential backoff charged for ``restarts`` re-runs.

    Retry *n* (1-based) waits ``base * 2^(n-1)`` seconds, so the total
    budget grows exponentially with the attempt count: ``base * (2^r - 1)``.
    """
    if restarts <= 0 or base <= 0:
        return 0.0
    return base * ((1 << restarts) - 1)
