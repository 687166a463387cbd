"""Seeded inputs, the five workloads, and the checks on their outputs.

Every workload is driven the same way by ``run.py``: ``setup(seed,
size)`` generates the rows and builds the plans, ``run_pass()`` hands
the input to the program under test and returns everything it produced,
``check(out)`` hashes the output and runs the correctness checks.
The program under test receives only generated rows; nothing here
reaches below the public API of ``repro``.

Why these five, which layers do the work in each, and what each is the
bypass for, is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import Counter

import numpy as np

from repro.bt.examples import assemble_examples
from repro.bt.incremental import incremental_model_query
from repro.bt.queries import (
    UNIFIED_COLUMNS,
    bot_elimination_query,
    feature_selection_query,
    labeled_activity_query,
    training_data_query,
)
from repro.bt.schema import BTConfig
from repro.bt.scoring import model_generation_query, scoring_query
from repro.data import GeneratorConfig, generate
from repro.mapreduce import Cluster, CostModel, DistributedFileSystem
from repro.runtime import RunContext
from repro.temporal import Engine, Query, StreamingEngine, normalize
from repro.temporal.operators import AggSpec, hopping_window, sliding_window
from repro.temporal.time import days, hours
from repro.timr import TiMR

#: Input sizes. ``full`` is sized so one timed pass takes 4-5 s on the
#: 2-core box this was written on; ``smoke`` is about a twentieth of
#: that, for the harness self-test.
SIZES = {
    "full": {
        "bt_timr": {"users": 400, "days": 4.0},
        "scale_sliding": {"rows": 290_000},
        "scale_hopping": {"rows": 560_000},
        "scale_par": {"rows": 135_000},
        "stream_push": {"users": 200, "days": 2.0, "pushes": 1800},
    },
    "smoke": {
        "bt_timr": {"users": 60, "days": 2.0},
        "scale_sliding": {"rows": 15_000},
        "scale_hopping": {"rows": 30_000},
        "scale_par": {"rows": 8_000},
        "stream_push": {"users": 200, "days": 2.0, "pushes": 100},
    },
}

SCALE_USERS = 512
SCALE_SPAN = days(3)


def scale_rows(n: int, seed: int) -> list:
    """``n`` rows ``{Time, UserId, Clicks}``: sorted ``Time`` in a 3-day
    span, uniform ``UserId`` in 512, ``Clicks`` in 0..2."""
    rng = random.Random(seed)
    times = sorted(rng.randrange(SCALE_SPAN) for _ in range(n))
    return [
        {
            "Time": t,
            "UserId": rng.randrange(SCALE_USERS),
            "Clicks": rng.randrange(3),
        }
        for t in times
    ]


# -- output digests ----------------------------------------------------------


def _canonical(value):
    """Floats to 9 significant digits (a different BLAS may move the
    last bits of the LR weights), mappings to sorted pairs."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return sorted((k, _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest_rows(datasets: dict) -> str:
    """sha256 over the canonical sorted rows of every named dataset."""
    digest = hashlib.sha256()
    for name in sorted(datasets):
        digest.update(name.encode())
        lines = sorted(
            json.dumps(_canonical(row), sort_keys=True) for row in datasets[name]
        )
        digest.update("\n".join(lines).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def int_columns(events, payload_columns) -> list:
    """``le``, ``re`` and the named integer payload columns of
    ``events`` as int64 arrays, rows in canonical (lexicographic) order.

    The scale outputs are hundreds of thousands of all-integer events;
    sorting and hashing them as JSON rows would cost as much as the
    timed pass itself."""
    n = len(events)
    columns = [
        np.fromiter((e.le for e in events), np.int64, n),
        np.fromiter((e.re for e in events), np.int64, n),
    ]
    for name in payload_columns:
        columns.append(np.fromiter((e.payload[name] for e in events), np.int64, n))
    order = np.lexsort(columns[::-1])
    return [c[order] for c in columns]


def digest_columns(columns) -> str:
    digest = hashlib.sha256()
    for column in columns:
        digest.update(column.tobytes())
    return digest.hexdigest()


# -- the live-feed driver ----------------------------------------------------


def push_loop(query, rows) -> dict:
    """Push ``rows`` one at a time through a fresh ``StreamingEngine``,
    timing every push, then flush. A push that raises, is dropped or is
    quarantined counts as failed."""
    engine = StreamingEngine(query)
    clock = time.perf_counter
    latencies = []
    events = []
    raised = 0
    for row in rows:
        t0 = clock()
        try:
            out = engine.push("logs", row)
        except Exception:
            raised += 1
            continue
        finally:
            latencies.append(clock() - t0)
        events.extend(out)
    events.extend(engine.flush())
    return {
        "events": events,
        "latencies": latencies,
        "failed_pushes": raised + engine.dropped + len(engine.quarantined),
    }


# -- workloads ---------------------------------------------------------------


def bot_detection_kernel(cfg: BTConfig):
    """The window and aggregate of bot-detection, the kernel shape of
    both BT workloads: 6 h window hopping by 15 min, counted per user."""
    return hopping_window(cfg.bot_window, cfg.bot_hop), [AggSpec("count", "n")]


class BtTimr:
    """The whole BT chain as six TiMR jobs on one simulated cluster."""

    name = "bt_timr"
    #: the kernel probe covers one sub-plan of many, not the whole plan
    kernels_are_the_plan = False

    def setup(self, seed: int, size: dict) -> None:
        self.rows = generate(
            GeneratorConfig(
                num_users=size["users"], duration_days=size["days"], seed=seed
            )
        ).rows
        self.input_events = len(self.rows)
        self.cfg = cfg = BTConfig(min_support=2, z_threshold=1.0)
        model_cfg = BTConfig(model_window=days(2), model_hop=hours(12))
        logs = Query.source("logs", UNIFIED_COLUMNS)
        clean = Query.source("clean", UNIFIED_COLUMNS)
        examples = Query.source("examples", ("UserId", "AdId", "y", "Features"))
        self.plans = {
            "clean": bot_elimination_query(logs, cfg),
            "kez": feature_selection_query(clean, cfg, days(3)),
            "act": labeled_activity_query(clean, cfg),
            "train": training_data_query(clean, cfg),
            "score": scoring_query(
                examples, model_generation_query(examples, model_cfg)
            ),
            "online": incremental_model_query(examples),
        }
        self.fs = DistributedFileSystem()
        self.fs.write("logs", self.rows)

    def kernel_operators(self):
        return bot_detection_kernel(self.cfg)

    def run_on(self, rows) -> dict:
        """The chain over a part of the input, on a file system of its own."""
        fs = DistributedFileSystem()
        fs.write("logs", rows)
        return self._chain(fs)

    def run_pass(self) -> dict:
        out = self._chain(self.fs)
        # leave only the input behind, so no pass starts with the
        # previous pass's datasets alive
        for name in self.fs.list_files():
            if name != "logs":
                self.fs.delete(name)
        return out

    def _chain(self, fs) -> dict:
        timr = TiMR(Cluster(fs=fs, cost_model=CostModel(num_machines=8)))
        jobs = {}

        def job(name):
            jobs[name] = timr.run(self.plans[name], job_name=name, num_partitions=4)
            return jobs[name].output_rows()

        rows = {"clean": job("clean")}
        fs.write("clean", rows["clean"])
        rows["kez"] = job("kez")
        selected = {(r["AdId"], r["Keyword"]) for r in rows["kez"]}
        examples = [
            {
                "Time": ex.time,
                "UserId": ex.user,
                "AdId": ex.ad,
                "y": ex.y,
                "Features": {
                    k: v for k, v in ex.features.items() if (ex.ad, k) in selected
                },
            }
            for ex in assemble_examples(job("act"), job("train"))
        ]
        fs.write("examples", examples)
        rows["score"] = job("score")
        rows["online"] = job("online")
        return {"jobs": jobs, "rows": rows, "examples": len(examples)}

    def check(self, out: dict):
        rows = out["rows"]
        problems = []
        for name in ("clean", "kez", "score", "online"):
            if not rows[name]:
                problems.append(f"{name} output is empty")

        def unified(row):
            return (row["Time"], row["StreamId"], row["UserId"], row["KwAdId"])

        extra = Counter(map(unified, rows["clean"])) - Counter(map(unified, self.rows))
        if extra:
            problems.append(f"{sum(extra.values())} clean rows are not input rows")
        if not all(0.0 < r["Prediction"] < 1.0 for r in rows["score"]):
            problems.append("a Prediction lies outside (0, 1)")
        if len(rows["score"]) > out["examples"]:
            problems.append("more scored rows than examples")
        return digest_rows(rows), problems


class Scale:
    """One GroupApply window→aggregate query over synthetic sorted rows
    through ``Engine.run``."""

    kernels_are_the_plan = True

    def __init__(self, name: str, hopping: bool, parallel: bool):
        self.name = name
        self.hopping = hopping
        self.parallel = parallel

    def setup(self, seed: int, size: dict) -> None:
        self.rows = scale_rows(size["rows"], seed)
        self.input_events = len(self.rows)
        source = Query.source("logs", ("Time", "UserId", "Clicks"))
        if self.hopping:
            self.query = source.group_apply(
                ("UserId",),
                lambda g: g.hopping_window(hours(12), hours(1)).count(),
            )
            self.value_column = "Count"
            self.expected_mass = len(self.rows) * hours(12)
        else:
            self.query = source.group_apply(
                ("UserId",), lambda g: g.window(hours(1)).sum("Clicks")
            )
            self.value_column = "Sum"
            self.expected_mass = sum(r["Clicks"] for r in self.rows) * hours(1)
        if self.parallel:
            self.engine = Engine(
                context=RunContext(
                    executor="process",
                    max_workers=min(os.cpu_count() or 1, 2),
                    waves_per_dispatch="auto",
                )
            )
        else:
            self.engine = Engine()

    def kernel_operators(self):
        if self.hopping:
            return hopping_window(hours(12), hours(1)), [AggSpec("count", "Count")]
        return sliding_window(hours(1)), [AggSpec("sum", "Sum", "Clicks")]

    def run_on(self, rows) -> dict:
        # the parallel-safety gate is part of validation; scale_par
        # measures the executor, not the gate
        validate = False if self.parallel else None
        events = self.engine.run(self.query, {"logs": rows}, validate=validate)
        return {"events": events}

    def run_pass(self) -> dict:
        return self.run_on(self.rows)

    def check(self, out: dict):
        columns = int_columns(out["events"], ("UserId", self.value_column))
        les, res, _, values = columns
        # every input event contributes its value for exactly one
        # window length, however the output is cut into segments
        mass = int(((res - les) * values).sum())
        problems = []
        if mass != self.expected_mass:
            problems.append(
                f"mass {mass} != {self.expected_mass} expected from the input"
            )
        return digest_columns(columns), problems


class StreamPush:
    """bot-elimination driven one ``push`` at a time."""

    name = "stream_push"
    kernels_are_the_plan = False

    def setup(self, seed: int, size: dict) -> None:
        rows = generate(
            GeneratorConfig(
                num_users=size["users"], duration_days=size["days"], seed=seed
            )
        ).rows
        self.rows = rows[: size["pushes"]]
        self.input_events = len(self.rows)
        self.cfg = BTConfig(min_support=2, z_threshold=1.0)
        self.query = bot_elimination_query(
            Query.source("logs", UNIFIED_COLUMNS), self.cfg
        )

    def kernel_operators(self):
        return bot_detection_kernel(self.cfg)

    def run_on(self, rows) -> dict:
        return push_loop(self.query, rows)

    def run_pass(self) -> dict:
        return self.run_on(self.rows)

    def check(self, out: dict):
        problems = []
        # the live feed and the batch job must denote one relation
        batch = Engine().run(self.query, {"logs": self.rows})
        if normalize(out["events"]) != normalize(batch):
            problems.append("pushed + flushed output differs from Engine.run")
        rows = [
            {"le": e.le, "re": e.re, **e.payload} for e in out["events"]
        ]
        return digest_rows({"out": rows}), problems


WORKLOADS = {
    "bt_timr": BtTimr,
    "scale_sliding": lambda: Scale("scale_sliding", hopping=False, parallel=False),
    "scale_hopping": lambda: Scale("scale_hopping", hopping=True, parallel=False),
    "scale_par": lambda: Scale("scale_par", hopping=False, parallel=True),
    "stream_push": StreamPush,
}
