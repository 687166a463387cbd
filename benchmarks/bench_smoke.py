"""Smoke benchmark: machine-readable throughput + stage timings for CI.

Unlike the figure benchmarks (pytest-benchmark suites sized for
EXPERIMENTS.md), this is a fast standalone script — ``make bench-smoke``
— that emits one JSON artifact (default
``profile_out/BENCH_current.json``) CI uploads on every push. Committed
reference artifacts live under ``benchmarks/baselines/`` (one per PR
that re-baselined); generated artifacts live under the git-ignored
``profile_out/`` directory. The artifact:

* ``queries`` — events/sec of every built-in BT query that runs over
  the unified log, measured on the single-node engine (EngineStats),
  plus tracemalloc peak heap bytes for the same run (measured in a
  separate pass: tracing slows execution, so it never pollutes the
  throughput numbers).
* ``memory_scaling`` — peak heap of the largest builtin query at
  several input sizes, with a ``sublinear`` verdict: the incremental
  runtime holds only active-window state, so peak memory must grow
  strictly slower than the input.
* ``stages`` — per-stage wall seconds and row counts of the combined
  BT pipeline (bot elimination + KE-z feature selection) through TiMR,
  taken from the telemetry layer's ``cluster.stage`` spans.

Wall times vary run to run (this is a benchmark, not a determinism
check); row/byte counts are exact under the fixed seed. The numbers are
tracking data, not gates — CI runs this step non-blocking. Whether a
change is faster is decided by the repo benchmark
(``benchmarks/e2e/run.py --compare``), never here.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --out profile_out/BENCH_current.json

    # compare against a committed artifact; exits 1 when any query's
    # events/sec drops past --regression-threshold (default 0.5)
    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --out profile_out/BENCH_current.json \
        --baseline benchmarks/baselines/BENCH_pr5.json

For run-over-run tracking against the *best* known numbers (not just
one pinned baseline), feed the artifact to ``benchmarks/trend.py`` —
``make bench-trend`` — which appends to
``profile_out/BENCH_history.jsonl`` and prints a non-gating
regression/improvement report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tracemalloc


def _logs_only(query) -> bool:
    """True when every source the query reads is the unified log."""
    from repro.temporal.plan import source_nodes

    return {s.name for s in source_nodes(query.to_plan())} == {"logs"}


def _peak_heap_bytes(engine, query, sources) -> int:
    """Peak tracemalloc heap of one engine run (its own pass: tracing
    roughly halves throughput, so it must never share a pass with the
    wall-clock measurement)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        engine.run(query, sources)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_query_benchmarks(rows, repeats: int) -> dict:
    """Events/sec + peak heap per builtin BT query on the single-node
    engine."""
    from repro.analysis import builtin_query_suite
    from repro.temporal import Engine

    results = {}
    skipped = []
    engine = Engine()
    for name, query in sorted(builtin_query_suite().items()):
        if not _logs_only(query):
            skipped.append(name)  # needs example/profile sources, not raw logs
            continue
        engine.run(query, {"logs": rows})  # warmup: JIT-free but cache-warm
        best = None
        for _ in range(repeats):
            engine.run(query, {"logs": rows})
            stats = engine.last_stats
            if best is None or stats.wall_seconds < best.wall_seconds:
                best = stats
        results[name] = {
            "input_events": best.input_events,
            "output_events": best.output_events,
            "wall_seconds": round(best.wall_seconds, 6),
            "events_per_second": round(best.events_per_second, 1),
            "peak_heap_bytes": _peak_heap_bytes(engine, query, {"logs": rows}),
        }
    return {"queries": results, "skipped": skipped}


def run_memory_scaling(users: int, seed: int, days_series=(0.5, 1.0, 2.0, 4.0, 8.0)) -> dict:
    """Peak heap of the heaviest builtin query across input sizes.

    The incremental runtime's working set is bounded by active-window
    state plus one batch, so doubling the stream length must grow peak
    memory by well under 2x. ``sublinear`` records that check: the
    byte-per-event ratio at the largest input must undercut the smallest
    input's ratio (a linear-memory executor keeps it constant).
    """
    from repro.analysis import builtin_query_suite
    from repro.data import GeneratorConfig, generate
    from repro.temporal import Engine

    query = builtin_query_suite()["feature-selection"]
    engine = Engine()
    points = []
    for d in days_series:
        rows = generate(
            GeneratorConfig(num_users=users, duration_days=d, seed=seed)
        ).rows
        peak = _peak_heap_bytes(engine, query, {"logs": rows})
        points.append(
            {
                "days": d,
                "input_events": len(rows),
                "peak_heap_bytes": peak,
                "bytes_per_event": round(peak / max(len(rows), 1), 1),
            }
        )
    sublinear = points[-1]["bytes_per_event"] < points[0]["bytes_per_event"]
    return {
        "memory_scaling": {
            "query": "feature-selection",
            "points": points,
            "sublinear": sublinear,
        }
    }


def run_stage_benchmarks(rows, machines: int, partitions: int) -> dict:
    """Per-stage wall times of the combined BT job, from cluster spans."""
    from repro.bt.queries import (
        UNIFIED_COLUMNS,
        bot_elimination_query,
        feature_selection_query,
    )
    from repro.bt.schema import BTConfig
    from repro.mapreduce import Cluster, CostModel, DistributedFileSystem
    from repro.obs import Tracer
    from repro.temporal import Query
    from repro.temporal.time import days
    from repro.timr import TiMR

    cfg = BTConfig(min_support=2, z_threshold=1.0)
    clean = bot_elimination_query(Query.source("logs", UNIFIED_COLUMNS), cfg)
    query = feature_selection_query(clean, cfg, days(3))

    tracer = Tracer()
    fs = DistributedFileSystem()
    fs.write("logs", rows)
    cluster = Cluster(
        fs=fs, cost_model=CostModel(num_machines=machines), tracer=tracer
    )
    result = TiMR(cluster).run(query, num_partitions=partitions)

    stages = []
    for span in tracer.finished():
        if span.name != "cluster.stage":
            continue
        stages.append(
            {
                "stage": span.attrs["stage"],
                "wall_seconds": round(span.wall_seconds, 6),
                "rows_in": span.attrs["rows_in"],
                "rows_out": span.attrs["rows_out"],
                "shuffle_bytes": span.attrs["shuffle_bytes"],
                "skew_ratio": span.attrs["skew_ratio"],
            }
        )
    return {
        "stages": stages,
        "output_rows": result.output.num_rows,
        "simulated_seconds": round(
            result.report.simulated_seconds(cluster.cost_model), 4
        ),
    }


#: Baseline-gated sections and the metric each one compares. ``queries``
#: compares absolute events/sec (noisy on shared runners — pair it with
#: a loose threshold).
_GATED_METRICS = {
    "queries": ("events_per_second", lambda doc: doc.get("queries", {})),
}


def compare_to_baseline(
    doc: dict, baseline: dict, threshold: float, sections=("queries",)
) -> list:
    """Per-query regressions vs a baseline artifact, per gated section.

    Returns ``[(section, query, new, old, ratio), ...]`` for every query
    whose section metric fell below ``(1 - threshold)`` of the baseline.
    Queries (or whole sections) present in only one document are
    reported but never fail the comparison — suite membership and
    artifact shape change across PRs.
    """
    regressions = []
    for section in sections:
        metric, pick = _GATED_METRICS[section]
        new_table, old_table = pick(doc), pick(baseline)
        if not new_table or not old_table:
            if old_table and not new_table:
                print(f"baseline: section {section} not measured this run, skipping")
            continue
        for name, cell in sorted(new_table.items()):
            old = old_table.get(name)
            if old is None:
                print(
                    f"baseline[{section}]: {name} not in baseline (new query), skipping"
                )
                continue
            old_value = old.get(metric, 0.0) or 0.0
            new_value = cell.get(metric, 0.0) or 0.0
            if old_value <= 0:
                continue
            ratio = new_value / old_value
            if ratio < 1.0 - threshold:
                regressions.append((section, name, new_value, old_value, ratio))
        for name in sorted(set(old_table) - set(new_table)):
            print(f"baseline[{section}]: {name} present in baseline only (dropped)")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=os.path.join("profile_out", "BENCH_current.json")
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="compare per-query events/sec against a previous artifact "
        "and exit 1 on a regression past --regression-threshold",
    )
    parser.add_argument(
        "--regression-threshold",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="allowed fractional throughput drop vs the baseline before "
        "the comparison fails (default 0.5: flag only >50%% drops — "
        "shared CI runners are noisy)",
    )
    parser.add_argument("--users", type=int, default=150)
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--partitions", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.data import GeneratorConfig, generate

    dataset = generate(
        GeneratorConfig(
            num_users=args.users, duration_days=args.days, seed=args.seed
        )
    )
    rows = dataset.rows
    print(
        f"bench-smoke: {len(rows):,} rows "
        f"({args.users} users, {args.days:g} days, seed {args.seed})"
    )

    doc = {
        "benchmark": "bench_smoke",
        "config": {
            "users": args.users,
            "days": args.days,
            "seed": args.seed,
            "repeats": args.repeats,
            "machines": args.machines,
            "partitions": args.partitions,
            "rows": len(rows),
        },
    }
    doc.update(run_query_benchmarks(rows, args.repeats))
    doc.update(run_memory_scaling(args.users, args.seed))
    doc.update(run_stage_benchmarks(rows, args.machines, args.partitions))

    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
    slowest = max(doc["queries"].items(), key=lambda kv: kv[1]["wall_seconds"])
    print(
        f"measured {len(doc['queries'])} queries "
        f"(skipped {len(doc['skipped'])}: non-log sources), "
        f"{len(doc['stages'])} cluster stages; "
        f"slowest query: {slowest[0]} at "
        f"{slowest[1]['events_per_second']:,.0f} events/sec"
    )
    scaling = doc["memory_scaling"]
    print(
        f"memory scaling ({scaling['query']}): "
        + " -> ".join(
            f"{p['input_events']:,}ev/{p['peak_heap_bytes'] // 1024}KiB"
            for p in scaling["points"]
        )
        + f" (sublinear: {scaling['sublinear']})"
    )
    print(f"wrote {args.out}")

    if args.baseline is not None:
        try:
            with open(args.baseline, encoding="utf-8") as fp:
                baseline = json.load(fp)
        except (OSError, ValueError) as exc:
            print(f"baseline: cannot read {args.baseline}: {exc}")
            return 0  # a missing baseline is not a regression
        regressions = compare_to_baseline(
            doc, baseline, args.regression_threshold
        )
        compared = len(
            set(doc["queries"]) & set(baseline.get("queries", {}))
        )
        if regressions:
            for section, name, new_value, old_value, ratio in regressions:
                print(
                    f"REGRESSION[{section}]: {name} {new_value:,.2f} vs "
                    f"baseline {old_value:,.2f} ({ratio:.2f}x, threshold "
                    f"{1.0 - args.regression_threshold:.2f}x)"
                )
            return 1
        print(
            f"baseline: {compared} query(ies) within "
            f"{args.regression_threshold:.0%} of {args.baseline}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
