"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — synthesize an advertising log and snapshot it to disk.
* ``sql`` — run a StreamSQL query over a snapshot (single node).
* ``timr`` — run a StreamSQL query through TiMR on the simulated
  cluster, printing the fragment plan and cost report.
* ``bt`` — run the end-to-end BT pipeline over a snapshot and print
  the evaluation summary.
* ``explain`` — show everything the framework knows about a query's
  plan before running it.
* ``lint`` — run the static pre-flight analyzer over a StreamSQL query,
  a Python file exposing plans, or the built-in BT query suite; with
  ``--dynamic``, additionally execute each runnable plan under the
  shadow race checker (forward + perturbed schedule).
* ``chaos`` — run the full BT pipeline through TiMR under a seeded
  probabilistic fault schedule (map, shuffle, reduce, FS I/O), assert
  the output is byte-identical to a fault-free run, then kill the job
  mid-run and prove it resumes from the checkpoint manifest.
* ``profile`` — run a pipeline with the telemetry layer enabled and
  export the span tree + metrics (Chrome ``trace_event`` JSON for
  Perfetto, JSON-lines for CI, a terminal tree) plus the optimizer's
  estimated-vs-observed calibration table. Artifacts land in
  ``--out-dir`` (default ``profile_out/``) rather than the working
  directory; relative ``--trace-out`` / ``--metrics-out`` paths resolve
  under it. With ``--parallel`` (and a parallel ``--executor``) the
  Chrome trace gains one lane per worker including supervision events,
  and an overhead attribution table decomposes the worker-time budget
  against a serial-equivalent run (docs/OBSERVABILITY.md).

Exit codes (stable; CI relies on them):

* ``0`` — success. For ``lint``: no error-severity findings (warnings
  alone still exit 0). For ``chaos``: every phase byte-identical.
* ``1`` — the command ran but its checks failed: ``lint`` found
  error-severity problems (including ``parallel.schedule-divergence``
  from a ``--dynamic`` run; warning-severity findings such as
  ``parallel.dynamic-race`` alone still exit 0); ``chaos`` produced
  divergent output or could not be killed/resumed as scheduled.
* ``2`` — usage or input errors: StreamSQL parse failures, plans
  rejected by pre-flight analysis, bad flags, unreadable files,
  ``profile --parallel`` when the resolved executor is serial. The
  diagnostic is a single line on stderr, never a traceback.

``lint``, ``chaos``, and ``profile`` accept ``--json``, which replaces
the human-readable output with one JSON document on stdout (the exit
code is unchanged and is mirrored in the document where applicable).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="TiMR + temporal Behavioral Targeting (ICDE 2012) reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # shared execution options: every command that actually runs a plan
    # can fan map/reduce partitions (and, on threads, a GroupApply
    # wave's chains) out over workers — output is byte-identical to
    # serial (docs/PARALLELISM.md)
    exec_opts = argparse.ArgumentParser(add_help=False)
    exec_opts.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker cap for parallel execution (default: REPRO_WORKERS, "
        "then CPU count; 1 forces serial)",
    )
    exec_opts.add_argument(
        "--executor",
        choices=["serial", "thread", "process", "auto"],
        default=None,
        help="how independent work fans out (default: REPRO_EXECUTOR, "
        "then thread when --workers > 1, else serial)",
    )
    exec_opts.add_argument(
        "--force-parallel",
        action="store_true",
        help="skip the parallel-safety gate: run parallel even when the "
        "static analyzer reports parallel.* hazards "
        "(docs/PARALLELISM.md#safety-model)",
    )

    gen = sub.add_parser("generate", help="generate a synthetic advertising log")
    gen.add_argument("--users", type=int, default=500)
    gen.add_argument("--days", type=float, default=3.0)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="snapshot directory")

    sql = sub.add_parser(
        "sql", help="run a StreamSQL query over a snapshot", parents=[exec_opts]
    )
    sql.add_argument("query", help="the StreamSQL text")
    sql.add_argument("--data", required=True, help="snapshot directory")
    sql.add_argument("--source-name", default="logs")
    sql.add_argument("--limit", type=int, default=20, help="rows to print")

    timr = sub.add_parser(
        "timr", help="run a StreamSQL query through TiMR", parents=[exec_opts]
    )
    timr.add_argument("query")
    timr.add_argument("--data", required=True)
    timr.add_argument("--source-name", default="logs")
    timr.add_argument("--machines", type=int, default=150)
    timr.add_argument("--partitions", type=int, default=None)
    timr.add_argument("--span-width", type=int, default=None)
    timr.add_argument("--limit", type=int, default=20)

    bt = sub.add_parser(
        "bt", help="run the end-to-end BT pipeline", parents=[exec_opts]
    )
    bt.add_argument("--data", required=True)
    bt.add_argument(
        "--selector", choices=["kez", "kepop", "fex"], default="kez"
    )
    bt.add_argument("--z", type=float, default=1.96, help="KE-z threshold")
    bt.add_argument("--top-n", type=int, default=50, help="KE-pop keyword budget")
    bt.add_argument("--stem", action="store_true", help="Porter-stem keywords first")

    explain = sub.add_parser("explain", help="explain a StreamSQL query's plan")
    explain.add_argument("query")
    explain.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead")

    lint = sub.add_parser(
        "lint", help="statically analyze query plans without running them"
    )
    lint.add_argument(
        "targets",
        nargs="*",
        help="StreamSQL query text, or a path to a .py file exposing plans "
        "(module-level Query objects or a lint_queries() function)",
    )
    lint.add_argument(
        "--builtin",
        action="store_true",
        help="lint every built-in BT query and example plan",
    )
    lint.add_argument(
        "--columns",
        default=None,
        help="comma-separated payload schema to declare on StreamSQL "
        "sources (enables unknown-column checking)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="suppress a rule id globally (repeatable)",
    )
    lint.add_argument(
        "--no-plan", action="store_true", help="omit the caret-marked plan rendering"
    )
    lint.add_argument(
        "--dynamic",
        action="store_true",
        help="additionally execute each runnable plan under the shadow "
        "race checker (forward + perturbed schedule) over a small "
        "synthetic log; reports parallel.dynamic-race and "
        "parallel.schedule-divergence findings",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report on stdout (for CI)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the BT pipeline under seeded fault injection and verify "
        "byte-identical output plus checkpoint/resume",
        parents=[exec_opts],
    )
    chaos.add_argument(
        "--data", default=None, help="snapshot directory (default: generate a small log)"
    )
    chaos.add_argument("--users", type=int, default=40, help="users when generating")
    chaos.add_argument("--days", type=float, default=1.0, help="days when generating")
    chaos.add_argument("--seed", type=int, default=7, help="fault schedule seed")
    chaos.add_argument(
        "--rate", type=float, default=0.15, help="per-site fault probability"
    )
    chaos.add_argument("--machines", type=int, default=8)
    chaos.add_argument("--partitions", type=int, default=4)
    chaos.add_argument(
        "--checkpoint-dir",
        default=None,
        help="where the kill/resume phase writes its manifest "
        "(default: a temporary directory)",
    )
    chaos.add_argument(
        "--worker-kill-rate",
        type=float,
        default=0.3,
        help="per-draw probability for the executor fault sites "
        "(worker-kill / task-transient / reply-drop) in the executor "
        "chaos phase; that phase only runs with a parallel --executor",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report on stdout (for CI)",
    )

    profile = sub.add_parser(
        "profile",
        help="run a pipeline with tracing on and export spans + metrics "
        "(Chrome trace_event JSON, JSON-lines, terminal tree)",
        parents=[exec_opts],
    )
    profile.add_argument(
        "--pipeline",
        choices=["bt"],
        default="bt",
        help="which built-in pipeline to profile",
    )
    profile.add_argument(
        "--data", default=None, help="snapshot directory (default: generate a small log)"
    )
    profile.add_argument("--users", type=int, default=40, help="users when generating")
    profile.add_argument("--days", type=float, default=1.0, help="days when generating")
    profile.add_argument("--machines", type=int, default=8)
    profile.add_argument("--partitions", type=int, default=4)
    profile.add_argument(
        "--out-dir",
        default="profile_out",
        metavar="DIR",
        help="directory for generated artifacts (created if missing); "
        "relative --trace-out / --metrics-out paths land inside it",
    )
    profile.add_argument(
        "--trace-out",
        default="trace.json",
        help="Chrome trace_event output path (open in ui.perfetto.dev); "
        "relative paths resolve under --out-dir",
    )
    profile.add_argument(
        "--metrics-out",
        default="metrics.jsonl",
        help="JSON-lines spans+metrics output path; relative paths "
        "resolve under --out-dir",
    )
    profile.add_argument(
        "--parallel",
        action="store_true",
        help="decompose the parallel run's worker-time budget "
        "(serialize/dispatch/compute/idle/merge/supervision) into an "
        "attribution table against a serial-equivalent run; requires a "
        "parallel --executor",
    )
    profile.add_argument(
        "--max-depth",
        type=int,
        default=2,
        help="span-tree depth printed to the terminal (deeper spans are counted)",
    )
    profile.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON summary on stdout (for CI)",
    )
    return parser


def _load_rows(directory: str):
    from .data.io import load_dataset

    return load_dataset(directory)


def _cmd_generate(args) -> int:
    from .data import GeneratorConfig, generate
    from .data.io import save_dataset

    dataset = generate(
        GeneratorConfig(num_users=args.users, duration_days=args.days, seed=args.seed)
    )
    save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset.rows):,} rows ({args.users} users, {args.days:g} days, "
        f"{len(dataset.truth.bots)} bots) to {args.out}"
    )
    return 0


def _print_events(events, limit: int) -> None:
    for e in events[:limit]:
        print(f"[{e.le}, {e.re})  {dict(e.payload)}")
    if len(events) > limit:
        print(f"... {len(events) - limit} more")


def _exec_overrides(args) -> dict:
    """The --executor/--workers/--force-parallel flags as RunContext
    field overrides."""
    return {
        "executor": getattr(args, "executor", None),
        "max_workers": getattr(args, "workers", None),
        "force_parallel": getattr(args, "force_parallel", False),
    }


def _cmd_sql(args) -> int:
    from .runtime import RunContext
    from .temporal import Engine, parse_sql

    dataset = _load_rows(args.data)
    engine = Engine(context=RunContext(**_exec_overrides(args)))
    events = engine.run(parse_sql(args.query), {args.source_name: dataset.rows})
    print(f"{len(events)} result events")
    _print_events(events, args.limit)
    return 0


def _cmd_timr(args) -> int:
    from .mapreduce import Cluster, CostModel, DistributedFileSystem
    from .runtime import RunContext
    from .temporal import parse_sql
    from .temporal.event import rows_to_events
    from .timr import TiMR, describe_fragments

    dataset = _load_rows(args.data)
    fs = DistributedFileSystem()
    fs.write(args.source_name, dataset.rows)
    cluster = Cluster(
        fs=fs,
        cost_model=CostModel(num_machines=args.machines),
        context=RunContext(**_exec_overrides(args)),
    )
    result = TiMR(cluster).run(
        parse_sql(args.query),
        num_partitions=args.partitions,
        span_width=args.span_width,
    )
    print(describe_fragments(result.fragments))
    model = cluster.cost_model
    print(
        f"simulated: {result.report.simulated_seconds(model):.2f}s on "
        f"{args.machines} machines "
        f"(single node {result.report.single_node_seconds(model):.2f}s, "
        f"pipelined {result.report.simulated_seconds_pipelined(model):.2f}s)"
    )
    events = rows_to_events(result.output_rows())
    print(f"{len(events)} result events")
    _print_events(events, args.limit)
    return 0


def _cmd_bt(args) -> int:
    from .bt import BTConfig, BTPipeline, FExSelector, KEPopSelector, KEZSelector
    from .bt import lift_at_coverage
    from .bt.stemming import StemmedSelector

    config = BTConfig(z_threshold=args.z)
    if args.selector == "kez":
        selector = KEZSelector(config=config)
    elif args.selector == "kepop":
        selector = KEPopSelector(top_n=args.top_n)
    else:
        selector = FExSelector()
    if args.stem:
        selector = StemmedSelector(selector)

    from .runtime import RunContext

    dataset = _load_rows(args.data)
    pipeline = BTPipeline(
        config=config,
        selector=selector,
        context=RunContext(**_exec_overrides(args)),
    )
    result = pipeline.run(dataset.rows)
    print(
        f"bot elimination: {result.rows_in:,} -> "
        f"{result.rows_after_bot_elimination:,} rows"
    )
    print(
        f"examples: {result.train_examples:,} train / {result.test_examples:,} test"
    )
    print(f"{'ad class':>12}  {'dims':>5}  {'test CTR':>8}  {'lift@10%':>9}")
    for ad, ev in sorted(result.evaluations.items()):
        print(
            f"{ad:>12}  {ev.dimensions:>5}  {ev.test_ctr:>8.4f}  "
            f"{lift_at_coverage(ev.curve, 0.1):>+9.4f}"
        )
    print(f"mean lift area: {result.mean_auc_lift:+.4f} ({selector.name})")
    return 0


def _cmd_explain(args) -> int:
    from .temporal import parse_sql
    from .temporal.explain import explain_timr
    from .temporal.viz import to_dot

    query = parse_sql(args.query)
    if args.dot:
        print(to_dot(query))
    else:
        print(explain_timr(query))
    return 0


def _collect_py_queries(path: str) -> dict:
    """Queries exposed by a Python file, without running its ``main()``.

    The file is executed with ``__name__`` set to ``"__lint__"`` (so the
    usual ``if __name__ == "__main__"`` guard keeps it inert). Plans are
    taken from a ``lint_queries()`` function when defined, else from
    module-level :class:`Query` objects.
    """
    import runpy

    from .temporal.query import Query

    namespace = runpy.run_path(path, run_name="__lint__")
    if callable(namespace.get("lint_queries")):
        queries = dict(namespace["lint_queries"]())
    else:
        queries = {
            name: obj
            for name, obj in namespace.items()
            if isinstance(obj, Query) and not name.startswith("_")
        }
    if not queries:
        raise ValueError(
            f"{path} exposes no plans to lint (define lint_queries() or "
            "module-level Query objects)"
        )
    return queries


def _cmd_lint(args) -> int:
    from .analysis import RULES, analyze, builtin_query_suite, example_plan_suite
    from .analysis.targets import (
        dynamic_check,
        dynamic_lint_rows,
        runnable_over_logs,
    )
    from .temporal import parse_sql

    if not args.targets and not args.builtin:
        raise ValueError("nothing to lint: pass a query/file or --builtin")
    unknown = sorted(set(args.ignore) - set(RULES))
    if unknown:
        raise ValueError(
            f"--ignore names unknown rule(s) {unknown} "
            "(see docs/LINTING.md for the catalog)"
        )

    suites: dict = {}
    if args.builtin:
        suites.update(builtin_query_suite())
        suites.update(example_plan_suite())
    for target in args.targets:
        if target.endswith(".py"):
            for name, q in _collect_py_queries(target).items():
                suites[f"{target}:{name}"] = q
        else:
            query = parse_sql(target)
            if args.columns:
                from .temporal.plan import SourceNode, rewrite, source_nodes

                cols = tuple(c.strip() for c in args.columns.split(",") if c.strip())
                plan = query.to_plan()
                replacements = {
                    s.node_id: SourceNode(s.name, cols)
                    for s in source_nodes(plan)
                    if s.columns is None
                }
                query = rewrite(plan, replacements)
            suites[f"query {len(suites)}"] = query

    dyn_rows = dynamic_lint_rows() if args.dynamic else None
    total_errors = total_warnings = 0
    dynamic_runs = 0
    json_targets = []
    for name, query in sorted(suites.items()):
        report = analyze(query, ignore=args.ignore)
        if dyn_rows is not None and runnable_over_logs(query):
            dynamic_runs += 1
            report.diagnostics.extend(
                d
                for d in dynamic_check(query, dyn_rows)
                if d.rule not in args.ignore
            )
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        if args.json:
            json_targets.append(
                {
                    "name": name,
                    "ok": report.ok,
                    "diagnostics": [
                        {
                            "rule": d.rule,
                            "severity": d.effective_severity,
                            "message": d.message,
                            "node": d.node,
                            "location": (
                                None
                                if d.location is None
                                else {"file": d.location[0], "line": d.location[1]}
                            ),
                        }
                        for d in report.diagnostics
                    ],
                }
            )
            continue
        if report.ok:
            print(f"{name}: clean")
            continue
        print(f"{name}:")
        print(report.render(show_plan=not args.no_plan))
    exit_code = 1 if total_errors else 0
    if args.json:
        import json as _json

        print(
            _json.dumps(
                {
                    "command": "lint",
                    "plans": len(suites),
                    "dynamic": args.dynamic,
                    "dynamic_runs": dynamic_runs,
                    "errors": total_errors,
                    "warnings": total_warnings,
                    "exit_code": exit_code,
                    "rules": {
                        rule.id: {
                            "severity": rule.severity,
                            "summary": rule.summary,
                        }
                        for rule in RULES.values()
                    },
                    "targets": json_targets,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return exit_code
    dyn_note = (
        f" ({dynamic_runs} plan(s) executed under the shadow race checker)"
        if args.dynamic
        else ""
    )
    print(
        f"linted {len(suites)} plan(s): "
        f"{total_errors} error(s), {total_warnings} warning(s)"
        f"{dyn_note}"
    )
    return exit_code


def _cmd_chaos(args) -> int:
    import tempfile
    import time as _clock

    from .bt.queries import UNIFIED_COLUMNS, bot_elimination_query, feature_selection_query
    from .bt.schema import BTConfig
    from .mapreduce import ChaosPolicy, Cluster, CostModel, DistributedFileSystem
    from .mapreduce import InjectedFault, StageKiller
    from .runtime import RunContext
    from .mapreduce.persist import dataset_sha256
    from .temporal import Query
    from .temporal.time import days
    from .timr import TiMR

    quiet = getattr(args, "json", False)

    def say(text: str) -> None:
        if not quiet:
            print(text)

    if args.data is not None:
        rows = _load_rows(args.data).rows
    else:
        from .data import GeneratorConfig, generate

        rows = generate(
            GeneratorConfig(num_users=args.users, duration_days=args.days, seed=42)
        ).rows
        say(f"generated {len(rows):,} rows ({args.users} users, {args.days:g} days)")

    # The full BT pipeline as one temporal job: bot elimination feeding
    # KE-z feature selection (training data, per-keyword counts, totals,
    # and the z-test join all inside). Thresholds are loosened so the
    # small synthetic dataset still selects keywords — an empty output
    # would make the byte-identical assertions vacuous.
    cfg = BTConfig(min_support=2, z_threshold=1.0)
    clean = bot_elimination_query(Query.source("logs", UNIFIED_COLUMNS), cfg)
    query = feature_selection_query(clean, cfg, days(3))

    # one base context for the whole exercise; each phase derives its
    # fault policy (and, for the resume leg, checkpoint settings) from it
    #
    # a reduce attempt passes two fault sites (shuffle + reduce), each
    # with a blacklist_after budget — so the restart budget must cover
    # 2 * blacklist_after injections before the scheduler steers away
    base_ctx = RunContext(
        seed=args.seed,
        max_restarts=2 * ChaosPolicy().blacklist_after + 1,
        **_exec_overrides(args),
    )

    def make_timr(fault_policy=None, **context_changes):
        fs = DistributedFileSystem()
        # partitioned input: with a parallel executor the first stage's
        # map phase genuinely fans out, so executor-site chaos strikes
        # pool workers (and its recovery counters reach TiMRResult)
        fs.write("logs", rows, num_partitions=max(1, args.partitions))
        ctx = base_ctx.derive(fault_policy=fault_policy, **context_changes)
        cluster = Cluster(
            fs=fs,
            cost_model=CostModel(num_machines=args.machines),
            context=ctx,
        )
        return TiMR(cluster), cluster

    def run(timr, **kwargs):
        return timr.run(query, num_partitions=args.partitions, **kwargs)

    timings: dict = {}

    # 1. fault-free baseline
    timr, _ = make_timr()
    t0 = _clock.perf_counter()
    baseline = run(timr)
    timings["baseline_seconds"] = round(_clock.perf_counter() - t0, 6)
    baseline_hash = dataset_sha256(baseline.output)
    say(
        f"baseline: {len(baseline.fragments)} stage(s), "
        f"{baseline.output.num_rows} output row(s), hash {baseline_hash[:12]}"
    )

    # 2. the same job under a seeded probabilistic fault schedule
    policy = ChaosPolicy(seed=args.seed, rates=args.rate)
    timr, cluster = make_timr(policy)
    t0 = _clock.perf_counter()
    chaotic = run(timr)
    timings["chaos_seconds"] = round(_clock.perf_counter() - t0, 6)
    chaos_hash = dataset_sha256(chaotic.output)
    stats = policy.stats
    restarted = sum(s.restarted_partitions for s in chaotic.report.stages)
    say(
        f"chaos(seed={args.seed}, rate={args.rate:g}): injected {stats.injected} "
        f"fault(s) ({stats.transient} transient / {stats.permanent} permanent, "
        f"{stats.blacklisted} site(s) blacklisted) across "
        f"{dict(sorted(stats.by_site.items()))}; {restarted} reducer restart(s)"
    )
    chaos_ok = chaos_hash == baseline_hash
    say(
        f"chaos output {'is byte-identical to' if chaos_ok else 'DIFFERS from'} "
        f"the fault-free run (hash {chaos_hash[:12]})"
    )

    # 3. kill the job at its final stage, then resume from the manifest
    checkpoint_dir = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    final_stage = baseline.fragments[-1].output_name
    timr, _ = make_timr(StageKiller(final_stage), checkpoint_dir=checkpoint_dir)
    killed = False
    try:
        run(timr)
    except InjectedFault as exc:
        killed = True
        say(f"killed mid-run as scheduled: {exc}")
    if not killed:
        print("kill phase: stage killer failed to kill the job", file=sys.stderr)
        return 1
    timr, _ = make_timr(checkpoint_dir=checkpoint_dir, resume=True)
    t0 = _clock.perf_counter()
    resumed = run(timr)
    timings["resume_seconds"] = round(_clock.perf_counter() - t0, 6)
    resume_hash = dataset_sha256(resumed.output)
    resume_ok = resume_hash == baseline_hash
    say(
        f"resume: {resumed.resumed_stages}/{len(resumed.fragments)} stage(s) "
        f"restored from the manifest (replay determinism verified), "
        f"output {'is byte-identical to' if resume_ok else 'DIFFERS from'} "
        f"the fault-free run"
    )

    # 4. executor-layer chaos: kill forked workers, drop replies, and
    # fault tasks mid-run under a seeded schedule drawn only over the
    # executor sites (stage schedules untouched), then require
    # byte-identity with the fault-free baseline. Needs real workers,
    # so it only runs when a parallel executor was requested.
    executor_chaos = None
    exec_ok = True
    if base_ctx.resolve_executor().parallel:
        from .mapreduce import EXECUTOR_SITES

        exec_policy = ChaosPolicy(
            seed=args.seed,
            rates={site: args.worker_kill_rate for site in EXECUTOR_SITES},
        )
        timr, _ = make_timr(exec_policy)
        t0 = _clock.perf_counter()
        with warnings.catch_warnings():
            # budget exhaustion degrading a tier is an expected outcome
            # under aggressive kill rates, not a suite failure
            warnings.simplefilter("ignore")
            survived = run(timr)
        timings["executor_chaos_seconds"] = round(_clock.perf_counter() - t0, 6)
        exec_hash = dataset_sha256(survived.output)
        exec_ok = exec_hash == baseline_hash
        exec_stats = exec_policy.stats
        recovery = (survived.parallel or {}).get("recovery", {})
        say(
            f"executor chaos(seed={args.seed}, "
            f"rate={args.worker_kill_rate:g}): injected "
            f"{exec_stats.injected} executor fault(s) across "
            f"{dict(sorted(exec_stats.by_site.items()))}; recovery "
            f"{ {k: v for k, v in sorted(recovery.items()) if v} }"
        )
        say(
            f"executor chaos output "
            f"{'is byte-identical to' if exec_ok else 'DIFFERS from'} "
            f"the fault-free run (hash {exec_hash[:12]})"
        )
        executor_chaos = {
            "seed": args.seed,
            "rate": args.worker_kill_rate,
            "injected": exec_stats.injected,
            "by_site": dict(sorted(exec_stats.by_site.items())),
            "recovery": dict(sorted(recovery.items())),
            "sha256": exec_hash,
            "byte_identical": exec_ok,
        }
    else:
        say("executor chaos: skipped (serial executor — nothing to kill)")
    passed = chaos_ok and resume_ok and exec_ok
    if quiet:
        import json as _json

        print(
            _json.dumps(
                {
                    "command": "chaos",
                    "rows_in": len(rows),
                    "baseline": {
                        "stages": len(baseline.fragments),
                        "output_rows": baseline.output.num_rows,
                        "sha256": baseline_hash,
                    },
                    "chaos": {
                        "seed": args.seed,
                        "rate": args.rate,
                        "injected": stats.injected,
                        "transient": stats.transient,
                        "permanent": stats.permanent,
                        "blacklisted": stats.blacklisted,
                        "by_site": dict(sorted(stats.by_site.items())),
                        "reducer_restarts": restarted,
                        "sha256": chaos_hash,
                        "byte_identical": chaos_ok,
                    },
                    "resume": {
                        "killed_stage": final_stage,
                        "resumed_stages": resumed.resumed_stages,
                        "total_stages": len(resumed.fragments),
                        "sha256": resume_hash,
                        "byte_identical": resume_ok,
                    },
                    "executor_chaos": executor_chaos,
                    "timings": timings,
                    "passed": passed,
                    "exit_code": 0 if passed else 1,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if passed else 1
    if passed:
        print("chaos suite passed")
        return 0
    print("chaos suite FAILED", file=sys.stderr)
    return 1


def _profile_run(query, rows, args, tracer):
    """One TiMR run of the profile query on a fresh simulated cluster."""
    from .mapreduce import Cluster, CostModel, DistributedFileSystem
    from .runtime import RunContext
    from .timr import TiMR

    fs = DistributedFileSystem()
    # partition the input so a parallel executor's map fan-out (and its
    # supervision counters) actually appears in the profile
    fs.write("logs", rows, num_partitions=max(1, args.partitions))
    cluster = Cluster(
        fs=fs,
        cost_model=CostModel(num_machines=args.machines),
        context=RunContext(tracer=tracer, **_exec_overrides(args)),
    )
    timr = TiMR(cluster)
    return timr, timr.run(query, num_partitions=args.partitions)


def _cmd_profile(args) -> int:
    import json as _json
    import os
    import time as _time

    from .bt.queries import (
        UNIFIED_COLUMNS,
        bot_elimination_query,
        feature_selection_query,
    )
    from .bt.schema import BTConfig
    from .obs import Tracer, calibrate, render_tree, write_chrome_trace, write_jsonl
    from .obs.attribution import attribute, render_table
    from .runtime import RunContext
    from .temporal import Query
    from .temporal.time import days

    if args.parallel:
        # fail fast on a serial resolution instead of printing an empty
        # attribution table at the end of an expensive run
        probe = RunContext(**_exec_overrides(args)).resolve_executor()
        if probe.kind == "serial" or probe.max_workers < 2:
            print(
                "repro profile: --parallel needs a parallel executor "
                f"(resolved {probe.kind} x {probe.max_workers}); pass "
                "--executor thread|process with --workers >= 2",
                file=sys.stderr,
            )
            return 2

    def _resolve_out(path: str) -> str:
        return path if os.path.isabs(path) else os.path.join(args.out_dir, path)

    trace_out = _resolve_out(args.trace_out)
    metrics_out = _resolve_out(args.metrics_out)
    if not (os.path.isabs(args.trace_out) and os.path.isabs(args.metrics_out)):
        os.makedirs(args.out_dir, exist_ok=True)

    if args.data is not None:
        rows = _load_rows(args.data).rows
    else:
        from .data import GeneratorConfig, generate

        rows = generate(
            GeneratorConfig(num_users=args.users, duration_days=args.days, seed=42)
        ).rows

    # Same combined BT job as `repro chaos`: bot elimination feeding KE-z
    # feature selection, so the trace exercises every layer (TiMR
    # fragments, cluster stages/partitions, embedded engine operators).
    cfg = BTConfig(min_support=2, z_threshold=1.0)
    clean = bot_elimination_query(Query.source("logs", UNIFIED_COLUMNS), cfg)
    query = feature_selection_query(clean, cfg, days(3))

    tracer = Tracer()
    wall_t0 = _time.perf_counter()
    timr, result = _profile_run(query, rows, args, tracer)
    parallel_wall = _time.perf_counter() - wall_t0

    attribution = None
    serial_wall = None
    if args.parallel:
        # serial-equivalent twin: same query, same data, NULL_TRACER and
        # one worker — the honest baseline the speedup column reports
        from .obs.trace import NULL_TRACER

        class _SerialArgs:
            machines = args.machines
            partitions = args.partitions
            executor = "serial"
            workers = 1
            force_parallel = getattr(args, "force_parallel", False)

        serial_t0 = _time.perf_counter()
        _profile_run(query, rows, _SerialArgs, NULL_TRACER)
        serial_wall = _time.perf_counter() - serial_t0
        parallel_summary = result.parallel or {}
        attribution = attribute(
            parallel_summary.get("overhead", {}),
            serial_wall_seconds=serial_wall,
        )

    calibration = calibrate(
        result.fragments, result.report, timr.statistics, {"logs": len(rows)}
    )
    trace_events = write_chrome_trace(tracer, trace_out)
    jsonl_lines = write_jsonl(tracer, metrics_out)

    spans = tracer.finished()
    by_category: dict = {}
    # no fallback is silent: what the embedded engines ran where the
    # context asked for something else, folded by name
    resolutions: dict = {}
    for span in spans:
        by_category[span.category] = by_category.get(span.category, 0) + 1
        if span.name == "supervision.resolved":
            entry = resolutions.setdefault(
                span.attrs["resolution"],
                {"count": 0, "reason": span.attrs["reason"]},
            )
            entry["count"] += span.attrs["count"]
    summary = {
        "command": "profile",
        "pipeline": args.pipeline,
        "rows_in": len(rows),
        "output_rows": result.output.num_rows,
        "spans": len(spans),
        "spans_by_category": dict(sorted(by_category.items())),
        "out_dir": args.out_dir,
        "trace_out": trace_out,
        "trace_events": trace_events,
        "metrics_out": metrics_out,
        "jsonl_lines": jsonl_lines,
        "calibration": calibration.as_dict(),
        "parallel": result.parallel,
        "reused_stages": result.reused_stages,
        "resolutions": resolutions,
        "wall_seconds": round(parallel_wall, 6),
    }
    if attribution is not None:
        summary["attribution"] = {
            "components": {k: round(v, 6) for k, v in attribution.components.items()},
            "budget_seconds": round(attribution.budget_seconds, 6),
            "coverage": round(attribution.coverage, 4),
            "dominant_overhead": attribution.dominant_overhead,
            "parallel_wall_seconds": round(attribution.wall_seconds, 6),
            "serial_wall_seconds": round(serial_wall, 6),
            "speedup": round(attribution.speedup, 4) if attribution.speedup else None,
        }
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(render_tree(tracer, max_depth=args.max_depth))
    print()
    print("optimizer calibration (estimated vs observed cardinalities):")
    print(calibration.render())
    if result.parallel is not None:
        recovery = result.parallel.get("recovery", {})
        active = {k: v for k, v in sorted(recovery.items()) if v}
        print()
        print(
            f"parallel: {result.parallel['executor']} x "
            f"{result.parallel['max_workers']} workers, "
            f"{result.parallel['tasks']} task(s) in "
            f"{result.parallel['calls']} call(s); "
            f"supervision: {active if active else 'no recovery activity'}"
        )
    print(
        f"\nfragments: {len(result.report.stages)} stage(s) ran, "
        f"{result.reused_stages} served from this TiMR's earlier stages"
    )
    for name, entry in sorted(resolutions.items()):
        print(f"resolved: {name} x {entry['count']}: {entry['reason']}")
    if attribution is not None:
        print()
        print(render_table(attribution))
    print()
    print(
        f"wrote {trace_events} trace events to {trace_out} "
        "(open in ui.perfetto.dev or chrome://tracing)"
    )
    print(f"wrote {jsonl_lines} span/metric lines to {metrics_out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "sql": _cmd_sql,
    "timr": _cmd_timr,
    "bt": _cmd_bt,
    "explain": _cmd_explain,
    "lint": _cmd_lint,
    "chaos": _cmd_chaos,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .analysis import PlanValidationError
    from .temporal import StreamSQLError

    try:
        return _COMMANDS[args.command](args)
    except StreamSQLError as exc:
        print(f"repro {args.command}: parse error: {exc}", file=sys.stderr)
        return 2
    except PlanValidationError as exc:
        first = exc.report.errors[0]
        print(
            f"repro {args.command}: plan rejected by pre-flight analysis: "
            f"{first.format()}"
            + (
                f" (+{len(exc.report.errors) - 1} more; run 'repro lint' "
                "for the full report)"
                if len(exc.report.errors) > 1
                else ""
            ),
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
