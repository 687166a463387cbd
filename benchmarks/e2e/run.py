#!/usr/bin/env python3
"""The repo benchmark: one command generates the inputs, runs a
workload, checks its outputs and prints every metric by name and unit.

    python3 benchmarks/e2e/run.py --workload scale_sliding --seed 0
    python3 benchmarks/e2e/run.py --workload all --runs 5 --out A.json
    python3 benchmarks/e2e/run.py --workload bt_timr --trace
    python3 benchmarks/e2e/run.py --compare A.json B.json

One run is one workload in one fresh process: set-up, an untimed
warm-up pass on the first tenth of the input, then timed passes over
the full input. A timing metric is the median over the passes. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace`` the per-layer ones. ``README.md`` next to this file
says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DEFAULT_SEED = 0
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed passes are repeated until ``--seconds`` is spent, but never
#: fewer than this.
MIN_PASSES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as f:
        return json.load(f)


# -- measuring ---------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has
    waited for (the engine reaps its workers inside ``Engine.run``)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def live_children() -> list:
    """Pids of this process's children that are still running."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue  # the process ended while we were looking
        if ppid == me and state != "Z":
            pids.append(int(entry))
    return pids


#: Seconds one probe sample takes at the machine speed the sizes were
#: chosen for; reported times are scaled to this speed.
PROBE_REFERENCE_S = 0.0003
PROBE_INTERVAL_S = 0.01
_PROBE_TABLE = {i: i * 7 for i in range(1024)}


class SpeedProbe:
    """Samples how fast the machine is while a pass runs.

    On a shared host the same pass takes 3.6 to 6.2 s depending on what
    the other tenants do, in spells that outlast a whole run, so no
    statistic over passes steadies it. Every 10 ms an interval timer
    interrupts the main thread, on whichever core it is running, to time
    a fixed loop of integer and dict operations (nothing the garbage
    collector tracks, nothing a change to the repo can reach). A pass's
    times are then scaled by reference time / mean sample time: what
    the pass would have taken at the reference speed. Forked workers do
    not inherit the timer."""

    def __init__(self):
        self.samples = []

    def sample(self, *_signal_arguments) -> None:
        table = _PROBE_TABLE
        total = 0
        t0 = time.perf_counter()
        for i in range(4000):
            total += table[i & 1023] ^ i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exception) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, mark: int) -> float:
        """Machine speed relative to the reference over the samples
        taken since ``len(self.samples)`` was ``mark``."""
        while len(self.samples) - mark < 20:  # a very short interval
            self.sample()
        # a sample the scheduler interrupted says nothing about speed:
        # drop the twentieth at either end, average the rest
        ordered = sorted(self.samples[mark:])
        cut = len(ordered) // 20
        return PROBE_REFERENCE_S / statistics.mean(ordered[cut : len(ordered) - cut])


def percentile(ordered: list, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def push_percentiles(latencies: list) -> dict:
    ordered = sorted(latencies)
    return {
        "p50": percentile(ordered, 0.50) * 1e6,
        "p99": percentile(ordered, 0.99) * 1e6,
        "p999": percentile(ordered, 0.999) * 1e6,
        "n": len(ordered),
    }


def one_pass(workload, probe: SpeedProbe, recorder=None) -> dict:
    """One timed pass plus its output checks. The output is hashed and
    dropped here: a previous output kept alive slows the next pass.
    ``wall`` and ``cpu`` are at reference speed, ``raw_wall`` as clocked."""
    gc.collect()
    stragglers = live_children()
    if stragglers:
        raise RuntimeError(
            f"refusing to start a timed pass: child processes {stragglers} "
            "of this benchmark are still alive"
        )
    record = {"wall": None, "cpu": None, "digest": None, "problems": []}
    mark = len(probe.samples)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        if recorder is None:
            out = workload.run_pass()
        else:
            from tracing import traced

            with traced(recorder), recorder.span("pass"):
                out = workload.run_pass()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        speed = probe.speed_since(mark)
        if "latencies" in out:
            record["pushes"] = len(out["latencies"])
            record["failed_pushes"] = out["failed_pushes"]
            record["push"] = push_percentiles(out["latencies"])
        record["digest"], record["problems"] = workload.check(out)
    except Exception as exc:
        traceback.print_exc()
        record["problems"].append(f"pass raised {exc!r}")
        return record
    if not record["problems"]:
        record.update(wall=wall * speed, cpu=cpu * speed, raw_wall=wall, speed=speed)
    return record


def judge_digests(passes: list, expected_digest) -> None:
    """Every pass must hash like the first, and, for the default seed
    and size, like the committed digest."""
    digests = [p["digest"] for p in passes if p["digest"] is not None]
    for p in passes:
        if p["digest"] is None:
            continue
        if p["digest"] != digests[0]:
            p["problems"].append("output digest differs from the first pass")
        if expected_digest is not None and p["digest"] != expected_digest:
            p["problems"].append(
                f"output digest {p['digest'][:12]} is not the committed "
                f"{expected_digest[:12]}"
            )
        if p["problems"]:
            p["wall"] = p["cpu"] = None  # a failed pass has no timing


def count_operations(passes: list) -> tuple:
    """``(attempted, failed)``: an operation is one push where the pass
    is a push loop, otherwise one pass."""
    attempted = failed = 0
    for p in passes:
        if "pushes" in p:
            attempted += p["pushes"]
            failed += p["pushes"] if p["problems"] else p["failed_pushes"]
        else:
            attempted += 1
            failed += bool(p["problems"])
    return attempted, failed


def timed_run(make_workload, seed, size, seconds, committed, say) -> dict:
    """The end-to-end run: tracing, tracemalloc and wrappers all off."""
    with SpeedProbe() as probe:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = None  # drop the previous set-up before the next
            gc.collect()
            t0 = time.perf_counter()
            workload = make_workload()
            workload.setup(seed, size)
            setups.append(time.perf_counter() - t0)
        setup_speed = probe.speed_since(0)
        say(f"set-up     {' '.join(f'{s:.3f}' for s in setups)} s raw, "
            f"machine speed {setup_speed:.2f}")
        workload.run_on(workload.rows[: len(workload.rows) // 10])

        passes = []
        started = time.perf_counter()
        while True:
            passes.append(one_pass(workload, probe))
            say(describe_pass(len(passes), passes[-1]))
            spent = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
                break
    judge_digests(passes, committed)

    metrics = {}
    timed = [p for p in passes if p["wall"] is not None]
    if timed:
        wall = statistics.median(p["wall"] for p in timed)
        metrics = {
            "setup_s": statistics.median(setups) * setup_speed,
            "wall_s": wall,
            "events_per_s": workload.input_events / wall,
            "cpu_s": statistics.median(p["cpu"] for p in timed),
            "peak_rss_mb": peak_rss_mb(),
        }
    return {"passes": passes, "metrics": metrics}


def traced_run(make_workload, seed, size, trace_out: Path, committed, say) -> dict:
    """The per-layer run: an untraced pass, the traced pass, a second
    untraced pass, then the standalone probes and the tracemalloc pass."""
    import tracing

    workload = make_workload()
    workload.setup(seed, size)
    rows = workload.rows
    workload.run_on(rows[: len(rows) // 10])

    recorder = tracing.Recorder(f"{workload.name}-{seed}-{os.getpid()}")
    with SpeedProbe() as probe:
        passes = [
            one_pass(workload, probe),
            one_pass(workload, probe, recorder),
            one_pass(workload, probe),
        ]
    for i, p in enumerate(passes):
        say(describe_pass(i + 1, p) + ("  (traced)" if i == 1 else ""))
    judge_digests(passes, committed)
    untraced = [p for p in (passes[0], passes[2]) if p["wall"] is not None]
    if not untraced or passes[1]["wall"] is None:
        return {"passes": passes, "metrics": {}}

    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w", encoding="utf-8") as f:
        json.dump(
            {"run": recorder.run_id, "workload": workload.name, "seed": seed,
             "spans": recorder.as_dicts()},
            f,
        )
    say(f"spans      {len(recorder.names)} written to {trace_out}")

    metrics = tracing.span_metrics(recorder)
    events, ingest = tracing.probe_ingest(workload)
    metrics.update(ingest)
    metrics.update(tracing.probe_kernels(workload, events))
    del events
    metrics["dataflow.overhead_s"] = 0.0
    if workload.kernels_are_the_plan:
        metrics["dataflow.overhead_s"] = (
            metrics["dataflow.advance_s"] + metrics["dataflow.flush_s"]
            - metrics["op.window_s"] - metrics["op.aggregate_s"]
        )
    persist = {"persist.save_s": 0.0, "persist.load_s": 0.0, "persist.bytes": 0}
    if recorder.persist_target is not None:
        persist = tracing.probe_persist(recorder.persist_target, str(trace_out.parent))
    metrics.update(persist)
    # tracemalloc slows a pass about fourfold; a quarter of the input
    # still spans the longest window (18 h of a 3-day span against 12 h)
    quarter = rows[: len(rows) // 4]
    metrics.update(tracing.probe_heap(lambda: workload.run_on(quarter), len(quarter)))
    metrics["trace.overhead_ratio"] = passes[1]["wall"] / statistics.median(
        p["wall"] for p in untraced
    )
    # push latency is measured with the wrappers off
    pushes = [p["push"] for p in untraced if "push" in p]
    for key in ("p50", "p99"):
        metrics[f"stream.push_{key}_us"] = (
            statistics.median(p[key] for p in pushes) if pushes else 0.0
        )
    return {"passes": passes, "metrics": metrics, "recorder": recorder,
            "span_file": str(trace_out)}


def describe_pass(index: int, p: dict) -> str:
    if p["wall"] is None:
        return f"pass {index}     FAILED: {'; '.join(p['problems'])}"
    text = (
        f"pass {index}     wall {p['wall']:.3f} s  cpu {p['cpu']:.3f} s  "
        f"(raw wall {p['raw_wall']:.3f} s at machine speed {p['speed']:.2f})  "
        f"digest {p['digest'][:12]}"
    )
    if "push" in p:
        push = p["push"]
        text += (
            f"  push p50 {push['p50']:.0f} us  p99 {push['p99']:.0f} us  "
            f"p99.9 {push['p999']:.0f} us (advisory)  n={push['n']}"
        )
    return text


def run_one(args) -> int:
    """One workload in this process; prints the contract's result line."""
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the workloads pin what they need through RunContext; ambient
    # REPRO_* knobs must not pick another executor or batch format
    for knob in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[knob]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import SIZES, WORKLOADS

    spec = load_spec()
    name = args.workload
    if name not in WORKLOADS:
        print(f"run.py: unknown workload {name!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = SIZES[args.size][name]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print(f"workload   {name}  seed {args.seed}  size {args.size} {size}")
    print(
        f"machine    nproc {os.cpu_count()}  python {platform.python_version()}  "
        f"load1 {os.getloadavg()[0]:.2f}"
    )

    key = f"{args.size}/{name}"
    expected = load_expected()
    committed = None
    if args.seed == DEFAULT_SEED and not args.update_expected:
        committed = expected.get(key)
    if args.trace:
        trace_out = Path(
            args.trace_out
            or ROOT / "profile_out" / f"e2e_spans_{name}_{args.seed}.json"
        )
        run = traced_run(WORKLOADS[name], args.seed, size, trace_out, committed, print)
        declared = spec["per_layer"]
    else:
        run = timed_run(WORKLOADS[name], args.seed, size, seconds, committed, print)
        declared = spec["end_to_end"]

    passes = run["passes"]
    attempted, failed = count_operations(passes)
    correct = not any(p["problems"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"PROBLEM    {problem}")
    if not run["metrics"]:
        print("run.py: too few passes completed to report metrics", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    if args.update_expected and correct and args.seed == DEFAULT_SEED:
        expected[key] = passes[0]["digest"]
        with open(HERE / "expected.json", "w", encoding="utf-8") as f:
            json.dump(expected, f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"operations attempted {attempted}  failed {failed}  "
        f"failed_share {failed / attempted:.4f}")
    for metric, m in metrics.items():
        print(f"metric     {metric:<30} {m['value']:>16.6f} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
        )
    )
    return 0


# -- several runs, each in a fresh child process -----------------------------


def orchestrate(args) -> int:
    """``--workload all`` and ``--runs N``: every run is a fresh child
    process of its own, one at a time."""
    spec = load_spec()
    names = (
        [w["name"] for w in spec["workloads"]]
        if args.workload == "all"
        else [args.workload]
    )
    records = []
    ok = True
    for r in range(args.runs):
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", name,
                "--seed", str(args.seed + r),
                "--size", args.size,
                "--trace", str(args.trace),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.update_expected:
                command.append("--update-expected")
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            if child.returncode != 0:
                ok = False
                continue
            result = json.loads(child.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            records.append(
                {"workload": name, "seed": args.seed + r, "size": args.size,
                 "trace": args.trace, **result}
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"runs": records}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


# -- comparing two sets of runs ----------------------------------------------


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric: both medians, the
    ratio with its base, the bound, and the verdict."""
    spec = load_spec()
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as f:
            runs = [r for r in json.load(f)["runs"] if not r["trace"]]
        by_workload = {}
        for r in runs:
            by_workload.setdefault(r["workload"], []).append(r)
        sets.append(by_workload)
    print(f"{'workload':<14} {'metric':<13} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in sets[0] or name not in sets[1]:
            continue
        for m in spec["end_to_end"]:
            a, b = (
                [r["metrics"][m["name"]]["value"] for r in s[name]] for s in sets
            )
            med_a, med_b = statistics.median(a), statistics.median(b)
            change = (med_b - med_a) / med_a
            if m["better"] == "higher":
                change = -change
            noise = max(spread(a), spread(b))
            if noise > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{name:<14} {m['name']:<13} {med_a:>12.4f} {med_b:>12.4f} "
                f"{med_b / med_a:>7.3f} {m['bound']:>6.2f} {noise:>7.3f}  "
                f"{verdict}  ({m['unit']}, {m['better']} is better, "
                f"n={len(a)}/{len(b)})"
            )
        for label, s in zip("AB", sets):
            failed = sum(r["failed"] for r in s[name])
            attempted = sum(r["attempted"] for r in s[name])
            print(f"{name:<14} failed_share {label}: {failed}/{attempted}")
            worse += bool(failed)
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float,
        help="budget for the timed passes (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the per-layer run (traced pass, probes, tracemalloc pass)",
    )
    parser.add_argument("--trace-out", help="span file (default: profile_out/)")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    parser.add_argument(
        "--update-expected", action="store_true",
        help="record the default seed's output digests in expected.json",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload or --compare is required")
    if args.workload == "all" or args.runs > 1 or args.out:
        return orchestrate(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
