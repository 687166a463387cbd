"""Bench trend harness: run-over-run throughput tracking for CI.

``make bench-compare`` pins one baseline artifact and asks "did this
run regress against *that* file?". This script answers the longer
question — "how does this run sit against the best numbers this repo
has ever recorded?" — and keeps the record:

* appends a compact summary of the run (per-query events/sec, config,
  git revision) to a JSON-lines history file (default
  ``profile_out/BENCH_history.jsonl``, outside version control like
  every generated artifact, uploaded as a CI artifact so runs
  accumulate across workflow runs when the previous artifact is
  restored);
* folds the **best-known** events/sec per query across every committed
  baseline in ``benchmarks/baselines/BENCH_*.json`` *and* every prior
  history entry;
* prints a regression/improvement report: queries below
  ``(1 - threshold)`` of best-known are regressions, queries that set
  a new best are improvements, everything else is steady.

The report is advisory: exit code is 0 regardless of findings unless
``--strict`` is passed (then regressions exit 1). Wall-clock numbers
on shared runners are noisy — the default threshold is deliberately
loose, and the point of the history file is the trend line, not any
single run.

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py \
        --out profile_out/BENCH_current.json
    python benchmarks/trend.py --run profile_out/BENCH_current.json

    # CI variant: machine-readable report document
    python benchmarks/trend.py --json > profile_out/trend.json
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _query_eps(doc: dict) -> dict:
    """``{query: events_per_second}`` from a bench_smoke artifact or a
    history entry (both store the same shape under ``queries``)."""
    eps = {}
    for name, cell in (doc.get("queries") or {}).items():
        value = cell.get("events_per_second") if isinstance(cell, dict) else cell
        if isinstance(value, (int, float)) and value > 0:
            eps[name] = float(value)
    return eps


def load_history(path: str) -> list:
    """All prior entries; unparseable lines are skipped, not fatal."""
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                continue
    return entries


def best_known(baseline_docs: list, history: list) -> dict:
    """Best events/sec per query across baselines + history, with the
    source label of where each best was recorded."""
    best = {}
    for label, doc in baseline_docs:
        for name, eps in _query_eps(doc).items():
            if name not in best or eps > best[name][0]:
                best[name] = (eps, label)
    for entry in history:
        label = f"history:{entry.get('git', '?')}"
        for name, eps in _query_eps(entry).items():
            if name not in best or eps > best[name][0]:
                best[name] = (eps, label)
    return best


def summarize(run: dict, git: str, timestamp: float) -> dict:
    """The compact history record for one bench_smoke artifact."""
    return {
        "timestamp": round(timestamp, 1),
        "git": git,
        "config": run.get("config", {}),
        "queries": {
            name: {"events_per_second": eps}
            for name, eps in sorted(_query_eps(run).items())
        },
    }


def compare(run: dict, best: dict, threshold: float) -> dict:
    """Classify every query of the run against best-known numbers."""
    regressions, improvements, steady, new_queries = [], [], [], []
    for name, eps in sorted(_query_eps(run).items()):
        if name not in best:
            new_queries.append({"query": name, "events_per_second": eps})
            continue
        best_eps, source = best[name]
        ratio = eps / best_eps
        row = {
            "query": name,
            "events_per_second": eps,
            "best_events_per_second": best_eps,
            "best_source": source,
            "ratio": round(ratio, 3),
        }
        if ratio < 1.0 - threshold:
            regressions.append(row)
        elif ratio > 1.0:
            improvements.append(row)
        else:
            steady.append(row)
    return {
        "regressions": regressions,
        "improvements": improvements,
        "steady": steady,
        "new_queries": new_queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--run",
        default=os.path.join("profile_out", "BENCH_current.json"),
        metavar="JSON",
        help="bench_smoke artifact for the run to record and compare",
    )
    parser.add_argument(
        "--history",
        default=os.path.join("profile_out", "BENCH_history.jsonl"),
        metavar="JSONL",
        help="append-only run history (created on first use, parent "
        "directory included)",
    )
    parser.add_argument(
        "--baselines",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines"),
        metavar="DIR",
        help="directory of committed BENCH_*.json reference artifacts",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="fractional drop vs best-known before a query counts as a "
        "regression (default 0.5; shared runners are noisy)",
    )
    parser.add_argument(
        "--no-append",
        action="store_true",
        help="compare only; do not record this run into the history",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any query regressed (default: always exit 0 — "
        "the report is advisory)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as one JSON document on stdout",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.run, encoding="utf-8") as fp:
            run = json.load(fp)
    except (OSError, ValueError) as exc:
        print(f"trend: cannot read run artifact {args.run}: {exc}", file=sys.stderr)
        return 2

    baseline_docs = []
    for path in sorted(glob.glob(os.path.join(args.baselines, "BENCH_*.json"))):
        try:
            with open(path, encoding="utf-8") as fp:
                baseline_docs.append((os.path.basename(path), json.load(fp)))
        except (OSError, ValueError) as exc:
            print(f"trend: skipping unreadable baseline {path}: {exc}")

    history = load_history(args.history)
    best = best_known(baseline_docs, history)
    report = compare(run, best, args.threshold)
    record = summarize(run, _git_revision(), time.time())

    if not args.no_append:
        parent = os.path.dirname(args.history)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.history, "a", encoding="utf-8") as fp:
            fp.write(json.dumps(record, sort_keys=True) + "\n")

    doc = {
        "command": "bench-trend",
        "run": args.run,
        "baselines": [label for label, _ in baseline_docs],
        "history_entries": len(history),
        "threshold": args.threshold,
        "git": record["git"],
        **report,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"bench-trend: {len(_query_eps(run))} query(ies) vs best-known "
            f"from {len(baseline_docs)} baseline(s) + "
            f"{len(history)} history entry(ies)"
        )
        for row in report["regressions"]:
            print(
                f"  REGRESSION {row['query']}: {row['events_per_second']:,.0f} "
                f"ev/s vs best {row['best_events_per_second']:,.0f} "
                f"({row['ratio']:.2f}x, best from {row['best_source']})"
            )
        for row in report["improvements"]:
            print(
                f"  improvement {row['query']}: {row['events_per_second']:,.0f} "
                f"ev/s, new best (was {row['best_events_per_second']:,.0f} "
                f"from {row['best_source']})"
            )
        for row in report["new_queries"]:
            print(
                f"  new query {row['query']}: {row['events_per_second']:,.0f} ev/s "
                "(no prior numbers)"
            )
        print(
            f"  steady: {len(report['steady'])}; "
            f"regressions: {len(report['regressions'])}; "
            f"improvements: {len(report['improvements'])}"
            + ("" if args.no_append else f"; recorded to {args.history}")
        )
    if args.strict and report["regressions"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
