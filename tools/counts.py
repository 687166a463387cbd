"""Work counters of the repo-benchmark workloads: a git revision against the working tree.

    python3 tools/counts.py --base HEAD~1
    make counts BASE=HEAD~1

Runs every workload of ``benchmarks/e2e/workloads.py`` once, at full
size and seed 0 (``run_pass`` then ``check``, as the benchmark's pass
does), with a ``repro.obs.Tracer`` as the default run context's tracer:
first at ``--base`` (its committed files, ``git archive``d into a
temporary directory), then in the working tree, each side in a process
of its own that imports that side's ``src`` and workloads unchanged.
Prints per workload, for both sides:

* chain advances: the ``dataflow.chain_advances`` counter, ``n/a`` at a
  revision that lacks it;
* ``operator_events``, ``decoded_rows`` and ``array_swept_rows``: the
  ``engine.*`` counters, summed over their labels;
* ``keyed.row_loop``: the rows a keyed count or int sum took through its
  per-row loop, the ``engine.resolutions`` counter of that label (0
  where it never counted);
* waves and wave width: the GroupApply waves that ran, and the active
  keys they had between them (the ``dataflow.wave_width`` histogram's
  count and sum);
* output rows: the rows or events the pass returned;
* the output digest ``check`` computed.

``operator_events`` is the tracer's counter: the events each operator
node emitted, the source nodes' not included (``EngineStats.
operator_events``, which includes them, reads higher). ``stream_push``'s
``check`` runs ``Engine.run`` over the pushed rows, so its engine
counters are that run's and its chain advances both flows'.

Exits 1 when a number of the two sides differs (``n/a`` matches
anything), so a change that must keep the work the runtime does can
show that it does. Under a minute a side on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("bt_timr", "scale_sliding", "scale_hopping", "scale_par", "stream_push")
#: printed rows: label -> the metric counter summed into it, or
#: ``(counter, resolution)``: that counter's one ``resolution`` label, or
#: ``(histogram, "count" | "sum")``: that part of a histogram
ROWS = {
    "chain advances": "dataflow.chain_advances",
    "operator_events": "engine.operator_events",
    "decoded_rows": "engine.decoded_rows",
    "array_swept_rows": "engine.array_swept_rows",
    #: a resolution is counted only once it happens: absent reads 0
    "keyed.row_loop": ("engine.resolutions", "keyed.row_loop"),
    "waves": ("dataflow.wave_width", "count"),
    "wave width": ("dataflow.wave_width", "sum"),
    "output rows": None,
    "digest": None,
}
NA = "n/a"


def export(rev: str, into: Path) -> Path:
    """``rev``'s committed files, as ``git archive`` writes them."""
    archive = into / "base.tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=f, check=True)
    tree = into / "base"
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tree, filter="data")
        else:
            tar.extractall(tree)
    archive.unlink()
    return tree


def output_rows(out: dict) -> int:
    """How many rows or events a workload's pass returned."""
    if "events" in out:
        return len(out["events"])
    return sum(map(len, out["rows"].values()))


def collect(tree: Path, names, size: str = "full") -> dict:
    """One traced seed-0 pass of each workload in ``names`` at ``size``,
    importing ``tree``'s ``src`` and workloads: ``{workload: {row: value}}``."""
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import workloads
    from repro.obs import Tracer
    from repro.runtime.context import DEFAULT_CONTEXT

    untraced, found = DEFAULT_CONTEXT.tracer, {}
    for name in names:
        tracer = Tracer()
        # the workloads build their engines, clusters and streaming
        # engines without a context, so they run under the default one
        object.__setattr__(DEFAULT_CONTEXT, "tracer", tracer)
        try:
            workload = workloads.WORKLOADS[name]()
            workload.setup(0, workloads.SIZES[size][name])
            engine = getattr(workload, "engine", None)
            if engine is not None:  # scale_par's engine has a context of its own
                engine.context = engine.context.derive(tracer=tracer)
            out = workload.run_pass()
            digest, problems = workload.check(out)
        finally:
            object.__setattr__(DEFAULT_CONTEXT, "tracer", untraced)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        sums: Counter = Counter()
        for metric in tracer.metrics.snapshot():
            if metric["kind"] == "counter":
                sums[metric["name"]] += metric["value"]
                if "resolution" in metric["labels"]:
                    sums[metric["name"], metric["labels"]["resolution"]] += metric["value"]
            elif metric["kind"] == "histogram":
                for part in ("count", "sum"):
                    sums[metric["name"], part] += metric["value"][part]
        row = {label: sums.get(metric, 0 if type(metric) is tuple else NA)
               for label, metric in ROWS.items() if metric}
        row["output rows"], row["digest"] = output_rows(out), digest[:12]
        found[name] = row
        del workload, out
    return found


def side(tree: Path, names) -> dict:
    """:func:`collect` in a fresh process, so each side imports its own ``repro``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [sys.executable, str(Path(__file__).resolve()), "--collect", str(tree),
               "--workload", *names]
    print(f"# {tree}", file=sys.stderr, flush=True)
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.splitlines()[-1])  # the last line: a pass may print


def table(base: dict, tree: dict, rev: str) -> tuple:
    """``(text, differs)``: both sides' rows per workload, a ``!`` on
    every row whose numbers differ."""
    lines, differs = [f"{'workload':<14}{'':<18}{rev:>14}{'tree':>14}"], False
    for name in base:
        for label in ROWS:
            a, b = base[name][label], tree[name][label]
            bad = NA not in (a, b) and a != b
            differs |= bad
            fmt = (lambda v: f"{v:,}" if isinstance(v, int) else str(v))
            lines.append(f"{name:<14}{label:<18}{fmt(a):>14}{fmt(b):>14}" + ("  !" if bad else ""))
    return "\n".join(lines), differs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare with")
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        print(json.dumps(collect(args.collect, args.workload)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        base = side(export(args.base, Path(tmp)), args.workload)
    text, differs = table(base, side(ROOT, args.workload), args.base)
    print(text)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
