"""Compare a git revision with the working tree on the repo benchmark.

    python3 benchmarks/pairs.py --base HEAD~1 --pairs 10
    make bench-pairs BASE=HEAD~1 PAIRS=10
    make bench-pairs BASE=HEAD~1 PAIRS=4 WORKLOAD=bt_timr

Exports ``--base`` with ``git archive`` into a temporary directory, then
runs ``benchmarks/e2e/run.py --workload W --seed i`` for ``i`` in
``0 .. pairs-1`` (``W`` is ``--workload``: ``all``, the default, or one
workload to pair while iterating on it), once in the export and once in
the working tree, which
goes first alternating from pair to pair so slow drift of the machine
falls on both sides alike. Each side's ``runs`` are concatenated into
``A.json`` (the base) and ``B.json`` (the working tree) under
``--out-dir``, and ``run.py --compare A.json B.json`` prints the
verdict; its exit status is this script's. Every run checks its
outputs, so a pair of ``all`` takes about three minutes: ten take half
an hour.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"


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


def run_all(tree: Path, workload: str, seed: int, out: Path) -> list:
    """``workload`` (every one for ``all``) once at ``seed`` in ``tree``;
    its ``runs``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    command = [sys.executable, str(tree / RUN), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
    print(f"# {tree}: seed {seed}", flush=True)
    subprocess.run(command, cwd=tree, env=env, stdout=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as f:
        return json.load(f)["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare with")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all",
                        help="one workload of BENCHMARK.json, or 'all' (the default)")
    parser.add_argument("--out-dir", default="pairs_out", help="where A.json and B.json go")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"A": export(args.base, tmp), "B": ROOT}
        for seed in range(args.pairs):
            for side in ("AB" if seed % 2 == 0 else "BA"):
                runs[side] += run_all(
                    trees[side], args.workload, seed, tmp / f"{side}{seed}.json"
                )
    paths = []
    for side, records in runs.items():
        path = out_dir / f"{side}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"runs": records}, f, indent=1)
            f.write("\n")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(ROOT / RUN), "--compare", *paths]).returncode


if __name__ == "__main__":
    sys.exit(main())
