"""Count ``src/`` lines per package: the working tree against a git revision.

    python3 tools/loc.py --base HEAD~1
    make loc BASE=HEAD~1

Prints, for every package under ``src/`` (``repro.temporal``,
``repro.runtime``, ...; modules directly in ``repro`` are counted as
``repro``), the lines of its ``.py`` files at ``--base`` and in the
working tree, and the net change, then the totals. A line is what
``wc -l`` counts. ROADMAP items state their acceptance in ``src/``
lines; this is the count they mean.
"""

from __future__ import annotations

import argparse
import io
import subprocess
import sys
import tarfile
from collections import Counter
from pathlib import Path, PurePosixPath

ROOT = Path(__file__).resolve().parents[1]
SRC = "src"


def package(path: str) -> str:
    """The dotted package of the file at ``path``, ``src/<package>/<file>``."""
    return ".".join(PurePosixPath(path).parts[1:-1])


def tree_lines(root: Path = ROOT) -> Counter:
    """Lines per package of the working tree's ``src/**/*.py``."""
    counts: Counter = Counter()
    for file in sorted((root / SRC).rglob("*.py")):
        rel = file.relative_to(root).as_posix()
        counts[package(rel)] += file.read_bytes().count(b"\n")
    return counts


def rev_lines(rev: str, root: Path = ROOT) -> Counter:
    """Lines per package of ``src/**/*.py`` committed at ``rev``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, SRC],
        cwd=root, stdout=subprocess.PIPE, check=True,
    ).stdout
    counts: Counter = Counter()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar:
            if member.isfile() and member.name.endswith(".py"):
                counts[package(member.name)] += tar.extractfile(member).read().count(b"\n")
    return counts


def table(base: Counter, tree: Counter, rev: str) -> str:
    rows = [("package", rev, "tree", "net")]
    for name in sorted(set(base) | set(tree)):
        b, t = base[name], tree[name]
        rows.append((name, str(b), str(t), f"{t - b:+d}"))
    b, t = sum(base.values()), sum(tree.values())
    rows.append(("total", str(b), str(t), f"{t - b:+d}"))
    width = max(len(r[0]) for r in rows)
    cols = [max(len(r[i]) for r in rows) for i in (1, 2, 3)]
    return "\n".join(
        f"{r[0]:<{width}}  " + "  ".join(f"{v:>{w}}" for v, w in zip(r[1:], cols))
        for r in rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare with")
    args = parser.parse_args(argv)
    print(table(rev_lines(args.base), tree_lines(), args.base))
    return 0


if __name__ == "__main__":
    sys.exit(main())
