"""``tools/loc.py`` (``make loc``): ``src/`` lines per package."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def _in_git():
    return shutil.which("git") is not None and subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True
    ).returncode == 0


def test_packages_are_dotted_directories():
    assert loc.package("src/repro/temporal/operators/base.py") == "repro.temporal.operators"
    assert loc.package("src/repro/cli.py") == "repro"


def test_tree_counts_what_wc_counts():
    ops = ROOT / "src" / "repro" / "temporal" / "operators"
    want = sum(p.read_bytes().count(b"\n") for p in ops.glob("*.py"))
    assert loc.tree_lines()["repro.temporal.operators"] == want


@pytest.mark.skipif(not _in_git(), reason="needs a git checkout")
def test_table_totals_and_net_change():
    base, tree = loc.rev_lines("HEAD"), loc.tree_lines()
    assert set(base) >= {"repro", "repro.runtime", "repro.temporal"}
    *rows, total = loc.table(base, tree, "HEAD").splitlines()
    b, t = sum(base.values()), sum(tree.values())
    assert total.split() == ["total", str(b), str(t), f"{t - b:+d}"]
    assert rows[0].split() == ["package", "HEAD", "tree", "net"]
