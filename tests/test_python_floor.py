"""``src/`` runs on the oldest Python pyproject.toml declares.

CI runs the suite on that version as well; these checks catch, on any
interpreter, what would only fail there: syntax newer than the floor,
and the ``key=`` argument of the ``bisect`` functions (Python 3.10),
which raises ``TypeError`` at call time rather than at import.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
BISECT = {"bisect", "bisect_left", "bisect_right", "insort", "insort_left", "insort_right"}


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)', text)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found.group(1)), int(found.group(2))


def test_sources_parse_at_the_declared_floor():
    floor = declared_floor()
    for path in SOURCES:
        ast.parse(path.read_text(), str(path), feature_version=floor)


def test_no_bisect_call_passes_key():
    if declared_floor() >= (3, 10):
        pytest.skip("bisect takes key= from Python 3.10")
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in BISECT and any(k.arg == "key" for k in node.keywords):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not offenders
