"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "jcgrid").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """The names a module imports and never reads, with their line numbers;
    ``from __future__`` imports bind nothing to read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "from typing import Dict, List\nx: List = os.path.sep\n")
    assert _unused_imports(source) == [(2, "math"), (4, "Dict")]


# The overflow guard of the exact arithmetic: the limits, the batched product
# and the numerator magnitudes it bounds are read in numlin.py alone.
GUARD_NAMES = {"_INT64_LIMIT", "_FLOAT_EXACT", "_cmatmul"}
GUARD_ATTRIBUTES = GUARD_NAMES | {"_bound", "_mags", "_mag", "mag"}


def _guard_reads(source: str) -> list:
    """The guard names and attributes a module imports or reads, with their
    line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in GUARD_NAMES]
        elif isinstance(node, ast.Name) and node.id in GUARD_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in GUARD_ATTRIBUTES:
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "numlin.py"],
                         ids=lambda p: p.name)
def test_exactness_guard_lives_in_numlin(path):
    assert _guard_reads(path.read_text()) == []


def test_guard_read_is_found():
    source = ("from .numlin import _INT64_LIMIT, ExactFamily, _cmatmul\n"
              "from . import numlin\n"
              "big = fam.mag * x._bound() >= _INT64_LIMIT\n"
              "top, mag = x._mags(), numlin._FLOAT_EXACT\n"
              "mag = x._mag or fam.magnitude\n")
    assert _guard_reads(source) == [(1, "_INT64_LIMIT"), (1, "_cmatmul"), (3, "_INT64_LIMIT"),
                                    (3, "_bound"), (3, "mag"), (4, "_FLOAT_EXACT"),
                                    (4, "_mags"), (5, "_mag")]
