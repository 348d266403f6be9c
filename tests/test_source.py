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
