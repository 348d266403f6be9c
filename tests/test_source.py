"""Static checks on the package source."""

import ast
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import cli_env
from jcgrid.numlin import ExactFamily

SOURCES = sorted(p for p in (Path(__file__).resolve().parents[1] / "src" / "jcgrid").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
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


# The table oracle (tests/table_oracle.py) takes from the exact kernels only
# what builds its input matrices, so that a fault in a kernel cannot pass on
# both sides of the comparison; so do the test_numlin helpers it calls.
ORACLE_HELPER = Path(__file__).resolve().parent / "table_oracle.py"
NUMLIN_TESTS = Path(__file__).resolve().parent / "test_numlin.py"
KERNEL_MODULES = {"jcgrid.numlin", "jcgrid.triple"}
INPUT_CONSTRUCTORS = {"ExactMatrix"}
FAMILY_METHODS = {"family"} | {name for name, value in vars(ExactFamily).items()
                               if callable(value) and not name.startswith("__")}


def _kernel_imports(node) -> list:
    """The names an import node takes from ``jcgrid.numlin`` or
    ``jcgrid.triple`` beyond the input constructors, and the modules
    themselves, with its line number."""
    if isinstance(node, ast.ImportFrom):
        names = [a.name for a in node.names]
        if node.module in KERNEL_MODULES:
            return [(node.lineno, n) for n in names if n not in INPUT_CONSTRUCTORS]
        if node.module == "jcgrid":
            return [(node.lineno, n) for n in names if f"jcgrid.{n}" in KERNEL_MODULES]
    elif isinstance(node, ast.Import):
        return [(node.lineno, a.name) for a in node.names if a.name in KERNEL_MODULES]
    return []


def _kernel_reads(source: str, helpers=None) -> list:
    """What a module takes from ``jcgrid.numlin`` or ``jcgrid.triple``
    beyond the input constructors, with line numbers: the names it imports from
    them, the modules themselves, and the methods of a family it reads.

    With ``helpers``, only the bodies of those module-level functions, and
    of the module-level functions they call, are read; there a name that
    the module imports from the kernels counts where it is read."""
    tree = ast.parse(source)
    scope, imported = [tree], set()
    if helpers is not None:
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        imported = {name for node in tree.body for _, name in _kernel_imports(node)}
        scope, todo = [], list(helpers)
        while todo:
            node = defs.get(todo.pop())
            if node is not None and node not in scope:
                scope.append(node)
                todo += [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
    found = []
    for node in (n for top in scope for n in ast.walk(top)):
        found += _kernel_imports(node)
        if isinstance(node, ast.Name) and node.id in imported:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FAMILY_METHODS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_table_oracle_shares_no_kernel():
    source = ORACLE_HELPER.read_text()
    assert _kernel_reads(source) == []
    helpers = {a.name for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ImportFrom) and node.module == "test_numlin"
               for a in node.names}
    assert helpers and _kernel_reads(NUMLIN_TESTS.read_text(), helpers) == []


def test_kernel_read_is_found():
    source = ("from jcgrid.numlin import ExactMatrix, scaled_members\n"
              "from jcgrid import grids, triple\n"
              "import jcgrid.numlin\n"
              "ok = g.family().equal(a, b, c)\n")
    assert _kernel_reads(source) == [(1, "scaled_members"), (2, "triple"), (3, "jcgrid.numlin"),
                                     (4, "equal"), (4, "family")]
    # a helper's body, and the helpers it calls: the module's imports are
    # read only where a body reads them, and an uncalled function not at all
    helpers = ("from jcgrid.numlin import ExactMatrix, _product\n"
               "def ref(a, b):\n"
               "    return inner(ExactMatrix.from_rows(a), b)\n"
               "def inner(a, b):\n"
               "    from jcgrid import triple\n"
               "    return _product(a, b) + triple.triple_product(a, b, a)\n"
               "def uncalled(g):\n"
               "    return g.family().equal(g)\n")
    assert _kernel_reads(helpers, {"ref"}) == [(5, "triple"), (6, "_product")]


# -- every function reached by a command or a criterion ------------------------------

_CONSTRUCT_SIZES = {"hnk": "--n 3 --k 2", "rectangular": "--p 2 --q 3", "hermitian": "--m 3",
                    "symplectic": "--m 4", "spin": "--r 2 --odd", "spin-system": "--k 3",
                    "diag-hnk": "--n 3 --ks 2,1", "diag-rect": "--p 2 --q 2"}
_VERIFY_SIZES = ["grid --kind rectangular --p 2 --q 3", "grid --kind hermitian --m 3",
                 "grid --kind symplectic --m 4", "grid --kind spin --r 2 --odd",
                 # H(6,3): 20 x 15 basis elements, whose Gram products are
                 # kept diagonals and multiply as row and column scalings
                 "hnk --n 6 --k 3", "uij-grid --n 3 --k 2",
                 "projection --n 3 --k 2 --samples 5",
                 # x x* of a dense 20 x 15 x in H(6,3): a product on the float64 rung
                 "trace --n 6 --k 3",
                 "split --n 3 --ks 2,1", "split --p 2 --q 2",
                 "matrix-units --kind hermitian --m 3 --conjugations 2",
                 "matrix-units --kind symplectic --m 5 --conjugations 2"]
# (argv, exit code): every subcommand, --format and grid or construct kind at
# small sizes, then a usage error, a grid at the verify cap and a capacity error
REACH_COMMANDS = (
    [(f"construct {kind} {sizes} --format {fmt}".split(), 0)
     for kind, sizes in _CONSTRUCT_SIZES.items() for fmt in ("json", "csv", "pretty")]
    + [(f"verify {target} --format {fmt}".split(), 0)
       for target in _VERIFY_SIZES for fmt in ("text", "json")]
    + [("witness --n 3 --k 2".split(), 0), ("verify grid --m 3".split(), 2),
       ("verify grid --kind hermitian --m 15".split(), 0),
       ("verify grid --kind hermitian --m 16".split(), 3)])

# Run in a fresh interpreter, so that what the package calls while it is
# imported counts: the commands in-process, then the acceptance criteria's
# library entry points that no command reaches.  Prints the exit codes and
# the (file, first line, qualified name) of every code object entered.
_TRACE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from jcgrid import cli, grids
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
    grids.spin_to_spin_system(grids.spin_grid(2, True))
    grids.hermitian_to_matrix_units(grids.hermitian_grid(3)).unit(1, 2)
    perm = grids.signed_permutation(3, [2, 0, 1], [1, -1, 1])
    grids.conjugate_grid(grids.hermitian_grid(3), perm, perm)
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": [[c.co_filename, c.co_firstlineno, c.co_qualname]
                                              for c in entered]}))
"""

ORACLE = "a test oracle"
DUNDER = "a dunder of a value type"
PERFBENCH = "read by perfbench"
READER = "a JSON round-trip reader"
ERROR_PATH = "an error path no command reaches"
# module.qualname -> why no command or criterion needs to reach it
UNREACHED_ALLOWED = {
    "grids.Grid.__repr__": DUNDER,
    "grids.labels_to_indices": READER,
    "hnk.Combination.__str__": DUNDER,
    "hnk.RankOneRealization.__repr__": DUNDER,
    "numlin.ExactScalar.__add__": ORACLE,
    "numlin.ExactScalar.__rsub__": DUNDER,
    "numlin.ExactScalar.conjugate": ORACLE,
    "numlin.ExactScalar.__hash__": DUNDER,
    "numlin.ExactScalar.__repr__": DUNDER,
    "numlin.ExactMatrix.entry": ORACLE,
    "numlin.ExactMatrix.nnz": ORACLE,
    "numlin.ExactMatrix.support": PERFBENCH,
    "numlin.ExactMatrix.__neg__": DUNDER,
    "numlin.ExactMatrix.__rmul__": DUNDER,
    "numlin.ExactMatrix.__hash__": DUNDER,
    "numlin.ExactMatrix.__repr__": DUNDER,
    "numlin.ApproxMatrix.__repr__": DUNDER,
    "report.VerificationReport.failures": ERROR_PATH,
    "serialize.scalar_from_json": READER,
    "serialize.matrix_from_json": PERFBENCH,
    "serialize.grid_from_json": READER,
    "serialize.hnk_basis_from_json": PERFBENCH,
    "triple.PartialIsometry.__eq__": DUNDER,
    "triple.PartialIsometry.__hash__": DUNDER,
    "triple.PartialIsometry.__repr__": DUNDER,
}


def _functions(source: str, module: str) -> dict:
    """(first line, qualified name) -> "module.qualname" for every function
    and method a module defines, nested ones included; class bodies,
    lambdas and comprehensions are parts of their functions."""
    found = {}

    def walk(code):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found[const.co_firstlineno, const.co_qualname] = f"{module}.{const.co_qualname}"
                walk(const)

    walk(compile(source, module, "exec"))
    return found


def _unreached(sources: dict, entered: set) -> list:
    """The functions of ``sources`` (module -> source) that no entered
    (module, first line, qualified name) names, by "module.qualname"."""
    return sorted(name for module, source in sources.items()
                  for (line, qual), name in _functions(source, module).items()
                  if (module, line, qual) not in entered)


def test_unreached_function_is_found():
    source = """import functools


class A:
    table = [i for i in range(3)]

    def used(self):
        return lambda: [j for j in ()]

    @functools.cache
    def unused(self):
        def inner():
            pass


def top():
    pass
"""
    entered = {("m", 7, "A.used"), ("m", 16, "top")}
    assert _unreached({"m": source}, entered) == ["m.A.unused", "m.A.unused.<locals>.inner"]


def test_every_function_is_reached():
    argv = json.dumps([a for a, _ in REACH_COMMANDS])
    res = subprocess.run([sys.executable, "-c", _TRACE, argv], capture_output=True,
                         text=True, env=cli_env(), check=True, timeout=60)
    out = json.loads(res.stdout)
    assert out["codes"] == [code for _, code in REACH_COMMANDS]
    entered = {(Path(f).stem, line, qual) for f, line, qual in out["entered"]
               if Path(f).resolve().parent == SOURCES[0].parent}
    sources = {p.stem: p.read_text() for p in SOURCES}
    unreached = _unreached(sources, entered)
    dead = [n for n in unreached if n not in UNREACHED_ALLOWED]
    assert not dead, "reached by no command or criterion: " + ", ".join(dead)
    defined = {name for module, source in sources.items()
               for name in _functions(source, module).values()}
    stale = [n for n in UNREACHED_ALLOWED if n not in defined or n not in unreached]
    assert not stale, "allowed but missing or reached: " + ", ".join(stale)
    assert set(UNREACHED_ALLOWED.values()) <= {ORACLE, DUNDER, PERFBENCH, READER, ERROR_PATH}
