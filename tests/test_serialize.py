"""Lossless JSON round-trips and rendering formats."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcgrid import serialize
from jcgrid.grids import (hermitian_grid, labels_to_indices, rectangular_grid,
                          spin_grid, symplectic_grid, verify_grid)
from jcgrid.hnk import build_hnk, diag_rect
from jcgrid.numlin import ExactMatrix, ExactScalar
from jcgrid.serialize import (dumps, grid_from_json, grid_to_json,
                              hnk_basis_from_json, hnk_to_json,
                              matrix_from_json, matrix_to_csv_lines,
                              matrix_to_json, scalar_from_json, scalar_to_json)


def test_scalar_roundtrip():
    s = ExactScalar(Fraction(-7, 3), Fraction(22, 5))
    assert scalar_from_json(scalar_to_json(s)) == s
    d = scalar_to_json(ExactScalar(2))
    assert d["re"] == {"num": "2", "den": "1"}


def test_matrix_roundtrip():
    m = ExactMatrix.from_rows([
        [ExactScalar(Fraction(1, 2), -1), ExactScalar(0)],
        [ExactScalar(3), ExactScalar(0, Fraction(2, 7))]])
    assert matrix_from_json(matrix_to_json(m)) == m
    # survives a JSON text round trip too
    assert matrix_from_json(json.loads(dumps(matrix_to_json(m)))) == m


def test_matrix_equal_cells_are_one_object():
    half = ExactScalar(Fraction(1, 2), -1)
    m = ExactMatrix.from_rows([[half, 0, half], [0, ExactScalar(0, 3), half]])
    d = matrix_to_json(m)
    (a, b, c), (e, f, g) = d["entries"]
    assert a is c is g and b is e
    assert len({id(x) for x in (a, b, c, e, f, g)}) == 3
    assert a == {"re": {"num": "1", "den": "2"}, "im": {"num": "-1", "den": "1"}}
    assert matrix_from_json(d) == m
    assert matrix_from_json(json.loads(dumps(d))) == m


def test_grid_roundtrip_reverifies_identically():
    for g in (hermitian_grid(3), spin_grid(2, True)):
        payload = json.loads(dumps(grid_to_json(g)))
        g2 = grid_from_json(payload)
        r1 = verify_grid(g)
        r2 = verify_grid(g2)
        assert r1.to_json_dict() == r2.to_json_dict()


@pytest.mark.parametrize("make", [
    lambda: rectangular_grid(2, 3), lambda: hermitian_grid(3), lambda: symplectic_grid(4),
    lambda: spin_grid(2, True), lambda: build_hnk(3, 2).as_grid(), lambda: diag_rect(2, 3),
], ids=["rectangular", "hermitian", "symplectic", "spin-odd", "rank1", "diag-rect"])
def test_labels_round_trip(make):
    g = make()
    labels = [g.label(i) for i in g.indices]
    assert labels_to_indices(g.kind, labels) == list(g.indices)
    assert grid_from_json(grid_to_json(g)).indices == g.indices


def test_hnk_payload_self_describing():
    sp = build_hnk(4, 3)
    payload = json.loads(dumps(hnk_to_json(sp)))
    assert payload["rows_indexed_by"] == [[1], [2], [3], [4]]
    assert payload["cols_indexed_by"][0] == [1, 2]
    basis = hnk_basis_from_json(payload)
    assert list(sp.basis) == basis


def test_csv_floats_only():
    m = ExactMatrix.from_rows([[ExactScalar(Fraction(1, 2), -1), ExactScalar(0)]])
    lines = matrix_to_csv_lines(m)
    assert lines == ["0.5,-1,0,0"]


# -- the JSON writer: the bytes of json.dumps(indent=2, sort_keys=True) -------

_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | st.text())
# two digits give 16 cells, so equal cells recur at different depths
_digits = st.sampled_from(["0", "1"])
_part = st.fixed_dictionaries({"num": _digits, "den": _digits})
_cell = st.fixed_dictionaries({"re": _part, "im": _part})
# parts that must not be taken for {"num": str, "den": str}
_near_miss_parts = st.one_of(
    st.fixed_dictionaries({"num": st.sampled_from([1, True, 1.0, None, "1"]), "den": _digits}),
    st.fixed_dictionaries({"num": _digits, "dem": _digits}),
    st.fixed_dictionaries({"num": _digits}),
    st.fixed_dictionaries({"num": _digits, "den": _digits, "x": _digits}),
    _scalars, st.lists(_digits, max_size=2),
)
_near_miss_cells = st.one_of(
    st.fixed_dictionaries({"re": _near_miss_parts, "im": _part}),
    st.fixed_dictionaries({"re": _part, "im": _near_miss_parts}),
    st.builds(lambda c, k, v: {**c, k: v}, _cell, st.sampled_from(["x", "num"]), _scalars),
    st.fixed_dictionaries({"re": _part}),
    st.fixed_dictionaries({"re": _part, "img": _part}),
)
_trees = st.recursive(
    _scalars | _cell | _near_miss_cells,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(st.text(max_size=4), children, max_size=5)),
    max_leaves=30)


def _with_shared(objs):
    """Trees whose leaves may be the given dict objects themselves, so that
    one object recurs at several depths."""
    return st.recursive(
        _scalars | st.sampled_from(objs),
        lambda children: (st.lists(children, max_size=5)
                          | st.dictionaries(st.text(max_size=4), children, max_size=5)),
        max_leaves=30)


# one cell object and one near-miss object, each placed anywhere in the tree
_shared_trees = st.tuples(_cell, _near_miss_cells).flatmap(_with_shared)


@settings(max_examples=300, deadline=None)
@given(_trees | _shared_trees)
def test_dumps_writes_the_stdlib_indent_bytes(payload):
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_dumps_caches_only_true_cells():
    # each near miss shares its strings with ``cell``, so a cache keyed too
    # loosely would hand it the cell's text
    one = {"num": "0", "den": "1"}
    cell = {"re": {"num": "1", "den": "2"}, "im": one}
    payload = [cell, [cell], {"a": [[cell]]},
               {"re": {"num": "1", "den": "2", "x": "3"}, "im": one},
               {"re": {"num": "1", "dem": "2"}, "im": one},
               {"re": {"num": "1", "dem": "3"}, "im": one},
               {"re": {"num": 1, "den": "2"}, "im": one},
               {"re": {"num": True, "den": "2"}, "im": one},
               {"re": {"num": 1.0, "den": "2"}, "im": one},
               {**cell, "x": 0}, {"re": cell["re"], "img": one}]
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_dumps_reuses_an_object_at_several_depths():
    one = {"num": "0", "den": "1"}
    cell = {"re": {"num": "1", "den": "2"}, "im": one}
    near = {"re": cell["re"], "img": one}
    payload = {"a": [cell, near, [cell, [near, cell]]], "b": {"c": cell, "d": near},
               "e": [[[[cell]]]], "re": cell["re"], "im": one}
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_rows_of_rendered_cells_take_no_call_per_cell(monkeypatch):
    one = {"num": "0", "den": "1"}
    cell = {"re": {"num": "1", "den": "2"}, "im": one}
    other = {"re": one, "im": one}
    row = [cell, other, cell]
    payload = {"entries": [row, list(row), list(row), [cell, [cell]], [cell, 1]]}
    calls = []
    orig = serialize._write

    def counted(obj, *args):
        calls.append(obj)
        return orig(obj, *args)

    monkeypatch.setattr(serialize, "_write", counted)
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
    # the first row renders cell and other and reuses cell's text; the next
    # two rows are written whole; a row holding a list or a scalar is not a
    # row of cells, and [cell] one level deeper renders cell at that depth
    assert sum(obj is cell or obj is other for obj in calls) == 3 + 0 + 0 + 2 + 1


def test_dumps_does_not_use_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python indent encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    payload = hnk_to_json(build_hnk(4, 2))
    assert json.loads(dumps(payload)) == payload


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, [{"re": 1, 2: 3}]])
def test_dumps_rejects_non_str_keys(payload):
    with pytest.raises(TypeError, match="keys must be str"):
        dumps(payload)
