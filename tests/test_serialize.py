"""Lossless JSON round-trips and rendering formats."""

import json
from enum import IntEnum
from fractions import Fraction

import numpy as np
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
                              matrices_to_json, matrix_from_json,
                              matrix_to_csv_lines, scalar_from_json)


def _json_cell(s):
    """The JSON cell of the 1x1 matrix [s]."""
    ((cell,),) = matrices_to_json([ExactMatrix(1, 1, [s])])[0]["entries"]
    return cell


def test_scalar_roundtrip():
    s = ExactScalar(Fraction(-7, 3), Fraction(22, 5))
    assert scalar_from_json(_json_cell(s)) == s
    assert _json_cell(ExactScalar(2))["re"] == {"num": "2", "den": "1"}


def test_matrix_roundtrip():
    m = ExactMatrix.from_rows([
        [ExactScalar(Fraction(1, 2), -1), ExactScalar(0)],
        [ExactScalar(3), ExactScalar(0, Fraction(2, 7))]])
    assert matrix_from_json(matrices_to_json([m])[0]) == m
    # survives a JSON text round trip too
    assert matrix_from_json(json.loads(dumps(matrices_to_json([m])[0]))) == m


def test_matrix_equal_cells_are_one_object():
    half = ExactScalar(Fraction(1, 2), -1)
    m = ExactMatrix.from_rows([[half, 0, half], [0, ExactScalar(0, 3), half]])
    d = matrices_to_json([m])[0]
    (a, b, c), (e, f, g) = d["entries"]
    assert a is c is g and b is e
    assert len({id(x) for x in (a, b, c, e, f, g)}) == 3
    assert a == {"re": {"num": "1", "den": "2"}, "im": {"num": "-1", "den": "1"}}
    assert matrix_from_json(d) == m
    assert matrix_from_json(json.loads(dumps(d))) == m


def test_equal_rows_of_all_matrices_are_one_list():
    half = ExactScalar(Fraction(1, 2))
    a = ExactMatrix.from_rows([[half, 0], [0, 1], [half, 0]])
    b = ExactMatrix.from_rows([[0, 1], [half, 0]])
    da, db = matrices_to_json([a, b])
    assert da["entries"][0] is da["entries"][2] is db["entries"][1]
    assert da["entries"][1] is db["entries"][0]
    assert da["entries"][0] is not da["entries"][1]
    assert [matrix_from_json(json.loads(dumps(d))) for d in (da, db)] == [a, b]


def test_big_numerator_rows_are_shared_by_value():
    # numerators beyond 2^62 live in object arrays, whose bytes are pointers:
    # equal rows of distinct int objects must still be one list
    big = 2 ** 70 + 1
    m = ExactMatrix.from_rows([[big, 0], [int(str(big)), 0], [0, ExactScalar(0, big)]])
    assert m.re.dtype == object
    d = matrices_to_json([m])[0]
    assert d["entries"][0] is d["entries"][1]
    assert d["entries"][2] is not d["entries"][0]
    assert dumps(d) == json.dumps(d, indent=2, sort_keys=True)
    assert matrix_from_json(json.loads(dumps(d))) == m


def test_equal_numerators_over_other_denominators_keep_their_cells():
    a = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 2)]])
    b = ExactMatrix.from_rows([[Fraction(1, 3), Fraction(-1, 3)]])
    assert a.re.tolist() == b.re.tolist() and a.den != b.den
    payload = {"elements": matrices_to_json([a, b])}
    (ra,), (rb,) = (e["entries"] for e in payload["elements"])
    assert ra is not rb
    assert [c["re"]["den"] for c in ra + rb] == ["2", "2", "3", "3"]
    text = dumps(payload)
    assert text == json.dumps(payload, indent=2, sort_keys=True)
    assert [matrix_from_json(e) for e in json.loads(text)["elements"]] == [a, b]


def test_rows_keyed_on_numerator_bytes_in_a_mixed_payload():
    # int64 rows are keyed on the bytes of their numerators, Python-int rows
    # on their values; one payload of real int64, complex int64 and
    # Python-int matrices
    half, big = Fraction(1, 2), 2 ** 62 + 3
    real = ExactMatrix.from_rows([[1, -2, 0], [0, 0, 5], [1, -2, 0]])
    again = ExactMatrix.from_rows([[0, 0, 5], [7, 7, 7]])
    halves = ExactMatrix.from_rows([[half, -1, 0], [0, 0, Fraction(5, 2)]])
    cplx = ExactMatrix.from_rows([[1, ExactScalar(-2, 3), 0], [0, 0, 5]])
    cplx_again = ExactMatrix.from_rows([[0, 1, 0], [1, ExactScalar(-2, 3), 0]])
    wide = ExactMatrix.from_rows([[1, 2, 3, 4]])  # the bytes of 1, 2 then 3, 4
    pair = ExactMatrix.from_rows([[ExactScalar(1, 3), ExactScalar(2, 4)]])
    huge = ExactMatrix.from_rows([[big, 0, 0], [0, 0, 5], [big, 0, 0]])
    mats = [real, again, halves, cplx, cplx_again, wide, pair, huge]
    assert [m.re.dtype for m in mats].count(np.dtype(object)) == 1
    assert wide.re.tobytes() == pair.re.tobytes() + pair.im.tobytes()
    assert halves.den == 2 and halves.re.tolist() == [[1, -2, 0], [0, 0, 5]]
    payload = {"elements": matrices_to_json(mats)}
    r, a, h, c, ca, w, pr, g = (e["entries"] for e in payload["elements"])
    # equal int64 rows of all the matrices are one list
    assert r[0] is r[2] and r[1] is a[0] and c[0] is ca[1]
    # and Python-int rows equal by value are one list among themselves
    assert g[0] is g[2]
    # numerator bytes over another denominator, or as re and im parts
    # rather than one wider real row, are another row
    assert h[0] is not r[0] and h[1] is not r[1]
    assert c[0] is not r[0] and w[0] is not pr[0]
    text = dumps(payload)
    assert text == json.dumps(payload, indent=2, sort_keys=True)
    assert [matrix_from_json(e) for e in json.loads(text)["elements"]] == mats


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
    """Trees whose leaves may be the given objects themselves, so that one
    object recurs at several depths."""
    return st.recursive(
        _scalars | st.sampled_from(objs),
        lambda children: (st.lists(children, max_size=5)
                          | st.dictionaries(st.text(max_size=4), children, max_size=5)),
        max_leaves=30)


def _shared_objects(cell, near, cells, ints):
    # a row of cells holding the shared cell, a list of ints, and a list of
    # the cell and the near miss, which is not a row of cells
    return [cell, near, [cell, *cells], ints, [cell, near]]


# each shared object placed anywhere in the tree
_shared_trees = st.builds(
    _shared_objects, _cell, _near_miss_cells, st.lists(_cell, max_size=3),
    st.lists(st.integers(), min_size=1, max_size=3)).flatmap(_with_shared)


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


def test_a_shared_row_is_laid_out_once_per_depth(monkeypatch):
    class Row(list):
        iterations = 0

        def __iter__(self):
            Row.iterations += 1
            return super().__iter__()

    one = {"num": "0", "den": "1"}
    cell = {"re": {"num": "1", "den": "2"}, "im": one}
    other = {"re": one, "im": one}
    row = Row([cell, other, cell])
    # laid out from the texts of cells that row rendered before it
    twin = Row([other, cell])
    calls = []
    orig = serialize._write

    def counted(obj, *args):
        calls.append(obj)
        return orig(obj, *args)

    monkeypatch.setattr(serialize, "_write", counted)

    def layouts(payload):
        want = json.dumps(payload, indent=2, sort_keys=True)
        calls.clear()
        Row.iterations = 0
        assert dumps(payload) == want
        return (Row.iterations, sum(obj is cell or obj is other for obj in calls),
                sum(obj is row or obj is twin for obj in calls))

    # the rows at depths 2 and 3, first once each, then recurring at both
    once = layouts({"a": [row, twin], "b": [[row, twin]]})
    again = layouts({"a": [row, twin, row, twin, row], "b": [[row, twin, twin], [row]],
                     "c": [[twin, row]], "d": [twin]})
    # recurrences neither iterate a row nor write its cells: one call each
    assert again[:2] == once[:2] and once[0] > 0
    assert (once[2], again[2]) == (4, 12)


class _Small(IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [
    True, False, _Small.ONE, 2 ** 64, -(2 ** 64) - 1, 3 ** 200, 0, -1,
    "\u00e9t\u00e9 \u2200x \U0001d400", "tab\tnew\nline\x00\x1f\x7f", "\"\\/", "",
], ids=repr)
def test_scalar_fast_path_writes_the_stdlib_bytes(value):
    payload = {"v": value, "list": [value, [value]], "row": [1, value, "x"]}
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("ints", [
    [1], [-3, 0, 7], [2 ** 63, -(2 ** 63) - 1, 3 ** 200], (4, -5),
    [1, True], [False, 0], [True], [1, _Small.ONE, 2], [1, 2.0], [1, None], [1, [2]],
], ids=repr)
def test_int_lists_write_the_stdlib_bytes(monkeypatch, ints):
    payload = {"a": ints, "b": [ints, [ints]], "c": {"d": ints}}
    calls = []
    orig = serialize._write

    def counted(obj, *args):
        calls.append(obj)
        return orig(obj, *args)

    monkeypatch.setattr(serialize, "_write", counted)
    assert dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)
    # a list of exact ints is one piece: no call per item
    exact = all(type(x) is int for x in ints)
    assert any(obj is ints[0] for obj in calls) != exact


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
