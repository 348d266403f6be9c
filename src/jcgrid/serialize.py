"""Lossless JSON, float CSV and aligned pretty rendering for exact objects.

JSON carries Gaussian rationals as integer strings
``{"re": {"num": "...", "den": "..."}, "im": {...}}`` so construct/parse
round-trips are exact; CSV emits floats only (17 significant digits, each
complex entry as a re,im pair).  ``matrices_to_json`` gives equal entries
over one denominator one shared cell dict and equal rows of all its matrices
one shared list, so payloads are read-only: mutating a cell or a row changes
every entry or row of that value.  An int64 row is found by the bytes of its
numerators and converted to Python ints only the first time it is seen.
``dumps`` writes the bytes of ``json.dumps(payload, indent=2,
sort_keys=True)`` without the standard library's pure-Python indent encoder:
each cell object and each row of cells is laid out once per indent depth and
its text reused.  Payload keys must be ``str``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List

import numpy as np

from .grids import Grid, labels_to_indices
from .hnk import HnkSpace
from .numlin import ExactMatrix, ExactScalar, _is_zero_im


def scalar_from_json(d: dict) -> ExactScalar:
    return ExactScalar(
        Fraction(int(d["re"]["num"]), int(d["re"]["den"])),
        Fraction(int(d["im"]["num"]), int(d["im"]["den"])),
    )


def _part_json(num: int, den: int) -> dict:
    g = math.gcd(num, den)
    return {"num": str(num // g), "den": str(den // g)}


class _Cells(dict):
    """(re, im) numerators -> the one cell dict of that value over ``den``."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, key):
        re, im = key
        cell = self[key] = {"re": _part_json(re, self.den), "im": _part_json(im, self.den)}
        return cell


def _row_keys(a: np.ndarray) -> list:
    """Each row of a 2-d numerator array as a key of its values: the bytes
    of an int64 row, the tuple of a row of Python ints (whose bytes are
    pointers)."""
    if a.dtype == object:
        return list(map(tuple, a.tolist()))
    a = np.ascontiguousarray(a)
    return a.view(f"V{a.shape[1] * a.itemsize}").ravel().tolist()  # one void item per row


def matrices_to_json(mats: List[ExactMatrix]) -> List[dict]:
    """The matrices as JSON data.  Equal entries over one denominator are one
    shared cell dict, and equal rows of all the matrices are one shared list,
    so the result is read-only.  A row is keyed on the denominator, its
    ``re`` numerators and its ``im`` numerators (None for a real int64
    matrix), as bytes on int64 (``_row_keys``), and only a row not seen
    before is converted to Python ints."""
    cells: dict = {}
    rows: dict = {}
    out = []
    for m in mats:
        den = m.den
        cell = cells.get(den)
        if cell is None:
            cell = cells[den] = _Cells(den)
        ims = [None] * m.rows if _is_zero_im(m.im) else _row_keys(m.im)
        entries = []
        for r, key in enumerate(zip([den] * m.rows, _row_keys(m.re), ims)):
            row = rows.get(key)
            if row is None:
                row = rows[key] = list(map(cell.__getitem__,
                                           zip(m.re[r].tolist(), m.im[r].tolist())))
            entries.append(row)
        out.append({"rows": m.rows, "cols": m.cols, "entries": entries})
    return out


def matrix_from_json(d: dict) -> ExactMatrix:
    entries = [scalar_from_json(e) for row in d["entries"] for e in row]
    return ExactMatrix(d["rows"], d["cols"], entries)


def matrix_to_csv_lines(m: ExactMatrix) -> List[str]:
    # a complex128 row viewed as float64 is its re,im pairs in order
    pairs = m.to_approx().array.view(np.float64).tolist()
    return [",".join(f"{x:.17g}" for x in row) for row in pairs]


def matrix_pretty(m: ExactMatrix) -> str:
    return str(m)


def grid_to_json(g: Grid) -> dict:
    return {
        "kind": g.kind,
        "params": g.params,
        "labels": [g.label(i) for i in g.indices],
        "elements": matrices_to_json([g.matrix(i) for i in g.indices]),
    }


def grid_from_json(d: dict) -> Grid:
    mats = [matrix_from_json(e) for e in d["elements"]]
    idxs = labels_to_indices(d["kind"], d["labels"])
    return Grid(d["kind"], d["params"], list(zip(idxs, mats)))


def hnk_to_json(space: HnkSpace) -> dict:
    return {
        "kind": "hnk",
        "n": space.n,
        "k": space.k,
        "multiplicity": space.multiplicity,
        "rows_indexed_by": [list(c.members) for c in space.row_combs],
        "cols_indexed_by": [list(c.members) for c in space.col_combs],
        "basis": matrices_to_json(space.basis),
    }


def hnk_basis_from_json(d: dict) -> List[ExactMatrix]:
    return [matrix_from_json(b) for b in d["basis"]]


def spin_system_to_json(k: int, mats: List[ExactMatrix]) -> dict:
    return {"kind": "spin-system", "k": k,
            "elements": matrices_to_json(mats)}


def dumps(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, byte for
    byte, written without the standard library's pure-Python indent encoder.

    Dicts (keys sorted) and lists are laid out here; a plain ``int`` or
    ``str`` is written as ``json`` writes it, a non-empty list of plain
    ``int`` (an index list) as one piece, and keys, every other scalar and
    every empty container go through ``json``'s own encoders, so floats
    (``NaN``, ``Infinity``), bools and ``None`` read as they always have.  A
    matrix cell, a dict whose only keys are ``"re"`` and ``"im"``, each a
    ``{"num": str, "den": str}`` dict, is rendered once per object and indent
    depth, and a row, a list whose items all are cells, is laid out once per
    object and depth; wherever the same object recurs at that depth, its
    text is written whole.  A new row of cells rendered before is written
    from their texts, kept with the separator and indent before them,
    without a call per cell.  Like the payload builders' shared cells and
    rows, the payload is read-only while it is written, and keys must be
    ``str``: any other key raises ``TypeError``.
    """
    out: List[str] = []
    _write(payload, 0, out, {}, {})
    return "".join(out)


def _write(obj, level: int, out: List[str], texts: dict, items: dict) -> None:
    # Both caches are keyed by (id, level): the payload holds every object it
    # contains for the whole call, so no id is reused while they remember it.
    # ``texts`` maps a dict to its cell text, or to None when it is not a
    # cell, and a row of cells to the pieces of its text; ``items`` maps a
    # cell to its text after "," and its line's indent.
    if type(obj) is str:
        out.append(encode_basestring_ascii(obj))
    elif type(obj) is int:
        out.append(repr(obj))
    elif isinstance(obj, dict) and obj:
        key = (id(obj), level)
        if key not in texts:
            texts[key] = None
            if _is_cell(obj):
                parts: List[str] = []
                _write_dict(obj, level, parts, texts, items)
                texts[key] = text = "".join(parts)
                items[key] = ",\n" + "  " * level + text
        text = texts[key]
        if text is None:
            _write_dict(obj, level, out, texts, items)
        else:
            out.append(text)
    elif isinstance(obj, (list, tuple)) and obj:
        if type(obj[0]) is int and all(type(item) is int for item in obj):
            # an index list: written as one piece
            inner = "\n" + "  " * (level + 1)
            out.append("[" + inner + ("," + inner).join(map(repr, obj))
                       + "\n" + "  " * level + "]")
            return
        key = (id(obj), level)
        pieces = texts.get(key)
        if pieces is not None:
            # a row of cells laid out before at this depth: written whole
            out += pieces
            return
        close = "\n" + "  " * level + "]"
        sub = level + 1
        row = []
        for item in obj:
            text = items.get((id(item), sub))
            if text is None:
                break
            row.append(text)
        else:
            # cells rendered before at this depth: no call per cell
            row[0] = "[" + row[0][1:]
            row.append(close)
            texts[key] = row
            out += row
            return
        start = len(out)
        inner = "\n" + "  " * sub
        sep = "[" + inner
        cells = True
        for item in obj:
            out.append(sep)
            _write(item, sub, out, texts, items)
            if cells:
                cells = (id(item), sub) in items
            sep = "," + inner
        out.append(close)
        if cells:
            texts[key] = out[start:]
    else:
        out.append(json.dumps(obj))


def _write_dict(d: dict, level: int, out: List[str], texts: dict, items: dict) -> None:
    for key in d:
        if not isinstance(key, str):
            raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
    inner = "\n" + "  " * (level + 1)
    sep = "{" + inner
    for key in sorted(d):
        out.append(sep + encode_basestring_ascii(key) + ": ")
        _write(d[key], level + 1, out, texts, items)
        sep = "," + inner
    out.append("\n" + "  " * level + "}")


def _is_cell(d: dict) -> bool:
    """Whether ``d`` is a matrix cell: {"re": part, "im": part}, each part
    exactly {"num": str, "den": str}."""
    if len(d) != 2:
        return False
    re, im = d.get("re"), d.get("im")
    if type(re) is not dict or type(im) is not dict or len(re) != 2 or len(im) != 2:
        return False
    return all(type(p.get(k)) is str for p in (re, im) for k in ("num", "den"))
