"""Lossless JSON, float CSV and aligned pretty rendering for exact objects.

JSON carries Gaussian rationals as integer strings
``{"re": {"num": "...", "den": "..."}, "im": {...}}`` so construct/parse
round-trips are exact; CSV emits floats only (17 significant digits, each
complex entry as a re,im pair).  ``matrix_to_json`` gives equal entries of a
matrix one shared cell dict, so payloads are read-only: mutating a cell
changes every entry of that value.  ``dumps`` writes the bytes of
``json.dumps(payload, indent=2, sort_keys=True)`` without the standard
library's pure-Python indent encoder: each cell object is rendered once per
indent depth and its text reused, and a row of cells rendered before is
written as one reference per cell.  Payload keys must be ``str``.
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
from .numlin import ExactMatrix, ExactScalar


def scalar_to_json(s: ExactScalar) -> dict:
    re, im = Fraction(s.re), Fraction(s.im)
    return {
        "re": {"num": str(re.numerator), "den": str(re.denominator)},
        "im": {"num": str(im.numerator), "den": str(im.denominator)},
    }


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


def matrix_to_json(m: ExactMatrix) -> dict:
    """The matrix as JSON data; equal entries are one shared cell dict."""
    cell = _Cells(m.den).__getitem__
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [list(map(cell, zip(r, i))) for r, i in zip(m.re.tolist(), m.im.tolist())],
    }


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
        "elements": [matrix_to_json(g.matrix(i)) for i in g.indices],
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
        "basis": [matrix_to_json(b) for b in space.basis],
    }


def hnk_basis_from_json(d: dict) -> List[ExactMatrix]:
    return [matrix_from_json(b) for b in d["basis"]]


def spin_system_to_json(k: int, mats: List[ExactMatrix]) -> dict:
    return {"kind": "spin-system", "k": k,
            "elements": [matrix_to_json(m) for m in mats]}


def dumps(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, byte for
    byte, written without the standard library's pure-Python indent encoder.

    Dicts (keys sorted) and lists are laid out here; keys and every scalar or
    empty container go through ``json``'s own encoders, so strings, floats
    (``NaN``, ``Infinity``), bools and ``None`` read as they always have.  A
    matrix cell, a dict whose only keys are ``"re"`` and ``"im"``, each a
    ``{"num": str, "den": str}`` dict, is rendered once per object and indent
    depth, and that text is reused wherever the same object recurs at that
    depth; a list whose items all are such cells is written from their texts,
    kept with the separator and indent before them, without a call per cell.
    Keys must be ``str``: any other key raises ``TypeError``.
    """
    out: List[str] = []
    _write(payload, 0, out, {}, {})
    return "".join(out)


def _write(obj, level: int, out: List[str], texts: dict, items: dict) -> None:
    # Both caches are keyed by (id, level): the payload holds every object it
    # contains for the whole call, so no id is reused while they remember it.
    # ``texts`` maps a dict to its cell text, or to None when it is not a
    # cell; ``items`` maps a cell to its text after "," and its line's indent.
    if isinstance(obj, dict) and obj:
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
        try:
            # a row of cells rendered before at this depth: one reference each
            row = [items[id(item), level + 1] for item in obj]
        except KeyError:
            inner = "\n" + "  " * (level + 1)
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                _write(item, level + 1, out, texts, items)
                sep = "," + inner
        else:
            row[0] = "[" + row[0][1:]
            out += row
        out.append("\n" + "  " * level + "]")
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
