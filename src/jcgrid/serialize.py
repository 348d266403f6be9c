"""Lossless JSON, float CSV and aligned pretty rendering for exact objects.

JSON carries Gaussian rationals as integer strings
``{"re": {"num": "...", "den": "..."}, "im": {...}}`` so construct/parse
round-trips are exact; CSV emits floats only (17 significant digits, each
complex entry as a re,im pair).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import List

import numpy as np

from .grids import Grid
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


def matrix_to_json(m: ExactMatrix) -> dict:
    den = m.den
    memo = {}

    def cell(re, im):
        # the strings of a repeated value are built once; each cell gets its own dict
        parts = memo.get((re, im))
        if parts is None:
            parts = memo[(re, im)] = (_part_json(re, den), _part_json(im, den))
        return {"re": dict(parts[0]), "im": dict(parts[1])}

    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [list(map(cell, r, i)) for r, i in zip(m.re.tolist(), m.im.tolist())],
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
    from .grids import Grid as _Grid
    labels = d["labels"]
    mats = [matrix_from_json(e) for e in d["elements"]]
    idxs = _labels_to_indices(d["kind"], labels)
    return _Grid(d["kind"], d["params"], list(zip(idxs, mats)))


def _labels_to_indices(kind: str, labels: List[str]) -> list:
    out = []
    for lab in labels:
        if kind == "spin":
            if lab == "u_0":
                out.append(("u0", 0))
            elif lab.startswith("u~_"):
                out.append(("ut", int(lab[3:])))
            else:
                out.append(("u", int(lab[2:])))
        elif kind == "rank1":
            out.append(int(lab[2:]))
        else:
            out.append(tuple(int(t) for t in lab[2:].split("_")))
    return out


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
    return json.dumps(payload, indent=2, sort_keys=True)
