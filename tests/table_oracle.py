"""References for the exhaustive triple table of ``verify_grid``, for
``classify_relation`` and for the pair check of ``RankOneRealization``:
every verdict recomputed one triple, or one pair, at a time on Fraction
entries, with no code of the exact kernels.

The products come from ``test_numlin.ref_ternary``, which multiplies the
entries as Gaussian rationals one at a time.  The want of a triple is read
off the same products on the kind's canonical model (a rank-1 grid is the
rectangular grid of one row) or, for a spin grid, from the dict rule
``spin_triple``.  The library builds the input matrices and the canonical
models and nothing else; ``tests/test_source.py`` holds this module to that.
"""

from fractions import Fraction

from jcgrid.grids import hermitian_grid, rectangular_grid, symplectic_grid
from test_numlin import as_rows, ref_product, ref_ternary


def spin_partner(key):
    return ("ut" if key[0] == "u" else "u", key[1])


def spin_triple(a, b, c):
    """Complete triple-product table of the spin grid (derived in the Pauli
    model; symmetric in the outer arguments)."""
    def is0(k):
        return k[0] == "u0"

    if a == b == c:
        return {a: Fraction(1)}
    if not is0(b) and (spin_partner(b) == a or spin_partner(b) == c):
        return {}
    if a == b:
        if is0(a):
            return {c: Fraction(1)}
        if is0(c) or c[1] != a[1]:
            return {c: Fraction(1, 2)}
        return {}
    if b == c:
        if is0(b):
            return {a: Fraction(1)}
        if is0(a) or a[1] != b[1]:
            return {a: Fraction(1, 2)}
        return {}
    if a == c:
        if is0(a) and not is0(b):
            return {spin_partner(b): Fraction(-1)}
        return {}
    if not is0(a) and not is0(c) and spin_partner(a) == c:
        if is0(b):
            return {b: Fraction(-1, 2)}
        if b[1] != a[1]:
            return {spin_partner(b): Fraction(-1, 2)}
    return {}


def _flat(rows) -> list:
    """Rows of Gaussian rationals as one row-major list of (re, im) Fractions."""
    return [(Fraction(s.re), Fraction(s.im)) for row in rows for s in row]


def twice_triple(a, b, c) -> list:
    """2 {a, b, c} = a b* c + c b* a, as a row-major list of (re, im)
    Fractions."""
    return [(p[0] + q[0], p[1] + q[1])
            for p, q in zip(_flat(ref_ternary(a, b, c)), _flat(ref_ternary(c, b, a)))]


def _combination(coefs: dict, entries: list, size: int) -> list:
    """sum_k coefs[k] entries[k], the coefficients real."""
    out = [(Fraction(0), Fraction(0))] * size
    for k, c in coefs.items():
        out = [(o[0] + c * e[0], o[1] + c * e[1]) for o, e in zip(out, entries[k])]
    return out


def _model_rule(grid):
    """want(x, y, z): the coefficients {position: c} of 2 {u_x, u_y, u_z},
    read off the canonical model's product: entry (i, j) of a model product
    is the coefficient of the element indexed (i, j).  Each read-off is
    checked by rebuilding the model product from it."""
    params = grid.params
    if grid.kind == "rank1":
        model, keys = rectangular_grid(1, params["n"]), [(1, a) for a in grid.indices]
    else:
        model = {"rectangular": lambda: rectangular_grid(params["p"], params["q"]),
                 "hermitian": lambda: hermitian_grid(params["m"]),
                 "symplectic": lambda: symplectic_grid(params["m"])}[grid.kind]()
        keys = list(grid.indices)
    mats = [model.matrix(k) for k in keys]
    rows, cols = mats[0].shape
    entries = [_flat([m.entries]) for m in mats]  # each matrix's entries read once

    def want(x, y, z):
        product = twice_triple(mats[x], mats[y], mats[z])
        coefs = {k: product[(i - 1) * cols + j - 1][0] for k, (i, j) in enumerate(keys)}
        coefs = {k: c for k, c in coefs.items() if c}
        assert _combination(coefs, entries, rows * cols) == product
        return coefs

    return want


def _spin_rule(grid):
    idxs = list(grid.indices)
    return lambda x, y, z: {idxs.index(k): 2 * v
                            for k, v in spin_triple(idxs[x], idxs[y], idxs[z]).items()}


def table_verdicts(grid) -> list:
    """Whether 2 {u_x, u_y, u_z} is its want, for every triple x <= z of
    ``grid`` in loop order, one triple at a time."""
    n, mats = len(grid), grid.matrices()
    rows, cols = mats[0].shape
    entries = [_flat([m.entries]) for m in mats]  # each matrix's entries read once
    want = _spin_rule(grid) if grid.kind == "spin" else _model_rule(grid)
    return [twice_triple(mats[x], mats[y], mats[z])
            == _combination(want(x, y, z), entries, rows * cols)
            for x in range(n) for y in range(n) for z in range(x, n)]


def wants_nonzero(grid, x, y, z) -> bool:
    """Whether the want of the triple (x, y, z) is not zero."""
    want = _spin_rule(grid) if grid.kind == "spin" else _model_rule(grid)
    return bool(want(x, y, z))


def zero_by_supports(a, b, c) -> bool:
    """Whether a b* c and c b* a both vanish because the nonzero columns of
    their first two factors or the nonzero rows of their last two do not
    meet, read off the entries."""
    def lines(m):
        entries = m.entries
        nonzero = [(r, k) for r in range(m.rows) for k in range(m.cols)
                   if entries[r * m.cols + k]]
        return {r for r, _ in nonzero}, {k for _, k in nonzero}

    (ra, ca), (rb, cb), (rc, cc) = lines(a), lines(b), lines(c)
    return (not ca & cb or not rb & rc) and (not cc & cb or not rb & ra)


def pairwise_verdict(mats):
    """The check of ``RankOneRealization`` as it ran before it read
    minimality off colinearity: per ordered pair in loop order, a b* a = 0,
    then {a,a,b} = b/2.  None, or the message of the first failure."""
    rows = [as_rows(m) for m in mats]
    for a, va in enumerate(mats):
        for b, vb in enumerate(mats):
            if a == b:
                continue
            if any(x for row in ref_ternary(va, vb, va) for x in row):
                return f"element {a + 1} is not minimal against {b + 1}"
            twice = [[x + y for x, y in zip(r1, r2)]  # 2{a,a,b} = b
                     for r1, r2 in zip(ref_ternary(va, va, vb), ref_ternary(vb, va, va))]
            if twice != rows[b]:
                return f"elements {a + 1}, {b + 1} are not colinear"
    return None


def classify_by_triple_products(v, w) -> str:
    """The value of the grid relation of the matrices v and w, read off
    2 {w,w,v} and 2 {v,v,w} on Fraction entries, one pair at a time: a
    reference for ``classify_relation``."""
    ev, ew = _flat([v.entries]), _flat([w.entries])
    if ev == ew:
        return "equal"
    if not any(x for p in (ref_product(v.adjoint(), w), ref_product(v, w.adjoint()))
               for row in p for x in row):
        return "orthogonal"
    wwv, vvw = twice_triple(w, w, v), twice_triple(v, v, w)
    if wwv == ev and vvw == ew:
        return "colinear"
    if vvw == [(2 * re, 2 * im) for re, im in ew] and wwv == ev:
        return "governs-first-over-second"
    if wwv == [(2 * re, 2 * im) for re, im in ev] and vvw == ew:
        return "governs-second-over-first"
    return "unclassified"
