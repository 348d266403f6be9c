"""References for the exhaustive triple table of ``verify_grid``, for
``classify_relation`` and for the pair check of ``RankOneRealization``:
every verdict recomputed one triple, or one pair, at a time on rational
entries, with no code of the exact kernels.

Each matrix's entries are read once per oracle call, as rows of (re, im)
pairs of Python rationals (``test_numlin.fraction_rows``), and the products
come from ``test_numlin.fraction_product``, which multiplies those lists as
Gaussian rationals one term at a time.  The want of a triple is read off the
same products on the kind's canonical model (a rank-1 grid is the
rectangular grid of one row) or, for a spin grid, from the dict rule
``spin_triple``.  The library builds the input matrices and the canonical
models and nothing else; ``tests/test_source.py`` holds this module, and the
``test_numlin`` helpers it calls, to that.
"""

from fractions import Fraction

from jcgrid.grids import hermitian_grid, rectangular_grid, symplectic_grid
from test_numlin import fraction_adjoint, fraction_product, fraction_rows, fraction_ternary


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


def twice_triple(a, b, c) -> list:
    """2 {a, b, c} = a b* c + c b* a on rows of (re, im) pairs."""
    return [[(p[0] + q[0], p[1] + q[1]) for p, q in zip(r1, r2)]
            for r1, r2 in zip(fraction_ternary(a, b, c), fraction_ternary(c, b, a))]


def _twice(x) -> list:
    return [[(2 * re, 2 * im) for re, im in row] for row in x]


def _combination(coefs: dict, mats: list) -> list:
    """sum_k coefs[k] mats[k] on rows of (re, im) pairs, the coefficients
    real; mats[0] gives the shape."""
    out = [[(0, 0)] * len(row) for row in mats[0]]
    for k, c in coefs.items():
        out = [[(o[0] + c * e[0], o[1] + c * e[1]) for o, e in zip(r, s)]
               for r, s in zip(out, mats[k])]
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
    mats = [fraction_rows(model.matrix(k)) for k in keys]  # each matrix's entries read once

    def want(x, y, z):
        product = twice_triple(mats[x], mats[y], mats[z])
        coefs = {k: product[i - 1][j - 1][0] for k, (i, j) in enumerate(keys)}
        coefs = {k: c for k, c in coefs.items() if c}
        assert _combination(coefs, mats) == product
        return coefs

    return want


def _spin_rule(grid):
    idxs = list(grid.indices)
    return lambda x, y, z: {idxs.index(k): 2 * v
                            for k, v in spin_triple(idxs[x], idxs[y], idxs[z]).items()}


def table_verdicts(grid) -> list:
    """Whether 2 {u_x, u_y, u_z} is its want, for every triple x <= z of
    ``grid`` in loop order, one triple at a time."""
    n = len(grid)
    mats = [fraction_rows(m) for m in grid.matrices()]  # each matrix's entries read once
    want = _spin_rule(grid) if grid.kind == "spin" else _model_rule(grid)
    return [twice_triple(mats[x], mats[y], mats[z]) == _combination(want(x, y, z), mats)
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
    rows = [fraction_rows(m) for m in mats]
    for a, va in enumerate(rows):
        for b, vb in enumerate(rows):
            if a == b:
                continue
            if any(re or im for row in fraction_ternary(va, vb, va) for re, im in row):
                return f"element {a + 1} is not minimal against {b + 1}"
            if twice_triple(va, va, vb) != vb:  # 2{a,a,b} = b
                return f"elements {a + 1}, {b + 1} are not colinear"
    return None


def _plus(x, y) -> list:
    return [[(p[0] + q[0], p[1] + q[1]) for p, q in zip(r1, r2)] for r1, r2 in zip(x, y)]


def _is_zero(x) -> bool:
    return not any(re or im for row in x for re, im in row)


def _relation_of(ev, ew, wwv, vvw) -> str:
    """The relation of v to w, not equal and not orthogonal, from
    2 {w,w,v} and 2 {v,v,w}."""
    if wwv == ev and vvw == ew:
        return "colinear"
    if vvw == _twice(ew) and wwv == ev:
        return "governs-first-over-second"
    if wwv == _twice(ev) and vvw == ew:
        return "governs-second-over-first"
    return "unclassified"


def classify_by_triple_products(mats) -> list:
    """table[a][b]: the value of the grid relation of the matrices mats[a]
    and mats[b], read off 2 {w,w,v} and 2 {v,v,w} on their rational
    entries, one unordered pair at a time: a reference for
    ``classify_relation``.  Each matrix's rows, adjoint and v v* are formed
    once per call, and each pair's v w* once: w v* is its adjoint, and both
    halves serve both orders of the pair."""
    rows = [fraction_rows(m) for m in mats]  # each matrix's entries read once
    adj = [fraction_adjoint(x) for x in rows]
    gram = [fraction_product(x, y) for x, y in zip(rows, adj)]
    table = [[None] * len(mats) for _ in mats]
    for a, ev in enumerate(rows):
        for b in range(a, len(rows)):
            ew = rows[b]
            if ev == ew:
                table[a][b] = table[b][a] = "equal"
                continue
            vw = fraction_product(ev, adj[b])  # v w*
            if _is_zero(vw) and _is_zero(fraction_product(adj[a], ew)):
                table[a][b] = table[b][a] = "orthogonal"
                continue
            wwv = _plus(fraction_product(gram[b], ev), fraction_product(vw, ew))
            vvw = _plus(fraction_product(gram[a], ew), fraction_product(fraction_adjoint(vw), ev))
            table[a][b] = _relation_of(ev, ew, wwv, vvw)
            table[b][a] = _relation_of(ew, ev, vvw, wwv)
    return table
