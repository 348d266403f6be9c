"""Canonical grids of the four matrix Cartan-factor types and their transforms.

Constructors build concrete matrix families (rectangular / hermitian /
symplectic / spin / rank-1); ``verify_grid`` checks every pairwise relation
and the whole triple-product table against the kind's expected values,
exactly, for grids of up to ``GRID_VERIFY_CAP`` elements.  Every expected
value comes from one triple rule on the indices alone: the matrix-unit rule
for the rectangular, hermitian and symplectic grids and for rank-1 grids
(read as one row of matrix units), an index rule for spin grids.  The
expected pair relations and minimal elements are read off that rule.  The
transforms turn hermitian and symplectic grids into associative matrix
units and a spin grid into a spin system inside the isotope algebra.  The
verifier and the matrix-unit transforms evaluate their pair relations,
triple, minimality and unit-product relations on batched family tables
(``numlin.ExactFamily``); no check loops over pairs.  The elements of a
grid are one such stack, and every exact step of the matrix-unit
transforms works on stacks: a ``Grid`` checks its matrices in one table,
``conjugate_grid`` conjugates the whole stack at once, and the transforms
return the units as the one stack they checked.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import CapacityError, TransformError
from .numlin import (_CHUNK_CELLS, EX_HALF, EX_I, EX_MINUS_ONE, EX_ZERO, ExactFamily,
                     ExactMatrix, ExactScalar, exact_rank, scaled_members)
from .report import VerificationReport
from .triple import (PartialIsometry, _relations_of_halves, _unit_table, classify_relation,
                     isotope_involution, isotope_product)

SPIN_SYSTEM_CAP = 12
# Most elements verify_grid accepts.  At 78 (hermitian m=12, symplectic
# m=13, rectangular 6x13) the exhaustive table holds 240,318 triples: one
# `verify grid` took 0.6-1.1 s at a peak RSS of 50.0-50.4 MB, 31 MB of it the
# interpreter and imports (Xeon, 2 vCPU, Python 3.11, numpy 2.4; three fresh
# processes each).  The time grows as n^3, so doubling the cap would cost
# about 7 s.
GRID_VERIFY_CAP = 78
# Smallest symplectic grid that symplectic_to_matrix_units accepts.
SYMPLECTIC_TRANSFORM_MIN_SIZE = 5

# Pauli matrices under their own names: SIGMA1 = Z = diag(1, -1),
# SIGMA2 = X and SIGMA3 = [[0, i], [-i, 0]] = -Y.  The spin system is built
# from chains of SIGMA3, so its chains are not diagonal.
SIGMA1 = ExactMatrix.from_rows([[1, 0], [0, -1]])
SIGMA2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA3 = ExactMatrix.from_rows([[EX_ZERO, EX_I], [-EX_I, EX_ZERO]])


class Grid:
    """A typed, indexed family of partial isometries.

    ``kind`` is one of ``rectangular, hermitian, symplectic, spin, rank1``;
    ``params`` carries the kind parameters; ``indices`` fixes a deterministic
    element order.  The grid keeps the indices, the matrices and one
    ``ExactFamily`` of them, which every check reads.  The matrices are
    checked when the grid is made, all at once on that family
    (``PartialIsometry.check_family``; elements of different shapes raise
    ``DimensionError``); an element passed as a ``PartialIsometry`` is kept
    as its matrix, without a second check.  The family is the one the caller
    formed (``_family``) or one stacked here; an empty grid has none.
    """

    def __init__(self, kind: str, params: dict, elements: Sequence[Tuple], *, _family=None):
        self.kind = kind
        self.params = dict(params)
        self.indices = tuple(idx for idx, _ in elements)
        mats = [m.mat if isinstance(m, PartialIsometry) else m for _, m in elements]
        self._by_index = dict(zip(self.indices, mats))
        self._family = ExactFamily(mats) if mats and _family is None else _family
        raw = np.flatnonzero([not isinstance(m, PartialIsometry) for _, m in elements])
        if raw.size:
            PartialIsometry.check_family(self._family, raw)

    def family(self) -> ExactFamily:
        """The elements as one ``ExactFamily``."""
        return self._family

    def matrix(self, idx) -> ExactMatrix:
        return self._by_index[idx]

    def matrices(self) -> List[ExactMatrix]:
        return [self._by_index[i] for i in self.indices]

    def __len__(self):
        return len(self.indices)

    def label(self, idx) -> str:
        return _index_label(idx)

    def describe(self) -> str:
        p = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({p})"

    def __repr__(self):
        return f"Grid({self.describe()}, {len(self)} elements)"


def _index_label(idx) -> str:
    if isinstance(idx, tuple):
        if idx and isinstance(idx[0], str):
            tag = idx[0]
            if tag == "u0":
                return "u_0"
            if tag == "u":
                return f"u_{idx[1]}"
            if tag == "ut":
                return f"u~_{idx[1]}"
        return "u_" + "_".join(str(i) for i in idx)
    return f"u_{idx}"


def labels_to_indices(kind: str, labels: Sequence[str]) -> list:
    """The indices of a grid of ``kind`` whose ``Grid.label`` texts are
    ``labels``: the inverse of ``_index_label``."""
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


# -- constructors ------------------------------------------------------------


def grid_size(kind: str, p: int = 0, q: int = 0, m: int = 0, r: int = 0,
              odd: bool = False) -> int:
    """The element count of the canonical ``kind`` grid of these sizes, read
    off the sizes before any matrix is made: p q (rectangular), m (m + 1) / 2
    (hermitian), m (m - 1) / 2 (symplectic) or 2 r, plus one when ``odd``
    (spin).  Sizes the kind's constructor rejects raise its error here."""
    if kind == "rectangular":
        if p < 1 or q < 1:
            raise ValueError("rectangular grid requires p, q >= 1")
        return p * q
    if kind == "hermitian":
        if m < 2:
            raise ValueError("hermitian grid requires m >= 2")
        return m * (m + 1) // 2
    if kind == "symplectic":
        if m < 4:
            raise ValueError("symplectic grid requires m >= 4")
        return m * (m - 1) // 2
    if kind == "spin":
        if r < 2:
            raise ValueError("spin grid requires at least 2 pairs")
        if 2 * r > SPIN_SYSTEM_CAP:
            raise CapacityError(f"spin grid supports r <= {SPIN_SYSTEM_CAP // 2}")
        return 2 * r + odd
    raise ValueError(f"unknown grid kind {kind!r}")


def rectangular_grid(p: int, q: int) -> Grid:
    """The canonical rectangular grid: matrix units E_ij of shape p x q."""
    grid_size("rectangular", p=p, q=q)
    elems = [((i, j), ExactMatrix.unit(p, q, i - 1, j - 1))
             for i in range(1, p + 1) for j in range(1, q + 1)]
    return Grid("rectangular", {"p": p, "q": q}, elems)


def hermitian_grid(m: int) -> Grid:
    """The canonical hermitian grid in m x m symmetric matrices."""
    grid_size("hermitian", m=m)
    elems = []
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            if i == j:
                mat = ExactMatrix.unit(m, m, i - 1, i - 1)
            else:
                mat = ExactMatrix.unit(m, m, i - 1, j - 1) + ExactMatrix.unit(m, m, j - 1, i - 1)
            elems.append(((i, j), mat))
    return Grid("hermitian", {"m": m}, elems)


def symplectic_grid(m: int) -> Grid:
    """The canonical antisymmetric grid, indexed by pairs i < j."""
    grid_size("symplectic", m=m)
    elems = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            mat = ExactMatrix.unit(m, m, i - 1, j - 1) - ExactMatrix.unit(m, m, j - 1, i - 1)
            elems.append(((i, j), mat))
    return Grid("symplectic", {"m": m}, elems)


def spin_system(k: int) -> List[ExactMatrix]:
    """Self-adjoint s_1..s_k with s_i s_j + s_j s_i = 2 delta_ij, exactly.

    Built from tensor chains of Pauli matrices in M_{2^ceil(k/2)}: s_{2t+1}
    is SIGMA3^{(x)t} (x) Z and s_{2t+2} is SIGMA3^{(x)t} (x) X, padded with
    identities to the common size.  The chain factor SIGMA3 = -Y is
    off-diagonal, so s_1 = Z is the only diagonal member.
    """
    if k < 2 or k > SPIN_SYSTEM_CAP:
        error = ValueError if k < 2 else CapacityError
        raise error(f"spin system size must be in 2..{SPIN_SYSTEM_CAP}, got {k}")
    slots = (k + 1) // 2
    out = []
    for idx in range(1, k + 1):
        t = (idx - 1) // 2
        cap = SIGMA1 if idx % 2 == 1 else SIGMA2
        m = None
        for pos in range(slots):
            if pos < t:
                factor = SIGMA3
            elif pos == t:
                factor = cap
            else:
                factor = ExactMatrix.identity(2)
            m = factor if m is None else m.kron(factor)
        out.append(m)
    return out


def spin_grid(r: int, odd: bool) -> Grid:
    """A concrete matrix spin grid with r colinear pairs, plus the governing
    element in the odd case.

    The pair elements come from the Pauli spin system s_1..s_2r:
    u_j = (s_{2j-1} - i s_{2j})/2 and u~_j = -(s_{2j-1} + i s_{2j})/2.  The
    governing element is i times the r-fold sigma3-chain.  The constructor
    only builds; ``verify_grid`` checks the result.
    """
    grid_size("spin", r=r)
    s = spin_system(2 * r)
    elems = []
    for j in range(1, r + 1):
        a, b = s[2 * j - 2], s[2 * j - 1]
        elems.append((("u", j), (a - b.scale(EX_I)).scale(EX_HALF)))
        elems.append((("ut", j), (a + b.scale(EX_I)).scale(EX_HALF).scale(EX_MINUS_ONE)))
    if odd:
        chain = SIGMA3
        for _ in range(r - 1):
            chain = chain.kron(SIGMA3)
        elems.append((("u0", 0), chain.scale(EX_I)))
    return Grid("spin", {"r": r, "odd": odd}, elems)


def conjugate_grid(g: Grid, left: ExactMatrix, right: ExactMatrix) -> Grid:
    """The grid {left * u * right}; for exact unitaries this is again a grid.

    The products are formed for the whole stack of elements at once
    (``ExactFamily.conjugate``).
    """
    if not len(g):
        return Grid(g.kind, g.params, [])
    out = ExactFamily(_stacks=[g.family().conjugate(left, right)])
    return Grid(g.kind, g.params, list(zip(g.indices, out.members())), _family=out)


def signed_permutation(n: int, perm: Sequence[int], signs: Sequence[int]) -> ExactMatrix:
    """Exact signed permutation unitary: column j carries sign[j] at row perm[j]."""
    out = [EX_ZERO] * (n * n)
    for j in range(n):
        out[perm[j] * n + j] = ExactScalar(signs[j])
    return ExactMatrix(n, n, out)


def random_signed_permutation(n: int, rng: random.Random) -> ExactMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return signed_permutation(n, perm, signs)


# -- expected relation/product tables ----------------------------------------


def _unit_parts(grid: Grid) -> tuple:
    """Each element as the sum of two signed matrix units: (rows, cols,
    signs), each of shape (2, n), part by part.  u_ij is e_ij (rectangular;
    the second part has sign 0), e_ij + e_ji with u_ii = e_ii (hermitian) or
    e_ij - e_ji (symplectic).  A rank-1 grid is the rectangular grid of one
    row: u_a is e_1a."""
    idx = np.array(grid.indices, dtype=np.intp)
    if grid.kind == "rank1":
        idx = np.stack([np.ones_like(idx), idx], axis=1)
    i, j = idx.reshape(-1, 2).T
    second = {"rectangular": 0, "rank1": 0, "hermitian": i != j, "symplectic": -1}[grid.kind]
    signs = np.stack(np.broadcast_arrays(np.ones_like(i), second)).astype(np.int8)
    return np.stack([i, j]), np.stack([j, i]), signs


def _matrix_unit_table(grid: Grid, xs, ys, zs) -> tuple:
    """The expected {u_x, u_y, u_z} of a rectangular, hermitian, symplectic
    or rank-1 grid at the positions xs, ys, zs, as the ``want`` of
    ``ExactFamily.equal``.

    The rule works on the indices alone: e_pq e_rs* e_tu = delta_qs delta_rt
    e_pu on the parts (``_unit_parts``) of u_x u_y* u_z + u_z u_y* u_x, and
    the sum of the e_pu is read as u-coefficients at the entries (p, u) that
    name an element: every entry (rectangular, rank-1), p <= u (hermitian),
    p < u (symplectic).  The coefficients are those of 2 {u_x, u_y, u_z}, so q = 2.
    In a grid every such product is a multiple of one element, so all the
    terms a triple keeps name the same member: the result has one column.
    The rule sees only which indices of a triple are equal and how they are
    ordered, and the grids of ``test_grids.TestMatrixUnitRule`` realize every
    such pattern (at most six distinct indices), so that test proves this
    for every size; its 1 x q grids do so for the rank-1 reading.
    """
    parts = rows, cols, signs = _unit_parts(grid)
    at = np.full((rows.max() + 1,) * 2, -1, dtype=np.intp)
    at[rows[0], cols[0]] = np.arange(len(grid))
    kidx = np.zeros((len(xs), 1), dtype=np.intp)
    kcoef = np.zeros((len(xs), 1), dtype=np.int64)
    # 16 terms per triple: a chunk's term arrays hold at most _CHUNK_CELLS
    per = _CHUNK_CELLS // 16
    for start in range(0, len(xs), per):
        chunk = slice(start, start + per)
        first = np.stack([xs[chunk], zs[chunk]])
        # axes: product (u_x u_y* u_z, then u_z u_y* u_x), part of the first,
        # middle and last factor, then triple.  The triples are the last and
        # contiguous axis (np.take), so every operation runs along them: with
        # an axis of length 2 innermost, numpy took 4-7 times as long.
        p, q, sign_a = (np.take(v, first, axis=1).swapaxes(0, 1)[:, :, None, None] for v in parts)
        r, s, sign_b = (np.take(v, ys[chunk], axis=1)[None, None, :, None] for v in parts)
        t, u, sign_c = (np.take(v, first[::-1], axis=1).swapaxes(0, 1)[:, None, None, :]
                        for v in parts)
        coef = sign_a * sign_b * sign_c * ((q == s) & (r == t))
        member = at[p, u]
        live = (coef != 0) & (member >= 0)
        kidx[chunk, 0] = np.where(live, member, 0).max(axis=(0, 1, 2, 3))
        kcoef[chunk, 0] = np.where(live, coef, 0).sum(axis=(0, 1, 2, 3))
    return kidx, kcoef, 2


def _spin_table(grid: Grid, xs, ys, zs) -> tuple:
    """The expected {u_x, u_y, u_z} of a spin grid at the positions xs, ys,
    zs, as the ``want`` of ``ExactFamily.equal``: one member per triple, its
    coefficient that of 2 {u_x, u_y, u_z}, so q = 2.

    The rule was derived in the Pauli model and is symmetric in the outer
    arguments.  It sees only each index's kind (u_j, u~_j or u_0), its pair
    number j and its partner (u_j and u~_j are partners; u_0 has none), and
    the first branch that holds gives the value.
    ``test_grids.TestSpinRule`` compares it with the branch-by-branch dict
    rule on every ordered triple for r = 2..6 in both parities.
    """
    pos = {idx: x for x, idx in enumerate(grid.indices)}
    governing = np.array([tag == "u0" for tag, _ in grid.indices])
    pair = np.array([j for _, j in grid.indices])
    partner = np.array([-1 if tag == "u0" else pos[("ut" if tag == "u" else "u", j)]
                        for tag, j in grid.indices])
    a, b, c = (np.asarray(v, dtype=np.intp) for v in (xs, ys, zs))
    a0, b0, c0, pb = governing[a], governing[b], governing[c], partner[b]
    # no position is -1, so a branch that compares a partner holds only
    # where that partner's owner is a pair element, as the rule requires
    branches = [  # (condition, member, coefficient of 2 {u_a, u_b, u_c})
        ((a == b) & (b == c), a, 2),
        ((pb == a) | (pb == c), 0, 0),
        ((a == b) & a0, c, 2),
        ((a == b) & (c0 | (pair[c] != pair[a])), c, 1),
        (a == b, 0, 0),
        ((b == c) & b0, a, 2),
        ((b == c) & (a0 | (pair[a] != pair[b])), a, 1),
        (b == c, 0, 0),
        ((a == c) & a0 & ~b0, pb, -2),
        (a == c, 0, 0),
        ((partner[a] == c) & b0, b, -1),
        ((partner[a] == c) & (pair[b] != pair[a]), pb, -1),
    ]
    conds, members, coefs = zip(*branches)
    kidx = np.select(conds, members, 0).astype(np.intp)
    kcoef = np.select(conds, coefs, 0).astype(np.int64)
    return kidx[:, None], kcoef[:, None], 2


def _triple_rule(grid: Grid, xs, ys, zs) -> tuple:
    """The expected {u_x, u_y, u_z} at the positions xs, ys, zs, from the
    indices alone, as the ``want`` of ``ExactFamily.equal``: one member per
    triple with its coefficient over q = 2, from the matrix-unit rule or the
    spin grid's index rule."""
    if grid.kind == "spin":
        return _spin_table(grid, xs, ys, zs)
    if grid.kind not in ("rectangular", "hermitian", "symplectic", "rank1"):
        raise ValueError(f"unknown grid kind {grid.kind!r}")
    return _matrix_unit_table(grid, xs, ys, zs)


def _expected_table(grid: Grid, xs, ys, zs) -> tuple:
    """The want of ``verify_grid``'s exhaustive triple table: the triple rule
    at every row.  The pair relations and the minimal elements evaluate the
    rule at their own rows (``_expected_pairs``), so a fault in this array
    shows in ``triple_products`` alone."""
    return _triple_rule(grid, xs, ys, zs)


def _expected_pairs(grid: Grid) -> tuple:
    """The expected relation of each pair of positions x < z, in loop order,
    and the minimal positions, from the triple rule alone.

    With {u_x, u_x, u_z} = c u_z / 2 and {u_x, u_z, u_z} = c' u_x / 2 (rows
    (x, x, z) and (x, z, z)), the relation is ``classify_relation``'s table
    ``triple._RELATION_OF_HALVES`` at (c, c').  v is minimal
    where {u_v, u_w, u_v} = 0 for every w != v (rows (v, w, v)).  The rule
    gives one member per row, so ``_same_want`` reads c and c' off one
    column.
    """
    n = len(grid)
    x, z = np.triu_indices(n, 1)
    v, w = np.nonzero(~np.eye(n, dtype=bool))
    want = _triple_rule(grid, np.concatenate([x, x, v]), np.concatenate([x, z, w]),
                        np.concatenate([z, z, v]))
    rows = np.arange(len(x))
    halves = [np.select([_same_want(want, row, member, c) for c in (0, 1, 2)], [0, 1, 2], -1)
              for row, member in ((rows, z), (rows + len(x), x))]
    relations = _relations_of_halves(*halves)
    zero = _same_want(want, 2 * len(x) + np.arange(len(v)), 0, 0).reshape(n, n - 1)
    return relations, np.flatnonzero(zero.all(axis=1))


# -- verification -------------------------------------------------------------


def check_verify_size(n: int) -> None:
    """Refuse a grid of n elements, more than ``GRID_VERIFY_CAP``, with
    ``CapacityError``."""
    if n > GRID_VERIFY_CAP:
        raise CapacityError(f"grid verification is capped at {GRID_VERIFY_CAP} elements, "
                            f"got {n}")


def verify_grid(grid: Grid) -> VerificationReport:
    """Check pairwise-relation, minimality and triple-product identities of
    a grid, exactly.

    A grid of more than ``GRID_VERIFY_CAP`` elements raises
    ``CapacityError`` before any product is formed.  The
    ``partial_isometry`` line counts the elements that the ``Grid`` checked
    when it was made; they are not evaluated again.  Every expected value
    comes from the kind's triple rule (``_triple_rule``: the matrix-unit
    rule, or the spin rule) on index arrays alone, never from a model grid:
    the triple table (``_expected_table``), the pair relations and the
    minimal elements (``_expected_pairs``).  The observed relations of all
    pairs come from one ``classify_relation`` call on the grid's family.
    The triple table covers every triple with the
    first index not after the third ({a,b,c} = {c,b,a}), at every size, in
    one batched family table (``ExactFamily``).  Every other verdict is read
    off it (``_table_verdicts``): minimality, since {v,w,v} = v w* v; the
    orthogonality of the spin partners, since {u,u,u~} = 0 iff
    u* u~ = u u~* = 0 for a partial isometry u; and the kind's named
    identities (``_named_table``).  Failures are reported, never raised,
    each check listing its first failures in loop order.
    """
    n = len(grid)
    check_verify_size(n)
    rep = VerificationReport(subject=grid.describe())
    if n == 0:
        rep.flag("empty_grid", "vacuously true")
        return rep
    idxs = grid.indices

    # every element was checked when the Grid was made
    rep.add_counted("partial_isometry", True, n, "elements")

    relations, minimal = _expected_pairs(grid)
    fam = grid.family()
    px, pz = np.triu_indices(n, 1)
    got = classify_relation(fam, px, pz)
    mism = [(idxs[px[t]], idxs[pz[t]], relations[t].value, got[t].value)
            for t in np.flatnonzero(np.asarray(got) != np.asarray(relations))[:3]]
    rep.add_counted("pairwise_relations", not mism, len(px), "pairs",
                    failure=f"mismatch {mism}")

    # x <= z covers every ordered triple, in loop order x, y, z
    upper = np.triu(np.ones((n, n), dtype=bool))[:, None, :]
    x, y, z = np.unravel_index(np.flatnonzero(np.broadcast_to(upper, (n, n, n))), (n, n, n))
    want = _expected_table(grid, x, y, z)
    ok = fam.equal(x, y, z, want, sym=True)

    # {v, w, v} = 0 for a minimal v and every w != v, {u_i, u_i, u~_i} = 0
    # for the spin partners, then the named identities
    vs, ws = np.repeat(minimal, n), np.tile(np.arange(n), len(minimal))
    vs, ws = vs[vs != ws], ws[vs != ws]
    pos = {idx: t for t, idx in enumerate(idxs)}
    r = grid.params["r"] if grid.kind == "spin" else 0
    us, uts = (np.array([pos[(tag, i)] for i in range(1, r + 1)], dtype=np.intp)
               for tag in ("u", "ut"))
    forms, form, params, *named = _named_table(grid)
    good = _table_verdicts(fam, want, ok, *(np.concatenate(p) for p in zip(
        (vs, ws, vs, 0 * vs, 0 * vs), (us, us, uts, 0 * us, 0 * us), named)))
    minimal_ok, apart, named_ok = np.split(good, [len(vs), len(vs) + r])

    notmin = [(idxs[v], idxs[w]) for v, w in zip(vs[~minimal_ok], ws[~minimal_ok])]
    if not len(vs):
        rep.flag("minimality", "0 pairs: nothing to check")
    else:
        rep.add_counted("minimality", not notmin, len(minimal), "elements",
                        failure=f"failed {notmin[:3]}")
    badt = [(idxs[x[t]], idxs[y[t]], idxs[z[t]]) for t in np.flatnonzero(~ok)[:3]]
    rep.add_counted("triple_products", not badt, len(x), "triples (exhaustive)",
                    failure=f"failed {badt}")
    _report_named(grid, rep, _named_summary(forms, form, params, named_ok), apart)
    return rep


def _same_want(want: tuple, row: np.ndarray, member: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Whether the want at each row is coef / 2 times the member; the triple
    rule's want has one column."""
    kidx, kcoef, q = want
    kidx, kcoef = kidx[row, 0], kcoef[row, 0]
    return (kcoef * 2 == coef * q) & ((kidx == member) | (kcoef == 0))


def _table_verdicts(fam: ExactFamily, want: tuple, ok: np.ndarray, a, b, c, member,
                    coef) -> np.ndarray:
    """Whether 2 {u_a, u_b, u_c} = coef u_member at each instance.

    The instance is the table's row (min(a, c), b, max(a, c)), since
    {a,b,c} = {c,b,a}.  Where its want is the table's want there, the
    table's verdict is its verdict; an instance whose want differs, or whose
    row failed, is evaluated on its own.
    """
    n = len(fam)
    lo, hi = np.minimum(a, c), np.maximum(a, c)
    # n (n - x) rows for each first index x before lo
    row = n * (lo * n - lo * (lo - 1) // 2) + b * (n - lo) + hi - lo
    good = ok[row] & _same_want(want, row, member, coef)
    redo = np.flatnonzero(~good)
    if redo.size:
        good[redo] = fam.equal(a[redo], b[redo], c[redo],
                               scaled_members(member[redo], coef[redo], 2), sym=True)
    return good


def _named_summary(forms: list, form: np.ndarray, params: np.ndarray, good: np.ndarray) -> dict:
    """check -> (instances, failures, labels of the first three failures)."""
    out = {}
    for check in dict.fromkeys(f[0] for f in forms):
        mine = np.isin(form, [x for x, f in enumerate(forms) if f[0] == check])
        bad = np.flatnonzero(mine & ~good)
        labels = []
        for t in bad[:3]:
            _, tag, width = forms[form[t]]
            values = params[t, :width].tolist()
            labels.append(tuple(values) if tag is None else (tag, *values))
        out[check] = (int(mine.sum()), len(bad), labels)
    return out


def _pair_positions(grid: Grid, size: int) -> np.ndarray:
    """at[i, j]: the position of the element indexed (i, j), -1 where none is."""
    at = np.full((size + 1, size + 1), -1, dtype=np.intp)
    i, j = np.array(grid.indices, dtype=np.intp).reshape(-1, 2).T
    at[i, j] = np.arange(len(grid))
    return at


def _loops(sizes, keep=None) -> list:
    """The 1-based counters of nested loops over ``sizes``, in loop order,
    at the iterations where ``keep(*counters)`` holds."""
    counters = [v.ravel() + 1 for v in np.indices(sizes)]
    kept = slice(None) if keep is None else keep(*counters)
    return [v[kept] for v in counters]


def _pairs(*parts) -> np.ndarray:
    """Equally long arrays merged entry by entry: x0, y0, ..., x1, y1, ..."""
    return np.stack(parts, axis=1).reshape(-1, *np.shape(parts[0])[1:])


def _named_rectangular(grid: Grid) -> tuple:
    p, q = grid.params["p"], grid.params["q"]
    at = _pair_positions(grid, max(p, q))
    j, i, k, l = _loops((p, p, q, q), lambda j, i, k, l: (i != j) & (k != l))
    forms = [("rectangular_chain_identity", None, 4)]
    abc = at[j, k], at[j, l], at[i, l]
    return forms, np.zeros_like(i), np.stack([j, k, l, i], axis=1), abc, at[i, k], np.ones_like(i)


def _named_hermitian(grid: Grid) -> tuple:
    m = grid.params["m"]
    at = _pair_positions(grid, m)
    key = lambda s, t: at[np.minimum(s, t), np.maximum(s, t)]
    i, j, k, l = _loops((m,) * 4, lambda i, j, k, l: i != l)
    ci, cj, ck = _loops((m,) * 3)
    # the chains (i, j, k, l), then the cycles (i, j, k)
    abc = [np.concatenate([key(*chain), key(*cycle)]) for chain, cycle in
           [((i, j), (ci, cj)), ((j, k), (cj, ck)), ((k, l), (ck, ci))]]
    params = np.concatenate([np.stack([i, j, k, l], axis=1),
                             np.stack([ci, cj, ck, np.zeros_like(ci)], axis=1)])
    # index patterns naming fewer than two distinct elements lie outside
    # the table's side conditions: they are flagged, not failed
    skipped = "hermitian_table_skipped_patterns"
    forms = [("hermitian_chain_identity", None, 4), ("hermitian_cycle_identity", None, 3),
             (skipped, "chain", 4), (skipped, "cycle", 3)]
    form = (np.arange(len(params)) >= len(i)) + 2 * ((abc[0] == abc[1]) & (abc[1] == abc[2]))
    return (forms, form, params, abc, np.concatenate([key(i, l), key(ci, ci)]),
            1 + (form % 2))


def _named_symplectic(grid: Grid) -> tuple:
    # u_ab = -u_ba: 2 {u_ij, u_il, u_kl} = u_kj in the elements with a < b
    m = grid.params["m"]
    at = _pair_positions(grid, m)
    key = lambda s, t: at[np.minimum(s, t), np.maximum(s, t)]
    sign = lambda s, t: np.where(s < t, 1, -1)
    i, j, k, l = _loops((m,) * 4, lambda i, j, k, l: (i != j) & (i != k) & (i != l)
                        & (j != k) & (j != l) & (k != l))
    forms = [("symplectic_quad_identity", None, 4)]
    return (forms, np.zeros_like(i), np.stack([i, j, k, l], axis=1),
            (key(i, j), key(i, l), key(k, l)), key(k, j),
            sign(i, j) * sign(i, l) * sign(k, l) * sign(k, j))


def _named_spin(grid: Grid) -> tuple:
    r = grid.params["r"]
    pos = {idx: x for x, idx in enumerate(grid.indices)}
    u, ut = (np.array([pos[(tag, t)] for t in range(1, r + 1)]) for tag in ("u", "ut"))
    i, j = _loops((r, r), lambda i, j: i != j)
    ui, uj, ti, tj = u[i - 1], u[j - 1], ut[i - 1], ut[j - 1]
    # per pair, {u_i, u_j, u~_i} = -u~_j / 2 and its companion, which closes
    # the quadrangle on u_i, not on its partner (the value the
    # anticommutation proof expands to); then, in the odd case,
    # {u_0, u_i, u_0} = -u~_i and {u_0, u~_i, u_0} = -u_i per i
    abc = [_pairs(ui, uj), _pairs(uj, ti), _pairs(ti, tj)]
    member, form = _pairs(tj, ui), np.tile([0, 1], len(i))
    params = _pairs(*[np.stack([i, j], axis=1)] * 2)
    quads, governs = "spin_quadrangle_identities", "spin_governing_identities"
    forms = [(quads, "quad1", 2), (quads, "quad2", 2),
             (governs, "govern-u", 1), (governs, "govern-ut", 1)]
    if grid.params["odd"]:
        u0 = np.full(2 * r, pos[("u0", 0)])
        abc = [np.concatenate(pair) for pair in zip(abc, [u0, _pairs(u, ut), u0])]
        member = np.concatenate([member, _pairs(ut, u)])
        form = np.concatenate([form, np.tile([2, 3], r)])
        params = np.concatenate([params, np.repeat(np.arange(1, r + 1), 2)[:, None] * [1, 0]])
    return forms, form, params, abc, member, np.where(form < 2, -1, -2)


def _named_rank1(grid: Grid) -> tuple:
    n = grid.params["n"]
    pos = {idx: x for x, idx in enumerate(grid.indices)}
    at = np.array([0] + [pos[t] for t in range(1, n + 1)])
    a, b = _loops((n, n), lambda a, b: a != b)
    # per ordered pair: {u_a, u_a, u_b} = u_b / 2 and {u_a, u_b, u_a} = 0,
    # then {u_a, u_b, u_c} = 0 for every other c, in increasing order
    w, v = max(n - 2, 0), np.arange(1, n + 1)
    rest = np.broadcast_to(v, (len(a), n))[(v != a[:, None]) & (v != b[:, None])]
    rest = rest.reshape(len(a), w)
    row = lambda *parts: np.column_stack(parts).ravel()
    x, y, z = np.repeat(a, 2 + w), row(a, b, np.repeat(b[:, None], w, axis=1)), row(b, a, rest)
    form = np.tile([0, 1] + [2] * w, len(a))
    check = "rank_one_identities"
    forms = [(check, "colinear", 2), (check, "jordan-minimal", 2), (check, "distinct-zero", 3)]
    zero = np.zeros_like(a)
    params = np.stack([x, np.repeat(b, 2 + w), row(zero, zero, rest)], axis=1)
    return forms, form, params, (at[x], at[y], at[z]), at[z], (form == 0) * 1


def _named_table(grid: Grid) -> tuple:
    """The kind's named identities as index arrays, in the order their
    failures are listed: (forms, form, params, a, b, c, member, coef).

    Instance t states 2 {u_a, u_b, u_c} = coef u_member at the positions
    a[t], b[t], c[t] and member[t] (coef[t] = 0: the zero matrix).  Its form
    forms[form[t]] = (check, tag, width) names the check that reports it and
    its label: (tag, *params[t, :width]), or the bare numbers if tag is None.
    """
    build = {"rectangular": _named_rectangular, "hermitian": _named_hermitian,
             "symplectic": _named_symplectic, "spin": _named_spin, "rank1": _named_rank1}
    if grid.kind not in build:
        raise ValueError(f"unknown grid kind {grid.kind!r}")
    forms, form, params, abc, member, coef = build[grid.kind](grid)
    if min(int(v.min(initial=0)) for v in (*abc, member)) < 0:
        raise KeyError(f"{grid.describe()} lacks an element its named identities use")
    return forms, form, params, *abc, member, coef


def _add_named(rep: VerificationReport, name: str, named: dict, unit: str) -> None:
    count, bad, labels = named[name]
    if not count:
        rep.flag(name, f"0 {unit}: nothing to check")
    else:
        rep.add(name, not bad, detail="" if not bad else f"failed {labels}")


def _report_named(grid: Grid, rep: VerificationReport, named: dict, apart: np.ndarray) -> None:
    """Report the named identities in the kind's order, with the spin
    partners' orthogonality (``apart``, one verdict per pair) among them."""
    kind = grid.kind
    if kind == "rectangular":
        _add_named(rep, "rectangular_chain_identity", named, "chains")
    elif kind == "hermitian":
        _add_named(rep, "hermitian_chain_identity", named, "chains")
        _add_named(rep, "hermitian_cycle_identity", named, "cycles")
        _, skipped, labels = named["hermitian_table_skipped_patterns"]
        if skipped:
            rep.flag("hermitian_table_skipped_patterns",
                     f"{skipped} index patterns outside the table's side "
                     f"conditions, e.g. {labels}")
    elif kind == "symplectic":
        _add_named(rep, "symplectic_quad_identity", named, "quadruples")
    elif kind == "spin":
        _add_named(rep, "spin_quadrangle_identities", named, "quadrangles")
        orth = [i for i, good in enumerate(apart.tolist(), start=1) if not good]
        rep.add("spin_partner_orthogonality", not orth,
                detail="" if not orth else f"failed {orth}")
        if grid.params["odd"]:
            _add_named(rep, "spin_governing_identities", named, "elements")
    elif kind == "rank1":
        _add_named(rep, "rank_one_identities", named, "instances")


# -- transforms ---------------------------------------------------------------


@dataclass(frozen=True)
class MatrixUnitFamily:
    """Associative matrix units e_ij recovered from a grid, with their unit
    v: the stack the transform checked, ``family``, holds e_ij as member
    (i - 1) size + j - 1, in the loop order of (i, j)."""
    size: int
    family: ExactFamily
    v: ExactMatrix

    def unit(self, i: int, j: int) -> ExactMatrix:
        return self.family.member((i - 1) * self.size + j - 1)


def spin_to_spin_system(g: Grid):
    """Turn a spin grid into a spin system inside the isotope algebra at
    v = i(u_1 + u~_1).

    Returns ``(v, system)`` where every member of ``system`` is self-adjoint
    for the isotope involution and the isotope anticommutators are exactly
    2 delta v.
    """
    if g.kind != "spin":
        raise TransformError("spin_to_spin_system requires a spin grid")
    rep = verify_grid(g)
    if not rep.passed:
        raise TransformError("grid fails axioms: " + "; ".join(c.name for c in rep.failures))
    r, odd = g.params["r"], g.params["odd"]
    v = PartialIsometry((g.matrix(("u", 1)) + g.matrix(("ut", 1))).scale(EX_I))
    system = []
    for j in range(2, r + 1):
        system.append((f"s_{j}", g.matrix(("u", j)) + g.matrix(("ut", j))))
    for j in range(1, r + 1):
        system.append((f"t_{j}", (g.matrix(("u", j)) - g.matrix(("ut", j))).scale(EX_I)))
    if odd:
        system.append(("u_0", g.matrix(("u0", 0))))
    for name, x in system:
        if isotope_involution(v, x) != x:
            raise TransformError(f"{name} is not self-adjoint in the isotope algebra")
    for a, (na, xa) in enumerate(system):
        for nb, xb in system[a:]:
            anti = isotope_product(v, xa, xb) + isotope_product(v, xb, xa)
            want = v.mat.scale(2) if xa == xb else ExactMatrix.zeros(*v.shape)
            if anti != want:
                raise TransformError(f"anticommutator {na}.{nb} != 2 delta v")
    for name, x in system:
        if isotope_product(v, v.mat, x) != x or isotope_product(v, x, v.mat) != x:
            raise TransformError(f"unit law fails on {name}")
    dim = exact_rank([v.mat.entries] + [x.entries for _, x in system])
    if dim != len(system) + 1:
        raise TransformError("spin system members are not linearly independent")
    return v, [x for _, x in system]


def _pair_keys(g: Grid, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The position of u_ij for i <= j, and of u_ji for i > j, in a grid
    indexed by pairs."""
    key = _pair_positions(g, g.params["m"])[np.minimum(i, j), np.maximum(i, j)]
    if (key < 0).any():
        raise KeyError(f"{g.describe()} lacks an element its transform uses")
    return key


def hermitian_to_matrix_units(g: Grid) -> MatrixUnitFamily:
    """Matrix units e_ij = u_ii . u_ij (isotope product at v = sum u_ii).

    Verifies the matrix-unit relations, the involution, the sum of the
    diagonal units and the recovery u_ij = e_ij + e_ji, all exactly, on
    one stack of the units from the first product to the return; failures
    raise ``TransformError`` naming the first failing relation in the
    order of the relations above.
    """
    if g.kind != "hermitian":
        raise TransformError("hermitian_to_matrix_units requires a hermitian grid")
    m, n = g.params["m"], len(g)
    i, j = _loops((m, m))  # the pairs (i, j), in loop order
    key = _pair_keys(g, i, j)
    diag, ends = key[(i - 1) * (m + 1)], key[(j - 1) * (m + 1)]  # u_ii and u_jj
    grid = g.family()
    # the grid elements, then v; the isotope unit v must be a partial isometry
    fam = ExactFamily(_stacks=[grid.part(), grid.sums([key[::m + 1]], [np.ones(m)])])
    try:
        PartialIsometry.check_family(fam, np.array([n]))
    except ValueError as exc:
        raise TransformError(f"isotope unit v = sum u_ii: {exc}") from exc
    units = ExactFamily(_stacks=[fam.ternary(diag, np.full(m * m, n), key)])
    t, v = np.arange(m * m), m * m
    # one family: the units in pair order, v, the grid elements, the sum of
    # the diagonal units at s, then e_ij + e_ji (e_ii alone) per unit
    fam = ExactFamily(_stacks=[units.part(), fam.part(np.r_[n, :n]),
                               units.sums([t[i == j]], [np.ones(m)]),
                               units.sums(np.column_stack([t, (j - 1) * m + i - 1]),
                                          np.column_stack([np.ones(m * m), i != j]))])
    s = v + 1 + n
    keys = list(zip(i.tolist(), j.tolist()))
    involution, product = _unit_table(fam, keys)
    bad = np.flatnonzero(~involution | ~product.all(axis=1))
    if bad.size:
        i0, j0 = keys[bad[0]]
        if not involution[bad[0]]:
            raise TransformError(f"involution fails: e_{i0}{j0}^# != e_{j0}{i0}")
        k, l = keys[int(np.argmin(product[bad[0]]))]
        raise TransformError(f"product fails: e_{i0}{j0} . e_{k}{l} != delta e_{i0}{l}")
    if not fam.same([v], [s])[0]:
        raise TransformError("sum of diagonal units is not the isotope unit")
    bad = np.flatnonzero(~fam.same(v + 1 + key, s + 1 + t))
    if bad.size:
        i0, j0 = keys[bad[0]]
        raise TransformError(f"recovery fails: u_{i0}{j0} != e_{i0}{j0} + e_{j0}{i0}")
    # u_ii . u_ij is e_ij itself; compare u_ij . u_jj with it
    off = t[i != j]
    same = fam.equal(v + 1 + key[off], np.full(len(off), v), v + 1 + ends[off],
                     scaled_members(off))
    bad = np.flatnonzero(~same)
    if bad.size:
        i0, j0 = keys[off[bad[0]]]
        raise TransformError(f"u_{i0}{i0}.u_{i0}{j0} != u_{i0}{j0}.u_{j0}{j0}")
    return MatrixUnitFamily(m, units, fam.member(v))


def symplectic_to_matrix_units(g: Grid) -> MatrixUnitFamily:
    """Matrix units from a symplectic grid of size at least 5.

    The diagonal units e_ii = u_ij u_jm* u_im must be independent of the
    admissible index pair (j, m); the off-diagonal ones are
    e_ij = e_ii e_ii* u_ij e_jj* e_jj.  All defining relations are verified
    exactly, on one stack of the units from the first product to the
    return; failures raise ``TransformError`` naming the first failing
    relation in the order above.
    """
    if g.kind != "symplectic":
        raise TransformError("symplectic_to_matrix_units requires a symplectic grid")
    m = g.params["m"]
    if m < SYMPLECTIC_TRANSFORM_MIN_SIZE:
        raise TransformError(
            f"symplectic transform requires size >= {SYMPLECTIC_TRANSFORM_MIN_SIZE}")
    i, j = _loops((m, m), lambda i, j: i != j)  # the pairs i != j, in loop order
    t = np.arange(len(i))
    at = np.zeros((m + 1, m + 1), dtype=np.intp)
    at[i, j] = t
    # u_ij = -u_ji for i > j
    grid = g.family()
    signed = ExactFamily(_stacks=[grid.sums(_pair_keys(g, i, j)[:, None],
                                            np.where(i < j, 1, -1)[:, None])])
    # the first admissible pair (j, m) defines e_ii; every other must agree
    a, b, c = _loops((m, m, m), lambda a, b, c: (a != b) & (a != c) & (b != c))
    first = np.unique(a, return_index=True)[1]
    diag = signed.ternary(at[a, b][first], at[b, c][first], at[a, c][first])
    # one family: u_ab for a != b, then e_11 .. e_mm
    fam = ExactFamily(_stacks=[signed.part(), diag])
    e = len(t) - 1  # e + i is the position of e_ii
    d = e + np.arange(1, m + 1)
    fail = np.flatnonzero(~fam.equal(at[a, b], at[b, c], at[a, c], scaled_members(e + a)))
    gone = np.flatnonzero(fam.vanish(d, d))  # e e* = 0 iff e = 0
    ambiguous = a[fail[0]] if fail.size else m + 1
    vanished = gone[0] + 1 if gone.size else m + 1
    if ambiguous <= min(vanished, m):
        raise TransformError(f"diagonal unit e_{ambiguous}{ambiguous} is ambiguous at pair "
                             f"({b[fail[0]]},{c[fail[0]]})")
    if vanished <= m:
        raise TransformError(f"diagonal unit e_{vanished}{vanished} vanished")
    # per i: e_ii is a partial isometry, then orthogonal to each e_jj
    ei, ej = e + i, e + j
    apart = fam.vanish(ei, ej, star_first=True) & fam.vanish(ei, ej)
    bad = np.flatnonzero(~np.column_stack([fam.equal(d, d, d, scaled_members(d)),
                                           apart.reshape(m, m - 1)]))
    if bad.size:
        row, col = divmod(int(bad[0]), m)
        if not col:
            raise TransformError(f"e_{row + 1}{row + 1} is not a partial isometry")
        k = j[row * (m - 1) + col - 1]
        raise TransformError(f"e_{row + 1}{row + 1} not orthogonal to e_{k}{k}")
    # e_ii e_ii* u_ij, then e_11 .. e_mm; e_ij is the first times e_jj* e_jj
    left = ExactFamily(_stacks=[fam.ternary(ei, ei, t), fam.part(d)])
    jj = len(t) + j - 1
    units = ExactFamily(_stacks=[fam.part(d), left.ternary(t, jj, jj)])
    keys = [(k, k) for k in range(1, m + 1)] + list(zip(i.tolist(), j.tolist()))
    # one family: the units in key order, v, u_ij for i != j, then
    # e_ij - e_ji in the order of the u_ij
    joined = ExactFamily(_stacks=[units.part(), units.sums([np.arange(m)], [np.ones(m)]),
                                  signed.part(),
                                  units.sums(np.column_stack([m + t, m + at[j, i]]),
                                             np.tile([1, -1], (len(t), 1)))])
    v = len(keys)
    bad = np.flatnonzero(~joined.same(v + 1 + t, v + 1 + len(t) + t))
    if bad.size:
        i0, j0 = i[bad[0]], j[bad[0]]
        raise TransformError(f"recovery fails: u_{i0}{j0} != e_{i0}{j0} - e_{j0}{i0}")
    involution, product = _unit_table(joined, keys)
    bad = np.flatnonzero(~involution | ~product.all(axis=1))
    if bad.size:
        i0, j0 = keys[bad[0]]
        if not involution[bad[0]]:
            raise TransformError(f"involution fails on e_{i0}{j0}")
        l, k = keys[int(np.argmin(product[bad[0]]))]
        raise TransformError(f"unit product fails: e_{i0}{j0} v* e_{l}{k}")
    # e_ii u_ij* e_ii = 0 and {e_ii, e_ii, u_ij} = u_ij / 2 for i != j, then
    # u_ij e_kk* = 0 = e_kk* u_ij for each k outside {i, j}
    ts, ks = _loops((len(t), m), lambda s, k: (k != i[s - 1]) & (k != j[s - 1]))
    ts -= 1
    outside = fam.vanish(ts, e + ks) & fam.vanish(e + ks, ts, star_first=True)
    bad = np.flatnonzero(~np.column_stack([
        fam.equal(ei, t, ei), fam.equal(ei, ei, t, scaled_members(t, 1, 2), sym=True),
        outside.reshape(len(t), m - 2)]))
    if bad.size:
        row, col = divmod(int(bad[0]), m)
        i0, j0 = i[row], j[row]
        if col == 0:
            raise TransformError(f"e_{i0}{i0} u_{i0}{j0}* e_{i0}{i0} != 0")
        if col == 1:
            raise TransformError(f"u_{i0}{j0} is not Peirce-1 for e_{i0}{i0}")
        k = ks[row * (m - 2) + col - 2]
        raise TransformError(f"u_{i0}{j0} not orthogonal to e_{k}{k}")
    # the units in the loop order of (p, q): e_pp at p - 1, e_pq at m + at[p, q]
    p, q = _loops((m, m))
    order = np.where(p == q, p - 1, m + at[p, q])
    return MatrixUnitFamily(m, ExactFamily(_stacks=[units.part(order)]), joined.member(v))
