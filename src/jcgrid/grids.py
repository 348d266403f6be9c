"""Canonical grids of the four matrix Cartan-factor types and their transforms.

Constructors build concrete matrix families (rectangular / hermitian /
symplectic / spin / rank-1); ``verify_grid`` checks every pairwise relation
and the whole triple-product table against the kind's expected values,
exactly, for grids of up to ``GRID_VERIFY_CAP`` elements.  The table is
exhaustive in that every triple gets a verdict: a triple whose operands'
supports make it zero, and whose expected value is zero, is decided from
the supports of the grid's own matrices without a product.  Every expected
value comes from one triple rule on the indices alone: the matrix-unit rule
for the rectangular, hermitian and symplectic grids and for rank-1 grids
(read as one row of matrix units), an index rule for spin grids, and
the rule runs once per grid, on the rows of the triple table.  The expected
pair relations and minimal elements are read off the table's wants.  The
transforms turn hermitian and symplectic grids into associative matrix
units and a spin grid into a spin system inside the isotope algebra.  The
verifier and the matrix-unit transforms evaluate their pair relations,
triple, minimality and unit-product relations on batched family tables
(``numlin.ExactFamily``); no check loops over pairs.  The elements of a
grid are one such stack, and every exact step of the matrix-unit
transforms works on stacks: a ``Grid`` checks its matrices in one table,
``conjugate_grid`` conjugates the whole stack at once, and the transforms
return the units as the one stack they checked.  Each matrix-unit
transform has one implementation over a stack of grids of one kind, size
and index order, which evaluates every relation once for all of them;
the single-grid functions are its one-grid case, and
``conjugation_naturality`` runs every conjugation of the naturality check
through it, in batches bounded by ``_NATURALITY_CELLS``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import CapacityError, TransformError
from .numlin import (_CHUNK_CELLS, EX_HALF, EX_I, EX_MINUS_ONE, EX_ZERO, ExactFamily,
                     ExactMatrix, blocks, exact_rank, scaled_members)
from .report import VerificationReport
from .triple import (PartialIsometry, _relations_of_halves, _unit_table, classify_relation,
                     isotope_involution, isotope_product, live_products)

SPIN_SYSTEM_CAP = 12
# Most elements verify_grid, and so `verify grid`, `verify split --p --q`
# and `verify matrix-units`, accept.  At 120 (hermitian m=15, symplectic
# m=16) the exhaustive table has 871,200 triples, of which the supports
# leave 47,475 (hermitian) and 52,200 (symplectic) to evaluate: `verify
# grid` took 0.26 s in process (3.3-3.6 s with every row evaluated) at a
# peak RSS of 58-62 MB, `verify matrix-units` 0.19-0.26 s.  `verify split
# --p 2 --q 60`, the slowest shape, took 22 s: its diag-rect elements are
# 62 x 62 and meet along a whole row and column.  At 136 that split took
# 59 s, more than any command took at the old cap of 78 (split 2 x 39: 33 s
# with every row evaluated).  Xeon, 2 vCPU, Python 3.11, numpy 2.4.
GRID_VERIFY_CAP = 120
# Most cells of the (x, y, z) masks that one chunk of verify_grid's triple
# table holds.
_TABLE_CELLS = 1 << 17
# Smallest symplectic grid that symplectic_to_matrix_units accepts.
SYMPLECTIC_TRANSFORM_MIN_SIZE = 5
# Most numerator cells that one batch of conjugation_naturality holds in its
# conjugated elements, their units and the conjugated canonical units, so
# that memory does not grow with the number of conjugations.
_NATURALITY_CELLS = 1 << 15

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
    off the sizes before any matrix is made: p q (rectangular, and the
    diag-rect grid of ``hnk.diag_rect``), m (m + 1) / 2 (hermitian),
    m (m - 1) / 2 (symplectic) or 2 r, plus one when ``odd`` (spin).  Sizes
    the kind's constructor rejects raise its error here."""
    if kind == "rectangular":
        if p < 1 or q < 1:
            raise ValueError("rectangular grid requires p, q >= 1")
        return p * q
    if kind == "diag-rect":
        if p < 2 or q < 2:
            raise ValueError("diag_rect requires p, q >= 2")
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


def _unit_grid(kind: str, params: dict, shape: tuple, indices: list) -> Grid:
    """The canonical ``kind`` grid over ``indices``, every entry written into
    one (N, rows, cols) numerator stack by index assignment: u_ij is e_ij,
    plus e_ji (hermitian) or minus e_ji (symplectic) off the diagonal.  The
    grid checks the elements on that stack."""
    i, j = np.array(indices, dtype=np.intp).T - 1
    stack = np.zeros((len(indices),) + shape, dtype=np.int64)
    stack[np.arange(len(indices)), i, j] = 1
    if kind != "rectangular":
        off = np.flatnonzero(i != j)
        stack[off, j[off], i[off]] = 1 if kind == "hermitian" else -1
    fam = ExactFamily(_stacks=[(stack, None, 1)])
    return Grid(kind, params, list(zip(indices, fam.members())), _family=fam)


def rectangular_grid(p: int, q: int) -> Grid:
    """The canonical rectangular grid: matrix units E_ij of shape p x q."""
    grid_size("rectangular", p=p, q=q)
    indices = [(i, j) for i in range(1, p + 1) for j in range(1, q + 1)]
    return _unit_grid("rectangular", {"p": p, "q": q}, (p, q), indices)


def hermitian_grid(m: int) -> Grid:
    """The canonical hermitian grid in m x m symmetric matrices: E_ii and
    E_ij + E_ji for i < j."""
    grid_size("hermitian", m=m)
    indices = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    return _unit_grid("hermitian", {"m": m}, (m, m), indices)


def symplectic_grid(m: int) -> Grid:
    """The canonical antisymmetric grid, E_ij - E_ji indexed by pairs i < j."""
    grid_size("symplectic", m=m)
    indices = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return _unit_grid("symplectic", {"m": m}, (m, m), indices)


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
    out = ExactFamily(_stacks=[g.family().conjugate([left], [right])])
    return Grid(g.kind, g.params, list(zip(g.indices, out.members())), _family=out)


def signed_permutation(n: int, perm: Sequence[int], signs: Sequence[int]) -> ExactMatrix:
    """Exact signed permutation unitary: column j carries sign[j] at row
    perm[j], written straight into one numerator array."""
    re = np.zeros((n, n), dtype=np.int64)
    re[np.asarray(perm, dtype=np.intp), np.arange(n)] = signs
    return ExactMatrix(n, n, _arrays=(re, None, 1))


def random_signed_permutation(n: int, rng: random.Random) -> ExactMatrix:
    """A signed permutation drawn from ``rng``: the shuffled rows, then one
    sign per column."""
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
    terms a triple keeps name the same member: the result is one member.
    The rule sees only which indices of a triple are equal and how they are
    ordered, and the grids of ``test_grids.TestMatrixUnitRule`` realize every
    such pattern (at most six distinct indices), so that test proves this
    for every size; its 1 x q grids do so for the rank-1 reading.
    """
    parts = rows, cols, signs = _unit_parts(grid)
    at = np.full((rows.max() + 1,) * 2, -1, dtype=np.intp)
    at[rows[0], cols[0]] = np.arange(len(grid))
    kidx = np.zeros(len(xs), dtype=np.intp)
    kcoef = np.zeros(len(xs), dtype=np.int64)
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
        kidx[chunk] = np.where(live, member, 0).max(axis=(0, 1, 2, 3))
        kcoef[chunk] = np.where(live, coef, 0).sum(axis=(0, 1, 2, 3))
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
    return kidx, np.select(conds, coefs, 0).astype(np.int64), 2


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


def _unit_meets(grid: Grid) -> tuple:
    """``ExactFamily.meets`` of the matrix-unit model, from the indices
    alone: whether two elements have a row, and a column, of their parts
    (``_unit_parts``) in common."""
    rows, cols, signs = _unit_parts(grid)
    part, k = np.nonzero(signs)
    out = []
    for lines in (rows, cols):
        on = np.zeros((len(grid), rows.max() + 1), dtype=bool)
        on[k, lines[part, k]] = True
        out.append(on @ on.T)
    return tuple(out)


def _live_rows(meets: tuple, x0: int, x1: int) -> np.ndarray:
    """mask[x - x0, y, z] for the first indices x0 <= x < x1: whether the
    row (x, y, z), x <= z, of the triple table can be nonzero by the
    supports ``meets`` (``triple.live_products``)."""
    x = np.arange(x0, x1)
    return live_products(meets, x, sym=True) & (np.arange(len(meets[0])) >= x[:, None, None])


def _expected_table(grid: Grid, x0: int, x1: int) -> tuple:
    """The rows (x, y, z) of the triple table with x0 <= x < x1 where the
    triple rule is not zero, in loop order, and its want there:
    (x, y, z, want).  Every other row wants 0.

    A matrix-unit rule keeps a term e_pq e_rs* e_tu where delta_qs delta_rt
    holds, so only where the parts of the elements meet: the rule is
    evaluated on that join (``_live_rows`` of ``_unit_meets``) alone.  A
    spin grid has at most 13 elements, and its rule is evaluated on every
    row.  This is the one place the rule runs: the pair relations and the
    minimal elements read this want off the table (``_expected_pairs``)."""
    n = len(grid)
    if grid.kind == "spin":
        rows = np.broadcast_to(np.arange(n) >= np.arange(x0, x1)[:, None, None], (x1 - x0, n, n))
    else:
        rows = _live_rows(_unit_meets(grid), x0, x1)
    x, y, z = np.nonzero(rows)
    x += x0
    kidx, kcoef, q = _triple_rule(grid, x, y, z)
    keep = kcoef != 0
    return x[keep], y[keep], z[keep], (kidx[keep], kcoef[keep], q)


def _table_row(n: int, x, y, z):
    """The position of the row (x, y, z), x <= z, in the loop order of the
    triple table of n elements: n (n - x') rows for each first index x'
    before x."""
    return n * (x * n - x * (x - 1) // 2) + y * (n - x) + z - x


def _triple_table(grid: Grid) -> tuple:
    """The exhaustive triple table of ``verify_grid``: a verdict for every
    row (x, y, z) with x <= z ({a,b,c} = {c,b,a}), in loop order.

    A row is evaluated, on the grid's family, where its supports let it be
    nonzero (``_live_rows`` on ``ExactFamily.meets``) or where the rule
    wants a nonzero value (``_expected_table``).  Every other row is zero by
    its supports and wants 0, so it passes with no product formed.  The
    supports are read off the matrices themselves: a corrupted element
    moves its own triples into the evaluated rows.  The rows are built and
    evaluated a few first indices at a time, at most ``_TABLE_CELLS`` cells
    of (x, y, z) at once, so no array over all rows is held.  Returns the
    evaluated rows as (row, (x, y, z), want, ok), row being each one's
    position in loop order (``_table_row``).
    """
    n, fam = len(grid), grid.family()
    per = max(1, _TABLE_CELLS // (n * n))
    chunks = []
    for x0 in range(0, n, per):
        x1 = min(n, x0 + per)
        *rule, want = _expected_table(grid, x0, x1)
        x, y, z, want = _joined_rows(_live_rows(fam.meets(), x0, x1), x0, *rule, want)
        chunks.append((x, y, z, *want[:2], fam.equal(x, y, z, want, sym=True)))
    x, y, z, kidx, kcoef, ok = (np.concatenate(c) for c in zip(*chunks))
    return _table_row(n, x, y, z), (x, y, z), (kidx, kcoef, want[2]), ok


def _joined_rows(mask: np.ndarray, x0: int, x, y, z, want: tuple) -> tuple:
    """The rows of ``mask`` (mask[x - x0, y, z]) and the rows (x, y, z)
    with their ``want``, joined in loop order: (x, y, z, want), where a row
    of the mask alone wants 0.  ``mask`` is marked with the rows."""
    at = np.ravel_multi_index((x - x0, y, z), mask.shape)
    np.put(mask, at, True)
    cells = np.flatnonzero(mask)
    at = np.searchsorted(cells, at)
    joined = [np.zeros(len(cells), part.dtype) for part in want[:2]]
    joined[0][at], joined[1][at] = want[:2]
    x, y, z = np.unravel_index(cells, mask.shape)
    return x + x0, y, z, (*joined, want[2])


def _expected_pairs(table: tuple, n: int) -> tuple:
    """The expected relation of each pair of positions x < z, in loop order,
    and the minimal positions, read off the wants of ``_triple_table``'s
    rows; a row the table did not evaluate wants 0.

    With {u_x, u_x, u_z} = c u_z / 2 and {u_x, u_z, u_z} = c' u_x / 2 (rows
    (x, x, z) and (x, z, z)), the relation is ``classify_relation``'s table
    ``triple._RELATION_OF_HALVES`` at (c, c').  v is minimal
    where {u_v, u_w, u_v} = 0 for every w != v (rows (v, w, v)).  The rule
    gives one member per row, so ``_same_want`` reads c and c' off it.
    """
    _, (x, y, z), want, _ = table
    halves = np.zeros((2, n, n), dtype=np.intp)
    for half, (middle, member) in enumerate(((x, z), (z, x))):
        at = np.flatnonzero((y == middle) & (x < z))
        halves[half, x[at], z[at]] = np.select(
            [_same_want(want, at, member[at], c) for c in (0, 1, 2)], [0, 1, 2], -1)
    at = np.flatnonzero((x == z) & (y != x))
    minimal = np.ones(n, dtype=bool)
    minimal[x[at[~_same_want(want, at, 0, 0)]]] = False
    relations = _relations_of_halves(*(h[np.triu_indices(n, 1)] for h in halves))
    return relations, np.flatnonzero(minimal)


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
    rule, or the spin rule) on index arrays alone, never from a model grid.
    The rule runs once, for the triple table's want (``_expected_table``);
    the expected pair relations and minimal elements are read off that want
    (``_expected_pairs``), so a fault in it fails ``triple_products`` and
    can fail them too.  The observed relations of all pairs come from one
    ``classify_relation`` call on the grid's family; a pair apart by its
    supports forms no product there.  The triple table
    (``_triple_table``) is exhaustive: every triple with the first index
    not after the third ({a,b,c} = {c,b,a}) gets a verdict, at every size.
    The rows that the supports of the grid's own matrices let be nonzero,
    and the rows the rule wants nonzero, are evaluated in batched family
    tables (``ExactFamily``); every other row is zero by its supports and
    wants 0, so it is decided from the supports with no product formed.
    Every other verdict is read off the table (``_table_verdicts``):
    minimality, since {v,w,v} = v w* v; the orthogonality of the spin
    partners, since {u,u,u~} = 0 iff u* u~ = u u~* = 0 for a partial
    isometry u; and the kind's named identities (``_named_table``).
    Failures are reported, never raised, each check listing its first
    failures in loop order.
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

    fam = grid.family()
    px, pz = np.triu_indices(n, 1)
    got = classify_relation(fam, px, pz)
    table = _triple_table(grid)
    _, (x, y, z), _, ok = table
    relations, minimal = _expected_pairs(table, n)
    mism = [(idxs[px[t]], idxs[pz[t]], relations[t].value, got[t].value)
            for t in np.flatnonzero(np.asarray(got) != np.asarray(relations))[:3]]
    rep.add_counted("pairwise_relations", not mism, len(px), "pairs",
                    failure=f"mismatch {mism}")

    # {v, w, v} = 0 for a minimal v and every w != v, {u_i, u_i, u~_i} = 0
    # for the spin partners, then the named identities
    vs, ws = np.repeat(minimal, n), np.tile(np.arange(n), len(minimal))
    vs, ws = vs[vs != ws], ws[vs != ws]
    pos = {idx: t for t, idx in enumerate(idxs)}
    r = grid.params["r"] if grid.kind == "spin" else 0
    us, uts = (np.array([pos[(tag, i)] for i in range(1, r + 1)], dtype=np.intp)
               for tag in ("u", "ut"))
    forms, form, params, *named = _named_table(grid)
    good = _table_verdicts(fam, table, *(np.concatenate(p) for p in zip(
        (vs, ws, vs, 0 * vs, 0 * vs), (us, us, uts, 0 * us, 0 * us), named)))
    minimal_ok, apart, named_ok = np.split(good, [len(vs), len(vs) + r])

    notmin = [(idxs[v], idxs[w]) for v, w in zip(vs[~minimal_ok], ws[~minimal_ok])]
    if not len(vs):
        rep.flag("minimality", "0 pairs: nothing to check")
    else:
        rep.add_counted("minimality", not notmin, len(minimal), "elements",
                        failure=f"failed {notmin[:3]}")
    badt = [(idxs[x[t]], idxs[y[t]], idxs[z[t]]) for t in np.flatnonzero(~ok)[:3]]
    rep.add_counted("triple_products", not badt, n * n * (n + 1) // 2, "triples (exhaustive)",
                    failure=f"failed {badt}")
    _report_named(grid, rep, _named_summary(forms, form, params, named_ok), apart)
    return rep


def _same_want(want: tuple, row: np.ndarray, member: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Whether the want at each row is coef / 2 times the member."""
    kidx, kcoef, q = want
    kidx, kcoef = kidx[row], kcoef[row]
    return (kcoef * 2 == coef * q) & ((kidx == member) | (kcoef == 0))


def _table_verdicts(fam: ExactFamily, table: tuple, a, b, c, member, coef) -> np.ndarray:
    """Whether 2 {u_a, u_b, u_c} = coef u_member at each instance.

    The instance is the table's row (min(a, c), b, max(a, c)), since
    {a,b,c} = {c,b,a}.  Where its want is the table's want there, the
    table's verdict is its verdict: a row the table did not evaluate is
    zero and wants 0.  An instance whose want differs, or whose row failed,
    is evaluated on its own.
    """
    rows, _, want, ok = table
    row = _table_row(len(fam), np.minimum(a, c), b, np.maximum(a, c))
    at = np.minimum(np.searchsorted(rows, row), len(rows) - 1)
    good = np.where(rows[at] == row, ok[at] & _same_want(want, at, member, coef), coef == 0)
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

    def is_canonical(self) -> bool:
        """Whether every e_ij is the size x size matrix unit E_ij."""
        m = self.size
        return (self.family.shape == (m, m)
                and bool(_same_blocks(self.family, _canonical_units(m).part(), 1)[0]))


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


def _canonical_units(m: int) -> ExactFamily:
    """The m x m matrix units E_ij as one family, E_ij at member (i - 1) m + j - 1."""
    return ExactFamily(_stacks=[(np.eye(m * m, dtype=np.int64).reshape(-1, m, m), None, 1)])


def _same_blocks(fam: ExactFamily, want: tuple, count: int) -> np.ndarray:
    """For each of ``count`` equal blocks of ``fam``, whether its members
    are, in order, those of the same block of the (re, im, den) stack
    ``want``: one stacked comparison."""
    n = len(fam)
    both = ExactFamily(_stacks=[fam.part(), want])
    return both.same(np.arange(n), np.arange(n, 2 * n)).reshape(count, -1).all(axis=1)


def _first_failures(errors: list, ok: np.ndarray) -> list:
    """(grid, row) of the first failing row of each grid that has no error
    yet: ``ok`` holds one row of verdicts per grid."""
    return [(k, int(np.argmin(ok[k]))) for k in np.flatnonzero(~ok.all(axis=1)).tolist()
            if errors[k] is None]


def _one_grid(transform, g: Grid) -> MatrixUnitFamily:
    """A batched transform run on the one grid ``g``."""
    units, isotope, errors = transform(g, g.family(), 1)
    if errors[0] is not None:
        raise TransformError(errors[0])
    return MatrixUnitFamily(g.params["m"], units, isotope.member(0))


def hermitian_to_matrix_units(g: Grid) -> MatrixUnitFamily:
    """Matrix units e_ij = u_ii . u_ij (isotope product at v = sum u_ii).

    Verifies the matrix-unit relations, the involution, the sum of the
    diagonal units and the recovery u_ij = e_ij + e_ji, all exactly, on
    one stack of the units from the first product to the return; failures
    raise ``TransformError`` naming the first failing relation in the
    order of the relations above.
    """
    return _one_grid(_hermitian_units, g)


def symplectic_to_matrix_units(g: Grid) -> MatrixUnitFamily:
    """Matrix units from a symplectic grid of size at least 5.

    The diagonal units e_ii = u_ij u_jm* u_im must be independent of the
    admissible index pair (j, m); the off-diagonal ones are
    e_ij = e_ii e_ii* u_ij e_jj* e_jj.  All defining relations are verified
    exactly, on one stack of the units from the first product to the
    return; failures raise ``TransformError`` naming the first failing
    relation in the order above.
    """
    return _one_grid(_symplectic_units, g)


def _hermitian_units(g: Grid, elements: ExactFamily, count: int) -> tuple:
    """``hermitian_to_matrix_units`` for ``count`` grids of the kind, size
    and indices of ``g`` at once, whose elements ``elements`` holds grid
    after grid.  Every relation is one table over all grids.  Returns the
    units (m^2 per grid, grid after grid), the isotope units v (one per
    grid) and, per grid, None or the message of its first failing
    relation."""
    if g.kind != "hermitian":
        raise TransformError("hermitian_to_matrix_units requires a hermitian grid")
    m, n = g.params["m"], len(g)
    i, j = _loops((m, m))  # the pairs (i, j), in loop order
    key = _pair_keys(g, i, j)
    diag, ends = key[(i - 1) * (m + 1)], key[(j - 1) * (m + 1)]  # u_ii and u_jj
    nn, mm, grid_no = n * count, m * m, np.arange(count)
    # the grid elements, then each grid's v; the isotope unit v must be a
    # partial isometry
    fam = ExactFamily(_stacks=[elements.part(), elements.sums(blocks([key[::m + 1]], n, count),
                                                             np.ones((count, m)))])
    errors = [None if f is None else f"isotope unit v = sum u_ii: {f}"
              for f in PartialIsometry.family_failures(fam, nn + grid_no)]
    units = ExactFamily(_stacks=[fam.ternary(blocks(diag, n, count), np.repeat(nn + grid_no, mm),
                                             blocks(key, n, count))])
    t, v, every = np.arange(mm), count * mm + grid_no, np.arange(count * mm)
    # the grid elements at the keys, then e_ij + e_ji (e_ii alone) per unit,
    # in a family apart from the next: the unit table copies that one to
    # float64, and a batch's memory grows with its grids
    recovered = np.column_stack([t, (j - 1) * m + i - 1])
    recovery = ExactFamily(_stacks=[fam.part(blocks(key, n, count)), units.sums(
        blocks(recovered, mm, count),
        np.tile(np.column_stack([np.ones(mm), i != j]), (count, 1)))])
    recovery = recovery.same(every, every + mm * count)
    # one family: the units of every grid, each grid's v, each grid's sum of
    # its diagonal units at s, then the grid elements from elem
    fam = ExactFamily(_stacks=[units.part(), fam.part(nn + grid_no),
                               units.sums(blocks([t[i == j]], mm, count), np.ones((count, m))),
                               fam.part(slice(nn))])
    s, elem = v + count, v[-1] + count + 1
    keys = list(zip(i.tolist(), j.tolist()))
    involution, product = _unit_table(fam, keys, count)
    involution, product = involution.reshape(count, mm), product.reshape(count, mm, mm)
    for k, r in _first_failures(errors, involution & product.all(axis=2)):
        i0, j0 = keys[r]
        if not involution[k, r]:
            errors[k] = f"involution fails: e_{i0}{j0}^# != e_{j0}{i0}"
        else:
            k0, l0 = keys[int(np.argmin(product[k, r]))]
            errors[k] = f"product fails: e_{i0}{j0} . e_{k0}{l0} != delta e_{i0}{l0}"
    for k, _ in _first_failures(errors, fam.same(v, s)[:, None]):
        errors[k] = "sum of diagonal units is not the isotope unit"
    for k, r in _first_failures(errors, recovery.reshape(count, mm)):
        i0, j0 = keys[r]
        errors[k] = f"recovery fails: u_{i0}{j0} != e_{i0}{j0} + e_{j0}{i0}"
    # u_ii . u_ij is e_ij itself; compare u_ij . u_jj with it
    off = t[i != j]
    same = fam.equal(elem + blocks(key[off], n, count), np.repeat(v, len(off)),
                     elem + blocks(ends[off], n, count), scaled_members(blocks(off, mm, count)))
    for k, r in _first_failures(errors, same.reshape(count, -1)):
        i0, j0 = keys[off[r]]
        errors[k] = f"u_{i0}{i0}.u_{i0}{j0} != u_{i0}{j0}.u_{j0}{j0}"
    return units, ExactFamily(_stacks=[fam.part(v)]), errors


def _symplectic_units(g: Grid, elements: ExactFamily, count: int) -> tuple:
    """``symplectic_to_matrix_units`` for ``count`` grids of the kind, size
    and indices of ``g`` at once, returned as ``_hermitian_units`` returns
    them."""
    if g.kind != "symplectic":
        raise TransformError("symplectic_to_matrix_units requires a symplectic grid")
    m, n = g.params["m"], len(g)
    if m < SYMPLECTIC_TRANSFORM_MIN_SIZE:
        raise TransformError(
            f"symplectic transform requires size >= {SYMPLECTIC_TRANSFORM_MIN_SIZE}")
    i, j = _loops((m, m), lambda i, j: i != j)  # the pairs i != j, in loop order
    t, p, grid_no = np.arange(len(i)), len(i), np.arange(count)
    at = np.zeros((m + 1, m + 1), dtype=np.intp)
    at[i, j] = t
    tt = blocks(t, p, count)  # u_ij of every grid

    def e(idx):  # the positions of e_ii for the diagonal indices idx, per grid
        return count * p + blocks(np.asarray(idx) - 1, m, count)

    # u_ij = -u_ji for i > j
    fam = ExactFamily(_stacks=[elements.sums(blocks(_pair_keys(g, i, j)[:, None], n, count),
                                             np.tile(np.where(i < j, 1, -1)[:, None],
                                                     (count, 1)))])
    # the first admissible pair (j, m) defines e_ii; every other must agree
    a, b, c = _loops((m, m, m), lambda a, b, c: (a != b) & (a != c) & (b != c))
    first = np.unique(a, return_index=True)[1]
    # one family: u_ab for a != b of every grid, then e_11 .. e_mm of every
    # grid, rebound so that the first is freed (memory grows with the batch)
    fam = ExactFamily(_stacks=[fam.part(), fam.ternary(*(blocks(at[x, y][first], p, count)
                                                         for x, y in ((a, b), (b, c), (a, c))))])
    d = e(np.arange(1, m + 1))
    fail = ~fam.equal(blocks(at[a, b], p, count), blocks(at[b, c], p, count),
                      blocks(at[a, c], p, count), scaled_members(e(a))).reshape(count, -1)
    gone = fam.vanish(d, d).reshape(count, m)  # e e* = 0 iff e = 0
    errors = [None] * count
    for k in np.flatnonzero(fail.any(axis=1) | gone.any(axis=1)).tolist():
        row = np.argmax(fail[k]) if fail[k].any() else None
        ambiguous = a[row] if row is not None else m + 1
        vanished = np.argmax(gone[k]) + 1 if gone[k].any() else m + 1
        if ambiguous <= min(vanished, m):
            errors[k] = (f"diagonal unit e_{ambiguous}{ambiguous} is ambiguous at pair "
                         f"({b[row]},{c[row]})")
        else:
            errors[k] = f"diagonal unit e_{vanished}{vanished} vanished"
    # per i: e_ii is a partial isometry, then orthogonal to each e_jj
    ei, ej = e(i), e(j)
    apart = fam.vanish(ei, ej, star_first=True) & fam.vanish(ei, ej)
    isometry = fam.equal(d, d, d, scaled_members(d))
    ok = np.column_stack([isometry, apart.reshape(-1, m - 1)]).reshape(count, -1)
    for k, r in _first_failures(errors, ok):
        row, col = divmod(r, m)
        if not col:
            errors[k] = f"e_{row + 1}{row + 1} is not a partial isometry"
        else:
            k0 = j[row * (m - 1) + col - 1]
            errors[k] = f"e_{row + 1}{row + 1} not orthogonal to e_{k0}{k0}"
    # e_ij is e_ii e_ii* u_ij times e_jj* e_jj, on a family of e_ii e_ii* u_ij
    # of every grid, then e_11 .. e_mm of every grid, freed once it is read
    units = ExactFamily(_stacks=[fam.part(d), ExactFamily(
        _stacks=[fam.ternary(ei, ei, tt), fam.part(d)]).ternary(tt, ej, ej)])
    # the units of each grid in key order: e_11 .. e_mm, then e_ij for i != j
    keys = [(k, k) for k in range(1, m + 1)] + list(zip(i.tolist(), j.tolist()))
    size = len(keys)
    at_unit = np.concatenate([blocks([np.arange(m)], m, count),
                              count * m + blocks([t], p, count)], axis=1)
    # u_ij for i != j of every grid, then e_ij - e_ji in the order of the
    # u_ij, in a family apart from the unit table's, as for the hermitian one
    recovered = np.stack([at_unit[:, m + t], at_unit[:, m + at[j, i]]], axis=-1)
    recovery = ExactFamily(_stacks=[fam.part(slice(count * p)), units.sums(
        recovered.reshape(-1, 2), np.tile([1, -1], (count * p, 1)))]).same(tt, count * p + tt)
    for k, r in _first_failures(errors, recovery.reshape(count, p)):
        errors[k] = f"recovery fails: u_{i[r]}{j[r]} != e_{i[r]}{j[r]} - e_{j[r]}{i[r]}"
    # one family: the units of every grid in key order, then each grid's v
    v = count * size + grid_no
    joined = ExactFamily(_stacks=[units.part(at_unit.ravel()),
                                  units.sums(at_unit[:, :m], np.ones((count, m)))])
    involution, product = _unit_table(joined, keys, count)
    involution, product = involution.reshape(count, size), product.reshape(count, size, size)
    for k, r in _first_failures(errors, involution & product.all(axis=2)):
        i0, j0 = keys[r]
        if not involution[k, r]:
            errors[k] = f"involution fails on e_{i0}{j0}"
        else:
            l0, k0 = keys[int(np.argmin(product[k, r]))]
            errors[k] = f"unit product fails: e_{i0}{j0} v* e_{l0}{k0}"
    # e_ii u_ij* e_ii = 0 and {e_ii, e_ii, u_ij} = u_ij / 2 for i != j, then
    # u_ij e_kk* = 0 = e_kk* u_ij for each k outside {i, j}
    ts, ks = _loops((p, m), lambda s, k: (k != i[s - 1]) & (k != j[s - 1]))
    ts = blocks(ts - 1, p, count)
    outside = fam.vanish(ts, e(ks)) & fam.vanish(e(ks), ts, star_first=True)
    ok = np.column_stack([
        fam.equal(ei, tt, ei), fam.equal(ei, ei, tt, scaled_members(tt, 1, 2), sym=True),
        outside.reshape(-1, m - 2)]).reshape(count, -1)
    for k, r in _first_failures(errors, ok):
        row, col = divmod(r, m)
        i0, j0 = i[row], j[row]
        if col == 0:
            errors[k] = f"e_{i0}{i0} u_{i0}{j0}* e_{i0}{i0} != 0"
        elif col == 1:
            errors[k] = f"u_{i0}{j0} is not Peirce-1 for e_{i0}{i0}"
        else:
            k0 = ks[row * (m - 2) + col - 2]
            errors[k] = f"u_{i0}{j0} not orthogonal to e_{k0}{k0}"
    # the units in the loop order of (p, q): e_pp at p - 1, e_pq at m + at[p, q]
    pp, qq = _loops((m, m))
    order = np.where(pp == qq, pp - 1, m + at[pp, qq])
    return (ExactFamily(_stacks=[units.part(at_unit[:, order].ravel())]),
            ExactFamily(_stacks=[joined.part(v)]), errors)


def conjugation_naturality(g: Grid, pairs: Iterable[Tuple[ExactMatrix, ExactMatrix]]) -> tuple:
    """Naturality of the matrix-unit transform of the hermitian or
    symplectic grid ``g`` under each conjugation u -> left u right of
    ``pairs``: whether the transform of the conjugated grid gives exactly
    the conjugated matrix units left E_ij right.

    The pairs run in batches of at most ``_NATURALITY_CELLS`` cells.  A
    batch conjugates the grid and the canonical units for all its
    pairs at once, checks every conjugated element as a partial isometry in
    one table, runs the batched transform and compares all units in one
    stacked pass.  Returns two lists, per pair in order: whether it is
    natural, and None or its first error, which is the failed
    partial-isometry check of a conjugated element, else the transform's
    first failing relation.
    """
    transform = {"hermitian": _hermitian_units, "symplectic": _symplectic_units}.get(g.kind)
    if transform is None:
        raise TransformError("naturality needs a hermitian or symplectic grid")
    m, n, (rows, cols) = g.params["m"], len(g), g.family().shape
    per = max(1, _NATURALITY_CELLS // ((n + 2 * m * m) * rows * cols))
    canonical, pairs = _canonical_units(m), iter(pairs)
    natural, errors = [], []
    while batch := list(itertools.islice(pairs, per)):
        lefts, rights = zip(*batch)
        count = len(batch)
        elements = ExactFamily(_stacks=[g.family().conjugate(lefts, rights)])
        checked = PartialIsometry.family_failures(elements, np.arange(count * n))
        units, _, failed = transform(g, elements, count)
        for k in range(count):
            first = next(filter(None, checked[k * n:(k + 1) * n]), None)
            failed[k] = failed[k] if first is None else f"conjugated grid: {first}"
        same = _same_blocks(units, canonical.conjugate(lefts, rights), count)
        natural += [bool(ok) and error is None for ok, error in zip(same, failed)]
        errors += failed
    return natural, errors
