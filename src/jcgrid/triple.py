"""Jordan-triple and ternary operations on exact matrices.

The triple product is {a,b,c} = (a b* c + c b* a)/2; the ternary product is
a b* c.  Everything here is exact: a relation holds iff the residual matrix
is identically zero.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionError
from .numlin import ExactFamily, ExactMatrix, _product_sum, blocks, scaled_members


class GridRelation(enum.Enum):
    ORTHOGONAL = "orthogonal"
    COLINEAR = "colinear"
    GOVERNS_FIRST_OVER_SECOND = "governs-first-over-second"
    GOVERNS_SECOND_OVER_FIRST = "governs-second-over-first"
    EQUAL = "equal"
    UNCLASSIFIED = "unclassified"


class PartialIsometry:
    """An exact matrix v with v v* v = v, validated at construction: the
    tripotent identity {v,v,v} = v, one ``triple_product``.

    Its support projections are the Gram products kept on the matrix:
    v v* = ``v.gram()`` is formed by the validation and v* v =
    ``v.adjoint().gram()`` on first use, so every caller, and every
    ``triple_product`` with a repeated operand, reads the same two objects.
    A ``Grid`` keeps matrices, not this wrapper: it checks them all at once
    with ``check_family``.
    """

    __slots__ = ("mat",)
    # the ValueError messages, also of a grid's check of its matrices
    ZERO = "partial isometry must be nonzero"
    FAILS = "matrix fails the partial isometry identity v v* v = v"

    def __init__(self, mat: ExactMatrix):
        if mat.is_zero():
            raise ValueError(self.ZERO)
        if triple_product(mat, mat, mat) != mat:
            raise ValueError(self.FAILS)
        self.mat = mat

    @classmethod
    def family_failures(cls, fam: ExactFamily, idx: np.ndarray) -> list:
        """Check the members ``idx`` of ``fam`` in one family table: v != 0,
        read off the numerators, and v v* v = v.  Per member, None or the
        ``ValueError`` message that ``PartialIsometry`` raises for it."""
        nonzero = fam.nonzero(idx)
        good = nonzero & fam.equal(idx, idx, idx, scaled_members(idx))
        return [None if ok else cls.FAILS if nz else cls.ZERO
                for ok, nz in zip(good.tolist(), nonzero.tolist())]

    @classmethod
    def check_family(cls, fam: ExactFamily, idx: np.ndarray) -> None:
        """``family_failures``, raising the first failure in order."""
        failure = next(filter(None, cls.family_failures(fam, idx)), None)
        if failure:
            raise ValueError(failure)

    def left_support(self) -> ExactMatrix:
        """v v*, the same object on every call."""
        return self.mat.gram()

    def right_support(self) -> ExactMatrix:
        """v* v, the same object on every call."""
        return self.mat.adjoint().gram()

    @property
    def shape(self):
        return self.mat.shape

    def __eq__(self, other):
        if not isinstance(other, PartialIsometry):
            return NotImplemented
        return self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"PartialIsometry({self.mat.rows}x{self.mat.cols}, nnz={self.mat.nnz()})"


def _check_triple_shapes(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> None:
    # a b* c and c b* a both exist exactly when the three shapes agree
    if not a.shape == b.shape == c.shape:
        raise DimensionError("triple product needs a, b and c of one shape")


def triple_product(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """{a,b,c} = (a b* c + c b* a)/2, exact, formed as one sum of two
    products; a repeated operand reads its kept Gram products.  For
    a = b = c both terms are v v* v, so {v,v,v} is the one product
    ``v.gram() * v``."""
    _check_triple_shapes(a, b, c)
    if a is b is c:
        return a.gram() * a
    if a is b:
        terms = ((a.gram(), c), (c, a.adjoint().gram()))
    elif b is c:
        terms = ((a, b.adjoint().gram()), (b.gram(), a))
    else:
        bstar = b.adjoint()
        terms = ((a * bstar, c), (c * bstar, a))
    return _product_sum(terms, 2)


# (c, c') -> the relation of a pair with {u_x, u_x, u_z} = c u_z / 2 and
# {u_z, u_z, u_x} = c' u_x / 2; any other pair is unclassified.  (0, 0) is
# orthogonal: for a partial isometry v, {v,v,w} = 0 iff v* w = v w* = 0.
_RELATION_OF_HALVES = {(0, 0): GridRelation.ORTHOGONAL, (1, 1): GridRelation.COLINEAR,
                       (2, 1): GridRelation.GOVERNS_FIRST_OVER_SECOND,
                       (1, 2): GridRelation.GOVERNS_SECOND_OVER_FIRST}


def _relations_of_halves(c: np.ndarray, c2: np.ndarray) -> list:
    """The relation of each pair of halves (c[t], c2[t])."""
    return [_RELATION_OF_HALVES.get(pair, GridRelation.UNCLASSIFIED)
            for pair in zip(c.tolist(), c2.tolist())]


def classify_relation(fam: ExactFamily, xs, zs) -> list:
    """The grid relation of members xs[t] and zs[t] of ``fam``, exactly, one
    per pair in order: equal, read off the numerators; orthogonal iff
    u_x* u_z = u_x u_z* = 0, each product zero outright where the rows (the
    columns) of the two do not meet (``ExactFamily.meets``), so a pair
    apart by its supports forms no product; else colinear (each in the
    other's Peirce-1 space), governing (one in the other's Peirce-2 space,
    which sits in its Peirce-1 space) or unclassified, by the halves
    (c, c').  Both directions run in one batched family table, c = 2 only
    where c = 1 failed.
    """
    xs, zs = (np.asarray(v, dtype=np.intp) for v in (xs, zs))
    same = fam.same(xs, zs)
    apart = np.ones(len(xs), dtype=bool)
    for meet, star_first in zip(fam.meets(), (True, False)):
        t = np.flatnonzero(apart & meet[xs, zs])
        apart[t] = fam.vanish(xs[t], zs[t], star_first=star_first)
    rest = np.flatnonzero(~same & ~apart)
    # c at the rows (x, x, z), then c' at the rows (z, z, x); -1: neither 1 nor 2
    a, b = np.concatenate([xs[rest], zs[rest]]), np.concatenate([zs[rest], xs[rest]])
    halves = np.where(fam.equal(a, a, b, scaled_members(b, 1, 2), sym=True), 1, -1)
    redo = np.flatnonzero(halves < 0)
    if redo.size:
        two = fam.equal(a[redo], a[redo], b[redo], scaled_members(b[redo], 2, 2), sym=True)
        halves[redo[two]] = 2
    c = np.zeros((2, len(xs)), dtype=np.intp)  # (0, 0) on the orthogonal pairs
    c[:, rest] = halves.reshape(2, -1)
    return [GridRelation.EQUAL if equal else rel
            for equal, rel in zip(same.tolist(), _relations_of_halves(*c))]


def live_products(meets: tuple, a, sym: bool = False) -> np.ndarray:
    """mask[t, b, c]: whether a b* c at a = a[t] (with ``sym``, a b* c +
    c b* a) can be nonzero by the supports ``meets`` (rows, cols) of
    ``ExactFamily.meets``: a b* is zero where the columns of a and b do not
    meet, and b* c where the rows of b and c do not."""
    rows, cols = meets
    live = cols[a, :, None] & rows[None]
    if sym:
        live |= rows[a, :, None] & cols[None]
    return live


def isotope_product(v: PartialIsometry, a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a v* b: the associative product of the isotope algebra at v."""
    if a.shape != v.shape or b.shape != v.shape:
        raise DimensionError("isotope product requires operands shaped like v")
    return a * v.mat.adjoint() * b


def isotope_involution(v: PartialIsometry, a: ExactMatrix) -> ExactMatrix:
    """v a* v: the involution of the isotope algebra at v."""
    if a.shape != v.shape:
        raise DimensionError("isotope involution requires an operand shaped like v")
    return v.mat * a.adjoint() * v.mat


def _unit_table(fam: ExactFamily, keys: list, count: int = 1):
    """The matrix-unit table of the isotope algebra at v, for ``count``
    grids at once, on a family that holds each grid's units e_ij in the
    order of ``keys``, grid after grid, then each grid's v in the same
    order: per unit, whether v e_ij* v = e_ji (the involution), and the row
    of e_ij v* e_kl = delta_jk e_il over the units (k, l) of its grid (the
    product).  Shapes (count * units,) and (count * units, units)."""
    i, j = np.array(keys, dtype=np.intp).T
    n = len(i)
    at = np.zeros((i.max() + 1,) * 2, dtype=np.intp)
    at[i, j] = np.arange(n)
    v = n * count + np.arange(count)
    involution = fam.equal(np.repeat(v, n), np.arange(n * count), np.repeat(v, n),
                           scaled_members(blocks(at[j, i], n, count)))
    a, c = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
    hit = j[a] == i[c]
    product = np.empty((count, n * n), dtype=bool)
    # e_il where j = k, and the zero matrix, which needs no want, elsewhere
    for rows, want in ((hit, at[i[a], j[c]]), (~hit, None)):
        rows = np.flatnonzero(rows)
        product[:, rows] = fam.equal(
            blocks(a[rows], n, count), np.repeat(v, len(rows)), blocks(c[rows], n, count),
            None if want is None else scaled_members(blocks(want[rows], n, count))
        ).reshape(count, -1)
    return involution, product.reshape(n * count, n)
