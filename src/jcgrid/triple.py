"""Jordan-triple and ternary operations on exact matrices.

The triple product is {a,b,c} = (a b* c + c b* a)/2; the ternary product is
a b* c.  Everything here is exact: a relation holds iff the residual matrix
is identically zero.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import DimensionError
from .numlin import ExactFamily, ExactMatrix, _product_sum, scaled_members


class GridRelation(enum.Enum):
    ORTHOGONAL = "orthogonal"
    COLINEAR = "colinear"
    GOVERNS_FIRST_OVER_SECOND = "governs-first-over-second"
    GOVERNS_SECOND_OVER_FIRST = "governs-second-over-first"
    EQUAL = "equal"
    UNCLASSIFIED = "unclassified"


class PartialIsometry:
    """An exact matrix v with v v* v = v, validated at construction.

    Its support projections are the Gram products kept on the matrix:
    v v* = ``v.gram()`` is formed by the validation and v* v =
    ``v.adjoint().gram()`` on first use, so every caller, and every
    ``ternary_product`` with a repeated operand, reads the same two objects.
    A ``Grid`` checks its matrices with ``check_family`` instead and wraps
    each with ``_checked``; their v v* is formed on first use too.
    """

    __slots__ = ("mat",)
    # the ValueError messages, also of a grid's check of its matrices
    ZERO = "partial isometry must be nonzero"
    FAILS = "matrix fails the partial isometry identity v v* v = v"

    def __init__(self, mat: ExactMatrix):
        if mat.is_zero():
            raise ValueError(self.ZERO)
        if mat.gram() * mat != mat:
            raise ValueError(self.FAILS)
        self.mat = mat

    @classmethod
    def check_family(cls, fam: ExactFamily, idx: np.ndarray) -> None:
        """Check the members ``idx`` of ``fam`` in one family table: v != 0,
        read off the numerators, and v v* v = v.  The first failure in order
        raises the ``ValueError`` that ``PartialIsometry`` raises for it."""
        nonzero = fam.re[idx].any(axis=(1, 2))
        if fam.im is not None:
            nonzero |= fam.im[idx].any(axis=(1, 2))
        bad = np.flatnonzero(~nonzero | ~fam.equal(idx, idx, idx, scaled_members(idx)))
        if bad.size:
            raise ValueError(cls.FAILS if nonzero[bad[0]] else cls.ZERO)

    @classmethod
    def _checked(cls, mat: ExactMatrix) -> "PartialIsometry":
        """The partial isometry ``mat``, which its caller has already checked."""
        v = cls.__new__(cls)
        v.mat = mat
        return v

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


def ternary_product(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """a b* c, exact; a repeated operand reads its kept Gram product."""
    if a.cols != b.cols or b.rows != c.rows:
        raise DimensionError("a b* c is not defined for these shapes")
    if a is b:
        return a.gram() * c
    if b is c:
        return a * c.adjoint().gram()
    return a * b.adjoint() * c


def triple_product(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """{a,b,c} = (a b* c + c b* a)/2, exact, formed as one sum of two
    products; a repeated operand reads its kept Gram products."""
    _check_triple_shapes(a, b, c)
    if a is b:
        terms = ((a.gram(), c), (c, a.adjoint().gram()))
    elif b is c:
        terms = ((a, b.adjoint().gram()), (b.gram(), a))
    else:
        bstar = b.adjoint()
        terms = ((a * bstar, c), (c * bstar, a))
    return _product_sum(terms, 2)


def classify_relation(v: PartialIsometry, w: PartialIsometry) -> GridRelation:
    """Classify the grid relation between two partial isometries, exactly.

    Orthogonal iff v*w = v w* = 0; colinear iff each lies in the other's
    Peirce-1 space; governs iff one lies in the other's Peirce-2 space while
    that one sits in its Peirce-1 space.  Anything else is unclassified.
    """
    if v.shape != w.shape:
        raise DimensionError("relation requires equal shapes")
    if v.mat == w.mat:
        return GridRelation.EQUAL
    if (v.mat.adjoint() * w.mat).is_zero() and (v.mat * w.mat.adjoint()).is_zero():
        return GridRelation.ORTHOGONAL
    # twice the triple products: 2{w,w,v} = w w* v + v w* w, read off the supports
    wwv = _product_sum(((w.left_support(), v.mat), (v.mat, w.right_support())))
    vvw = _product_sum(((v.left_support(), w.mat), (w.mat, v.right_support())))
    if wwv == v.mat:
        if vvw == w.mat:
            return GridRelation.COLINEAR
        if vvw == w.mat.scale(2):
            return GridRelation.GOVERNS_FIRST_OVER_SECOND
    elif vvw == w.mat and wwv == v.mat.scale(2):
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    return GridRelation.UNCLASSIFIED


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


def _unit_table(fam: ExactFamily, keys: list):
    """The matrix-unit table of the isotope algebra at v, on a family that
    holds units e_ij in the order of ``keys``, then v: per unit, whether
    v e_ij* v = e_ji (the involution), and the row of e_ij v* e_kl =
    delta_jk e_il over the units (k, l) (the product)."""
    i, j = np.array(keys, dtype=np.intp).T
    at = np.zeros((i.max() + 1,) * 2, dtype=np.intp)
    at[i, j] = np.arange(len(i))
    v = np.full(len(i), len(i))
    involution = fam.equal(v, range(len(i)), v, scaled_members(at[j, i]))
    a, c = np.repeat(np.arange(len(i)), len(i)), np.tile(np.arange(len(i)), len(i))
    hit = j[a] == i[c]
    product = fam.equal(a, np.full(len(a), len(i)), c,
                        scaled_members(np.where(hit, at[i[a], j[c]], 0), hit.astype(np.int64)))
    return involution, product.reshape(len(i), len(i))
