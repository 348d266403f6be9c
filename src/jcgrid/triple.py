"""Jordan-triple and ternary operations on exact matrices.

The triple product is {a,b,c} = (a b* c + c b* a)/2; the ternary product is
a b* c.  Everything here is exact: a relation holds iff the residual matrix
is identically zero.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .errors import CapacityError, DimensionError
from .numlin import EX_HALF, ExactMatrix

RANK_FAMILY_CAP = 24


class GridRelation(enum.Enum):
    ORTHOGONAL = "orthogonal"
    COLINEAR = "colinear"
    GOVERNS_FIRST_OVER_SECOND = "governs-first-over-second"
    GOVERNS_SECOND_OVER_FIRST = "governs-second-over-first"
    EQUAL = "equal"
    UNCLASSIFIED = "unclassified"


class PartialIsometry:
    """An exact matrix v with v v* v = v, validated at construction.

    It owns its support projections: v v* is kept from the validation and
    v* v is formed on first use; every caller reads them here.
    """

    __slots__ = ("mat", "_left", "_right")

    def __init__(self, mat: ExactMatrix):
        if mat.is_zero():
            raise ValueError("partial isometry must be nonzero")
        left = mat * mat.adjoint()
        if left * mat != mat:
            raise ValueError("matrix fails the partial isometry identity v v* v = v")
        self.mat = mat
        self._left = left
        self._right = None

    def left_support(self) -> ExactMatrix:
        """v v*, the same object on every call."""
        return self._left

    def right_support(self) -> ExactMatrix:
        """v* v, formed once."""
        if self._right is None:
            self._right = self.mat.adjoint() * self.mat
        return self._right

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
    """a b* c, exact."""
    if a.cols != b.cols or b.rows != c.rows:
        raise DimensionError("a b* c is not defined for these shapes")
    return a * b.adjoint() * c


def triple_product(a: ExactMatrix, b: ExactMatrix, c: ExactMatrix) -> ExactMatrix:
    """{a,b,c} = (a b* c + c b* a)/2, exact."""
    _check_triple_shapes(a, b, c)
    return (ternary_product(a, b, c) + ternary_product(c, b, a)).scale(EX_HALF)


def peirce_project(v: PartialIsometry, x: ExactMatrix, k: int) -> ExactMatrix:
    """Peirce projection P_k(v) x for k in {0, 1, 2}.

    With l = v v* and r = v* v these are l x r, l x (1-r) + (1-l) x r and
    (1-l) x (1-r); the three sum to x exactly.
    """
    if k not in (0, 1, 2):
        raise ValueError(f"Peirce index must be 0, 1 or 2, got {k}")
    if x.shape != v.shape:
        raise DimensionError("x must have the shape of v")
    l = v.left_support()
    r = v.right_support()
    il = ExactMatrix.identity(l.rows) - l
    ir = ExactMatrix.identity(r.rows) - r
    if k == 2:
        return l * x * r
    if k == 1:
        return l * x * ir + il * x * r
    return il * x * ir


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
    wwv = w.left_support() * v.mat + v.mat * w.right_support()
    vvw = v.left_support() * w.mat + w.mat * v.right_support()
    if wwv == v.mat:
        if vvw == w.mat:
            return GridRelation.COLINEAR
        if vvw == w.mat.scale(2):
            return GridRelation.GOVERNS_FIRST_OVER_SECOND
    elif vvw == w.mat and wwv == v.mat.scale(2):
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    return GridRelation.UNCLASSIFIED


def is_minimal_in_family(v: PartialIsometry, family: Sequence[PartialIsometry]) -> bool:
    """Minimality relative to a family: v w* v = 0 for every other member."""
    if all(v.mat != w.mat for w in family):
        raise ValueError("v must belong to the family")
    for w in family:
        if w.mat == v.mat:
            continue
        if not ternary_product(v.mat, w.mat, v.mat).is_zero():
            return False
    return True


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


def family_rank(family: Sequence[PartialIsometry]) -> int:
    """Largest pairwise-orthogonal subset of a family of minimal isometries.

    Exhaustive search (max clique on the orthogonality graph); the family is
    capped at 24 members.
    """
    n = len(family)
    if n == 0:
        return 0
    if n > RANK_FAMILY_CAP:
        raise CapacityError(f"family of {n} exceeds the cap of {RANK_FAMILY_CAP}")
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if classify_relation(family[i], family[j]) is GridRelation.ORTHOGONAL:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best = 0

    def extend(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = size
            return
        # pivot on the candidate with the most candidate-neighbours
        pivot = max(_bits(cand), key=lambda v: (adj[v] & cand).bit_count())
        for v in _bits(cand & ~adj[pivot]):
            extend(cand & adj[v], size + 1)
            cand &= ~(1 << v)

    extend((1 << n) - 1, 0)
    return best


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
