"""Signed-combination matrix spaces and the rank-1 grid calculus.

``build_hnk(n, k)`` realizes the n-dimensional Hilbertian space whose basis
element U_c is the sum of signed matrix units E_{J,I} over all disjoint pairs
(I, J) with |I| = k-1, |J| = n-k and complement {c}; rows and columns are
indexed by combinations in lexicographic order.  On top of that sit the
support products, the indices (i_R, i_L), the general u_IJ words with their
signature calculus and decomposition into "ones", the Peirce splittings, the
trace formula and the contractive projection onto the span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import CapacityError, DecompositionError, DimensionError
from .grids import Grid
from .numlin import (EX_HALF, ApproxMatrix, ExactFamily, ExactMatrix,
                     ExactScalar, block_diag, scaled_members, trace_norm)
from .report import VerificationReport
from .triple import PartialIsometry, triple_product

HNK_BUILD_CAP = 8
UIJ_VERIFY_CAP = 5


@dataclass(frozen=True, order=True)
class Combination:
    """A sorted subset of {1..n}; indexes rows/columns and the sets I, J."""

    n: int
    members: Tuple[int, ...]

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be strictly increasing")
        if self.members and (self.members[0] < 1 or self.members[-1] > self.n):
            raise ValueError("members must lie in 1..n")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "Combination":
        return cls(n, tuple(sorted(members)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members

    def union(self, other: "Combination") -> "Combination":
        return Combination.of(self.n, set(self.members) | set(other.members))

    def minus(self, other) -> "Combination":
        drop = set(other.members) if isinstance(other, Combination) else set(other)
        return Combination.of(self.n, set(self.members) - drop)

    def intersect(self, other: "Combination") -> "Combination":
        return Combination.of(self.n, set(self.members) & set(other.members))

    def complement(self) -> "Combination":
        return Combination.of(self.n, set(range(1, self.n + 1)) - set(self.members))

    def rank(self) -> int:
        """Lexicographic rank among all combinations of the same size."""
        r = len(self.members)
        rank = 0
        prev = 0
        for pos, m in enumerate(self.members):
            for x in range(prev + 1, m):
                rank += math.comb(self.n - x, r - pos - 1)
            prev = m
        return rank

    @classmethod
    def unrank(cls, n: int, r: int, rank: int) -> "Combination":
        if rank < 0 or rank >= math.comb(n, r):
            raise ValueError("rank out of range")
        members = []
        x = 1
        for pos in range(r):
            while True:
                block = math.comb(n - x, r - pos - 1)
                if rank < block:
                    members.append(x)
                    x += 1
                    break
                rank -= block
                x += 1
        return cls(n, tuple(members))

    def __str__(self):
        return "{" + ",".join(str(m) for m in self.members) + "}"


def combinations(n: int, r: int) -> List[Combination]:
    """All C(n, r) combinations in lexicographic order."""
    if r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    import itertools
    return [Combination(n, c) for c in itertools.combinations(range(1, n + 1), r)]


def signature_one(I: Combination, c: int, J: Combination) -> int:
    """Sign of the permutation (I ascending, c, J ascending) of (1..n).

    These are the signs of the Jordan-Wigner creation operators
    a_c* = Z^(c-1) x [[0,0],[1,0]] x I^(n-c) on (C^2)^n, mode 1 the most
    significant factor, with a_c* e_I = (-1)^#{i in I : i < c} e_{I+c}.  Take
    the block of a_c* from the (k-1)- to the k-particle sector, index row K
    by its complement J = K^c and multiply it by (-1)^(k-1) sgn(K, K^c), the
    sign of listing K and then K^c: that block is u_c of ``build_hnk``.
    """
    n = I.n
    if J.n != n:
        raise ValueError("I and J must share the ambient size")
    word = list(I.members) + [c] + list(J.members)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError("I, {c}, J must partition {1..n}")
    inv = sum(1 for a in range(len(word)) for b in range(a + 1, len(word))
              if word[a] > word[b])
    return -1 if inv % 2 else 1


@dataclass(frozen=True)
class SignedUnit:
    """A signed matrix unit epsilon * E_{J,I}; I, J disjoint with singleton
    complement {c}."""

    rowJ: Combination
    colI: Combination
    sign: int

    def __post_init__(self):
        if set(self.rowJ.members) & set(self.colI.members):
            raise ValueError("rowJ and colI must be disjoint")
        if len(self.rowJ) + len(self.colI) != self.rowJ.n - 1:
            raise ValueError("complement of rowJ | colI must be a singleton")

    @property
    def c(self) -> int:
        return self.colI.union(self.rowJ).complement().members[0]


@dataclass(frozen=True)
class HnkSpace:
    """The space H(n, k): n signed-unit basis matrices with multiplicity
    C(n-1, k-1), rows indexed by size-(n-k) combinations and columns by
    size-(k-1) combinations, lexicographically."""

    n: int
    k: int
    basis: Tuple[ExactMatrix, ...]
    row_combs: Tuple[Combination, ...]
    col_combs: Tuple[Combination, ...]
    multiplicity: int
    rank_one: "RankOneRealization" = field(compare=False, repr=False)

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.row_combs), len(self.col_combs))

    @cached_property
    def basis_array(self) -> np.ndarray:
        """The basis as one (n, rows, cols) complex array, converted once."""
        return np.stack([b.to_approx().array for b in self.basis])

    def row_index(self, J: Combination) -> int:
        return J.rank()

    def col_index(self, I: Combination) -> int:
        return I.rank()

    def unit(self, J: Combination, I: Combination, sign: int = 1) -> ExactMatrix:
        """The canonical ambient matrix unit (+/-)E_{J,I}."""
        return ExactMatrix.unit(len(self.row_combs), len(self.col_combs),
                                self.row_index(J), self.col_index(I),
                                ExactScalar(sign))

    def realization(self) -> "RankOneRealization":
        """The rank-1 realization validated when the space was built; every
        call returns the same object."""
        return self.rank_one

    def as_grid(self) -> Grid:
        """The basis as a rank-1 grid over the realization's elements."""
        return self.rank_one.as_grid()


def build_hnk(n: int, k: int) -> HnkSpace:
    """Construct H(n, k) and validate its defining invariants exactly, once:
    the space keeps the validated ``RankOneRealization``."""
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if n > HNK_BUILD_CAP:
        raise CapacityError(f"construction is capped at n <= {HNK_BUILD_CAP}")
    rows = combinations(n, n - k)
    cols = combinations(n, k - 1)
    m = math.comb(n - 1, k - 1)
    row_of = {J.members: r for r, J in enumerate(rows)}
    everything = frozenset(range(1, n + 1))
    basis = []
    for c in range(1, n + 1):
        re = np.zeros((len(rows), len(cols)), dtype=np.int64)
        for j, I in enumerate(cols):
            if c in I:
                continue
            r = row_of[tuple(sorted(everything.difference(I.members, (c,))))]
            re[r, j] = signature_one(I, c, rows[r])
        if np.count_nonzero(re) != m or np.abs(re).sum() != m:
            raise AssertionError(f"basis element {c} is not a sum of {m} signed units")
        basis.append(ExactMatrix(len(rows), len(cols), _arrays=(re, None, 1)))
    real = RankOneRealization(PartialIsometry(u) for u in basis)
    if indices(real) != (k, n - k + 1):
        raise AssertionError("constructed space has wrong support indices")
    return HnkSpace(n, k, tuple(basis), tuple(rows), tuple(cols), m, real)


class RankOneRealization:
    """An ordered rank-1 rectangular grid: pairwise colinear minimal partial
    isometries, validated exactly at construction.  ``indices``,
    ``build_uIJ`` and ``uij_family`` keep their results on it.

    Only colinearity, {a,a,b} = b/2 for every ordered pair, is checked;
    minimality against the family, a b* a = 0, follows from it.  With
    L = a a* and R = a* a:
      - {a,a,b} = b/2 reads L b + b R = b;
      - multiplying by L on the left and by R on the right gives L b R = 0;
      - a = L a R, so a b* a = a (L b R)* a = 0.
    """

    def __init__(self, elements: Iterable[PartialIsometry]):
        elements = tuple(elements)
        mats = [e.mat for e in elements]
        halves = [v.scale(EX_HALF) for v in mats]
        # triple_product reads each element's two kept Gram products and sums
        # their two products into one matrix: one construction per pair; the
        # trace of perfbench's hnk-build workload records
        # triple.triple_product here
        for a, va in enumerate(mats):
            for b, vb in enumerate(mats):
                if a != b and triple_product(va, va, vb) != halves[b]:
                    raise ValueError(f"elements {a + 1}, {b + 1} are not colinear")
        self.elements = elements
        self._indices: Optional[Tuple[int, int]] = None
        self._words: dict = {}
        self._uij_family: Optional[Mapping] = None

    @property
    def n(self) -> int:
        return len(self.elements)

    def matrix(self, i: int) -> ExactMatrix:
        """1-based access to the i-th element."""
        return self.elements[i - 1].mat

    def as_grid(self) -> Grid:
        """The elements, unchanged, as a rank-1 grid indexed 1..n."""
        return Grid("rank1", {"n": self.n}, list(enumerate(self.elements, start=1)))

    def __repr__(self):
        return f"RankOneRealization(n={self.n})"


def support_product(real: RankOneRealization, side: str, S) -> ExactMatrix:
    """Ordered product of support projections over ascending S.

    ``side='right'`` multiplies the left supports u_j u_j* (the (uu*)_S
    family governing i_R); ``side='left'`` the right supports u_j* u_j.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    members = sorted(set(S.members if isinstance(S, Combination) else S))
    if not members:
        raise ValueError("S must be nonempty")
    support = PartialIsometry.left_support if side == "right" else PartialIsometry.right_support
    out = None
    for j in members:
        p = support(real.elements[j - 1])
        out = p if out is None else out * p
    return out


def _support_chain(real: RankOneRealization, side: str,
                   members: Sequence[int]) -> Optional[ExactMatrix]:
    """Product over ``members`` or None for the empty set (identity)."""
    if not members:
        return None
    return support_product(real, side, members)


def indices(real: RankOneRealization) -> Tuple[int, int]:
    """(i_R, i_L): the largest sizes with nonvanishing support products.

    One witness set {1..r} per size suffices because vanishing at one size-r
    set forces vanishing at all of them.  Computed once per realization.
    """
    if real._indices is None:
        sizes = []
        for support in (PartialIsometry.left_support, PartialIsometry.right_support):
            acc, size = None, real.n
            for r, u in enumerate(real.elements, start=1):
                acc = support(u) if acc is None else acc * support(u)
                if acc.is_zero():
                    size = r - 1
                    break
            sizes.append(size)
        real._indices = tuple(sizes)
    return real._indices


def _require_tight(real: RankOneRealization) -> Tuple[int, int]:
    i_r, i_l = indices(real)
    if i_r + i_l != real.n + 1:
        raise ValueError(f"realization has i_R + i_L = {i_r + i_l} != n + 1 = {real.n + 1}")
    return i_r, i_l


def build_uIJ(real: RankOneRealization, I: Combination, J: Combination) -> ExactMatrix:
    """The word (uu*)_{I-J} u_{c1} u_{d1}* ... u_{c_{s+1}} (u*u)_{J-I} with
    the c's and d's taken in increasing order.  Built once per realization."""
    i_r, i_l = _require_tight(real)
    if len(I) != i_r - 1 or len(J) != i_l - 1:
        raise DimensionError(
            f"need |I| = {i_r - 1} and |J| = {i_l - 1}, got {len(I)}, {len(J)}")
    return _increasing_word(real, I, J)


def _increasing_word(real: RankOneRealization, I: Combination, J: Combination) -> ExactMatrix:
    word = real._words.get((I, J))
    if word is None:
        word = real._words[(I, J)] = _word_matrix(real, I, J, None, None)
    return word


def _word_matrix(real: RankOneRealization, I: Combination, J: Combination,
                 c_order: Optional[Sequence[int]], d_order: Optional[Sequence[int]]) -> ExactMatrix:
    C = sorted(I.union(J).complement().members) if c_order is None else list(c_order)
    D = sorted(I.intersect(J).members) if d_order is None else list(d_order)
    left = _support_chain(real, "right", sorted(I.minus(J).members))
    right = _support_chain(real, "left", sorted(J.minus(I).members))
    word = left
    for t, c in enumerate(C):
        uc = real.matrix(c)
        word = uc if word is None else word * uc
        if t < len(D):
            word = word * real.matrix(D[t]).adjoint()
    if right is not None:
        word = word * right
    return word


@dataclass(frozen=True)
class OnesFactor:
    """One factor of the decomposition (a "one" u_{I,c,J}), possibly starred."""

    unit: SignedUnit
    starred: bool

    @property
    def c(self) -> int:
        return self.unit.c

    def sets(self) -> Tuple[Combination, int, Combination]:
        return (self.unit.colI, self.unit.c, self.unit.rowJ)

    def matrix(self, real: RankOneRealization) -> ExactMatrix:
        """(uu*)_I u_c (u*u)_J, starred if marked: the (I, J) word of the
        realization, since I and J are disjoint with complement {c}."""
        m = _increasing_word(real, self.unit.colI, self.unit.rowJ)
        return m.adjoint() if self.starred else m


def _one(n: int, Iset, c: int, Jset) -> SignedUnit:
    I = Combination.of(n, Iset)
    J = Combination.of(n, Jset)
    return SignedUnit(rowJ=J, colI=I, sign=signature_one(I, c, J))


def decompose_into_ones(real: RankOneRealization, I: Combination, J: Combination,
                        c_order: Optional[Sequence[int]] = None,
                        d_order: Optional[Sequence[int]] = None) -> List[OnesFactor]:
    """Decompose the (I, J)-word into an alternating product of "ones".

    Follows the existence recursion: split off the first and last one, then
    recurse on the reversed middle word.  The result is validated: every
    factor is nonzero on ``real``, the alternating product reproduces the
    word up to sign, and consecutive index sets satisfy the uniqueness
    constraints.
    """
    i_r, i_l = _require_tight(real)
    if len(I) != i_r - 1 or len(J) != i_l - 1:
        raise DimensionError(
            f"need |I| = {i_r - 1} and |J| = {i_l - 1}, got {len(I)}, {len(J)}")
    n = real.n
    C = sorted(I.union(J).complement().members)
    D = sorted(I.intersect(J).members)
    c_order = list(c_order) if c_order is not None else C
    d_order = list(d_order) if d_order is not None else D
    if sorted(c_order) != C or sorted(d_order) != D:
        raise ValueError("c_order / d_order must permute the complement and the intersection")
    factors = _decompose(n, set(I.members), set(J.members), c_order, d_order)
    if c_order == C and d_order == D:
        word = _increasing_word(real, I, J)
    else:
        word = _word_matrix(real, I, J, c_order, d_order)
    prod = None
    for f in factors:
        fm = f.matrix(real)
        if fm.is_zero():
            raise DecompositionError(f"factor with middle element {f.c} vanished")
        prod = fm if prod is None else prod * fm
    if prod != word and prod != -word:
        raise DecompositionError("alternating product does not reproduce the word")
    for t in range(0, len(factors) - 1, 2):
        one, star = factors[t], factors[t + 1]
        nxt = factors[t + 2]
        if one.unit.colI != star.unit.colI:
            raise DecompositionError("uniqueness constraint I_t = K_t violated")
        if star.unit.rowJ != nxt.unit.rowJ:
            raise DecompositionError("uniqueness constraint L_t = J_{t+1} violated")
        want = one.unit.rowJ.union(Combination.of(n, [one.c])).minus([star.c])
        if nxt.unit.rowJ != want:
            raise DecompositionError("uniqueness constraint J_{t+1} = (J_t u {c_t}) - {d_t} violated")
    return factors


def _decompose(n: int, Iset: set, Jset: set, c_order: List[int],
               d_order: List[int]) -> List[OnesFactor]:
    s = len(d_order)
    if s == 0:
        return [OnesFactor(_one(n, Iset, c_order[0], Jset), False)]
    Conly = set(c_order)
    Imin, Jmin = Iset - Jset, Jset - Iset
    D = set(d_order)
    first = OnesFactor(
        _one(n, Imin | (Conly - {c_order[0]}), c_order[0], Jmin | D), False)
    last = OnesFactor(
        _one(n, Imin | D, c_order[-1], Jmin | (Conly - {c_order[-1]})), False)
    mid_c = list(c_order[1:-1])
    inner_I = Imin | {c_order[-1]} | set(mid_c)
    inner_J = Jmin | {c_order[0]} | set(mid_c)
    sub = _decompose(n, inner_I, inner_J, list(reversed(d_order)), list(reversed(mid_c)))
    middle = [OnesFactor(f.unit, not f.starred) for f in reversed(sub)]
    return [first] + middle + [last]


def signature_general(real: RankOneRealization, I: Combination, J: Combination) -> int:
    """Product of the one-signatures in the increasing-order decomposition."""
    sign = 1
    for f in decompose_into_ones(real, I, J):
        sign *= f.unit.sign
    return sign


def uij_family(real: RankOneRealization) -> Mapping:
    """All (I, J) words with their signatures: {(I, J): (matrix, sign, error)}.

    Each word is built and decomposed into ones once per realization; later
    calls return the same read-only mapping.  ``error`` is empty, or the
    ``DecompositionError`` message of a decomposition that failed, in which
    case ``sign`` is 0.
    """
    if real._uij_family is None:
        i_r, i_l = _require_tight(real)
        fam = {}
        for I in combinations(real.n, i_r - 1):
            for J in combinations(real.n, i_l - 1):
                word = build_uIJ(real, I, J)  # the word the decomposition is checked against
                try:
                    sign, error = signature_general(real, I, J), ""
                except DecompositionError as exc:
                    sign, error = 0, str(exc)
                fam[(I, J)] = (word, sign, error)
        real._uij_family = MappingProxyType(fam)
    return real._uij_family


def sum_decomposition_holds(real: RankOneRealization, c: int) -> bool:
    """u_c = sum of u_{I,J} over disjoint I, J avoiding c (the words whose
    I | J has complement {c}), exactly."""
    total = None
    for (I, J), (term, _, _) in uij_family(real).items():
        if I.union(J).complement().members == (c,):
            total = term if total is None else total + term
    return total == real.matrix(c)


def verify_uIJ_grid(real: RankOneRealization,
                    space: Optional[HnkSpace] = None) -> VerificationReport:
    """Verify the signed (I, J)-family: minimality, orthogonality,
    colinearity, associative orthogonality, the weak quadrangle, the signed
    quadrangle identity, the sum decomposition, the decomposition into ones,
    and (for a canonical space) the match with the ambient matrix units.
    Every check reads ``uij_family`` and counts the instances it checked; the
    pair, minimality, colinearity and quadrangle checks run on one batched
    family table of the words (``ExactFamily``)."""
    n = real.n
    if n > UIJ_VERIFY_CAP:
        raise CapacityError(f"full (I,J) verification capped at n <= {UIJ_VERIFY_CAP}")
    i_r, i_l = _require_tight(real)
    rep = VerificationReport(subject=f"uij-grid(n={n}, i_R={i_r})")
    fam = uij_family(real)
    keys = sorted(fam.keys(), key=lambda t: (t[0].members, t[1].members))
    mats = {key: mat for key, (mat, _, _) in fam.items()}
    signs = {key: sign for key, (_, sign, _) in fam.items()}

    words = ExactFamily([mats[k] for k in keys])
    size = len(keys)
    every = np.arange(size)
    zero = np.array([mats[k].is_zero() for k in keys])
    cube = words.equal(every, every, every, scaled_members(every))
    bad = [k for k, z, good in zip(keys, zero, cube) if z or not good]
    rep.add_counted("uij_partial_isometries", not bad, len(keys), "elements",
                    failure=f"failed {bad[:2]}")

    # every ordered pair (a, b), a-major
    Is = sorted({a[0] for a in keys}, key=lambda c: c.members)
    Js = sorted({a[1] for a in keys}, key=lambda c: c.members)
    icode = np.array([Is.index(k[0]) for k in keys])
    jcode = np.array([Js.index(k[1]) for k in keys])
    a, b = np.repeat(every, size), np.tile(every, size)
    diff_i, diff_j = icode[a] != icode[b], jcode[a] != jcode[b]
    # u_a u_b* u_a is u_a for a == b and 0 otherwise
    minimal = words.equal(a, b, a, scaled_members(a, (a == b).astype(int)))
    left = np.ones(len(a), dtype=bool)
    left[diff_i] = words.vanish(a[diff_i], b[diff_i])
    right = np.ones(len(a), dtype=bool)
    right[diff_j] = words.vanish(a[diff_j], b[diff_j], star_first=True)
    orth = diff_i & diff_j
    col = diff_i != diff_j
    colinear = np.ones(len(a), dtype=bool)
    colinear[col] = words.equal(a[col], a[col], b[col], scaled_members(b[col], 1, 2), sym=True)
    pair = lambda t: (keys[a[t]], keys[b[t]])
    badmin = [pair(t) for t in np.flatnonzero(~minimal)]
    badorth = [pair(t) for t in np.flatnonzero(orth & ~(left & right))]
    badcol = [pair(t) for t in np.flatnonzero(~colinear)]
    badassoc = []
    for t in np.flatnonzero(~(left & right)):
        badassoc += [(side,) + pair(t) for side, good in (("left", left[t]), ("right", right[t]))
                     if not good]
    rep.add_counted("uij_minimality", not badmin, len(keys) ** 2, "ordered pairs",
                    failure=f"failed {badmin[:2]}")
    rep.add_counted("uij_orthogonality", not badorth, int(orth.sum()), "ordered pairs",
                    failure=f"failed {badorth[:2]}")
    rep.add_counted("uij_colinearity", not badcol, int(col.sum()), "ordered pairs",
                    failure=f"failed {badcol[:2]}")
    rep.add_counted("uij_associative_orthogonality", not badassoc,
                    int(diff_i.sum() + diff_j.sum()), "products", failure=f"failed {badassoc[:2]}")

    # quadruples (I, J, J', I'), I-major: x y* z = +-t for x = u_IJ,
    # y = u_IJ', z = u_I'J' and t = u_I'J
    at = np.empty((len(Is), len(Js)), dtype=np.intp)
    at[icode, jcode] = every
    axes = (np.arange(len(c)) for c in (Is, Js, Js, Is))
    qi, qj, qjp, qip = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    x, y, z, t = at[qi, qj], at[qi, qjp], at[qip, qjp], at[qip, qj]
    plus, minus = (words.equal(x, y, z, scaled_members(t, s)) for s in (1, -1))
    weak = plus | minus
    # with x y* z = eps t, the signed identity s_x s_y s_z x y* z = s_t t
    # holds iff eps s_x s_y s_z = s_t or t = 0
    sign = np.array([signs[k] for k in keys])
    signed = (np.where(plus, 1, -1) * sign[x] * sign[y] * sign[z] == sign[t]) | zero[t]
    quad = lambda q: (Is[qi[q]], Js[qj[q]], Js[qjp[q]], Is[qip[q]])
    badweak = [quad(q) for q in np.flatnonzero(~weak)]
    badsigned, flagged = [], []
    for q in np.flatnonzero(weak & ~signed):
        I, J, Jp, Ip = quad(q)
        degenerate = I == Ip or J == Jp
        ones = (not len(I.intersect(J))
                and not len(I.intersect(Jp))
                and not len(Ip.intersect(J)))
        (badsigned if degenerate or ones else flagged).append((I, J, Jp, Ip))
    rep.add_counted("uij_weak_quadrangle", not badweak, len(Is) ** 2 * len(Js) ** 2,
                    "quadruples", failure=f"failed {badweak[:2]}")
    rep.add_counted("uij_signed_quadrangle", not badsigned, int(weak.sum()), "quadruples",
                    failure=f"failed {badsigned[:2]}")
    if flagged:
        rep.flag("uij_signed_quadrangle_out_of_scope",
                 f"{len(flagged)} configurations outside the ones-triple derivation "
                 f"fail the signed identity, e.g. {flagged[:2]}")

    badsum = [c for c in range(1, n + 1) if not sum_decomposition_holds(real, c)]
    rep.add_counted("uij_sum_decomposition", not badsum, n, "elements",
                    failure=f"failed at {badsum}")

    baddec = [(I, J, fam[(I, J)][2]) for (I, J) in keys if fam[(I, J)][2]]
    rep.add_counted("uij_decomposition_into_ones", not baddec, len(keys), "words",
                    failure=f"failed {baddec[:2]}")

    if space is not None:
        badunit = [(I, J) for (I, J) in keys
                   if mats[(I, J)].scale(signs[(I, J)]) != space.unit(J, I)]
        rep.add_counted("uij_matches_ambient_units", not badunit, len(keys), "words",
                        failure=f"failed {badunit[:2]}")
    return rep


def ones_triple_coherence(real: RankOneRealization) -> Tuple[int, int]:
    """Check the two signed 3-tuple identities on every ones-triple.

    Returns (number of triples checked, number of failures); a failure means
    either the matrix identity u_{IJ'}[u_{IJ}]* u_{I'J} = -u_{I''J'}[u_{I''J''}]* u_{I'J''}
    or the matching sign-product equality broke.
    """
    n = real.n
    fam = uij_family(real)
    keys = list(fam)
    at = {key: x for x, key in enumerate(keys)}
    sign = {key: s for key, (_, s, _) in fam.items()}
    lhs, rhs, signs_ok = [], [], []
    for I, J in keys:
        comp = I.union(J).complement()
        if len(comp) != 1:  # the ones: I and J disjoint
            continue
        b = comp.members[0]
        for a in I:
            for c in J:
                Ip = Combination.of(n, (set(I.members) - {a}) | {b})
                Jp = Combination.of(n, (set(J.members) - {c}) | {b})
                Ipp = Combination.of(n, (set(I.members) | {c}) - {a})
                Jpp = Combination.of(n, (set(J.members) | {a}) - {c})
                lhs.append((at[I, Jp], at[I, J], at[Ip, J]))
                rhs.append((at[Ipp, Jp], at[Ipp, Jpp], at[Ip, Jpp]))
                sl = sign[I, Jp] * sign[I, J] * sign[Ip, J]
                sr = sign[Ipp, Jp] * sign[Ipp, Jpp] * sign[Ip, Jpp]
                signs_ok.append(sl == -sr)
    if not lhs:
        return 0, 0
    # with lhs = -rhs and sl = -sr, lhs sl = rhs sr follows
    words = ExactFamily([fam[key][0] for key in keys])
    (lr, li), (rr, ri) = (words.ternary(*np.array(side).T) for side in (lhs, rhs))
    coherent = (lr == -rr).all(axis=(1, 2)) & np.array(signs_ok)
    if li is not None:
        coherent &= (li == -ri).all(axis=(1, 2))
    return len(lhs), int((~coherent).sum())


# -- splittings ---------------------------------------------------------------


def peirce_split(real: RankOneRealization):
    """Split by the projection p = sum over |J| = i_R of (uu*)_J.

    Returns (pPart, qPart, p); qPart is an empty realization when (1-p)
    annihilates every element (the tight case i_R + i_L = n + 1).
    """
    i_r, _ = indices(real)
    p = None
    for J in combinations(real.n, i_r):
        term = support_product(real, "right", J)
        p = term if p is None else p + term
    rows = p.rows
    one = ExactMatrix.identity(rows)
    p_elems = []
    q_elems = []
    for i in range(1, real.n + 1):
        u = real.matrix(i)
        pu = p * u
        qu = (one - p) * u
        if pu.is_zero():
            raise ValueError(f"p annihilates element {i}; not a valid split")
        p_elems.append(PartialIsometry(pu))
        if not qu.is_zero():
            q_elems.append(qu)
    if q_elems and len(q_elems) != real.n:
        raise ValueError("split is degenerate: (1-p) kills some but not all elements")
    p_part = RankOneRealization(p_elems)
    q_part = RankOneRealization([PartialIsometry(m) for m in q_elems])
    return p_part, q_part, p


def split_cross_orthogonal(real: RankOneRealization, p: ExactMatrix) -> bool:
    """All ternary cross products between pY and (1-p)Y vanish exactly."""
    q = ExactMatrix.identity(p.rows) - p
    n = real.n
    parts = ExactFamily([p * u.mat for u in real.elements] + [q * u.mat for u in real.elements])
    a, b = np.repeat(np.arange(n), n), n + np.tile(np.arange(n), n)
    return bool(parts.vanish(a, b).all() and parts.vanish(a, b, star_first=True).all())


def diag_hnk(n: int, ks: Sequence[int]) -> RankOneRealization:
    """Diagonal join of the spaces H(n, k_1), ..., H(n, k_m), k_1 > ... > k_m."""
    ks = list(ks)
    if not ks or any(ks[i] <= ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError("ks must be strictly decreasing")
    if any(k < 1 or k > n for k in ks):
        raise ValueError("each k must satisfy 1 <= k <= n")
    spaces = [build_hnk(n, k) for k in ks]
    elems = []
    for i in range(n):
        elems.append(PartialIsometry(block_diag([sp.basis[i] for sp in spaces])))
    real = RankOneRealization(elems)
    i_r, i_l = indices(real)
    if (i_r, i_l) != (ks[0], n - ks[-1] + 1):
        raise AssertionError("diagonal join has unexpected support indices")
    return real


def diag_rect(p: int, q: int) -> Grid:
    """The rank-min(p,q) rectangular grid {(x, x^t)} on matrix units:
    v_ij = diag(E_ij, E_ij^t)."""
    if p < 2 or q < 2:
        raise ValueError("diag_rect requires p, q >= 2")
    elems = []
    for i in range(1, p + 1):
        for j in range(1, q + 1):
            mat = block_diag([ExactMatrix.unit(p, q, i - 1, j - 1),
                              ExactMatrix.unit(q, p, j - 1, i - 1)])
            elems.append(((i, j), mat))
    return Grid("rectangular", {"p": p, "q": q, "diagonal": True}, elems)


def grid_support_split(grid: Grid):
    """The rank->=2 splitting projection p = sum_i prod_k u_ik u_ik* applied
    to a rectangular grid; returns (pPart, qPart, p)."""
    if grid.kind != "rectangular":
        raise ValueError("support split applies to rectangular grids")
    p_, q_ = grid.params["p"], grid.params["q"]
    proj = None
    for i in range(1, p_ + 1):
        row = None
        for k in range(1, q_ + 1):
            t = grid.element((i, k)).left_support()
            row = t if row is None else row * t
        proj = row if proj is None else proj + row
    one = ExactMatrix.identity(proj.rows)
    p_elems, q_elems = [], []
    for idx in grid.indices:
        u = grid.matrix(idx)
        p_elems.append((idx, proj * u))
        qu = (one - proj) * u
        q_elems.append((idx, qu))
    p_grid = Grid("rectangular", {"p": p_, "q": q_}, p_elems)
    q_grid = None
    if all(not m.is_zero() for _, m in q_elems):
        q_grid = Grid("rectangular", {"p": p_, "q": q_}, q_elems)
    elif any(not m.is_zero() for _, m in q_elems):
        raise ValueError("support split is degenerate")
    return p_grid, q_grid, proj


def ternary_matrix_unit_image(grid: Grid) -> bool:
    """True iff the grid's ternary products follow the matrix-unit calculus
    u_ij u_kl* u_mn = delta_jl delta_km u_in exactly."""
    idxs = list(grid.indices)
    pos = {idx: x for x, idx in enumerate(idxs)}
    a, b, c = np.indices((len(idxs),) * 3).reshape(3, -1)
    unit = [idxs[x][1] == idxs[y][1] and idxs[y][0] == idxs[z][0] for x, y, z in zip(a, b, c)]
    target = [pos[(idxs[x][0], idxs[z][1])] if u else 0 for x, z, u in zip(a, c, unit)]
    want = scaled_members(target, np.array(unit, dtype=int))
    return bool(ExactFamily(grid.matrices()).equal(a, b, c, want).all())


# -- projection and trace formula ---------------------------------------------


def hnk_projection(space: HnkSpace, x) -> ApproxMatrix:
    """P x = sum_i (trace(x U_i*) / m) U_i: the trace-orthogonal projection
    onto the span.

    Idempotence settles the normalization: dividing by the multiplicity m
    fixes every basis element exactly (``trace_formula_check`` reports the
    alternative sqrt(m) reading alongside, for comparison only).  A stack of
    shape ``(..., rows, cols)`` is projected matrix by matrix in one pair of
    tensordots.
    """
    arr = x.array if isinstance(x, ApproxMatrix) else np.asarray(x, dtype=np.complex128)
    if arr.shape[-2:] != space.shape:
        raise DimensionError(f"expected shape (..., {space.shape[0]}, {space.shape[1]}), "
                             f"got {arr.shape}")
    basis = space.basis_array
    coeffs = np.tensordot(arr, basis.conj(), axes=([-2, -1], [1, 2])) / space.multiplicity
    return ApproxMatrix(np.tensordot(coeffs, basis, axes=(-1, 0)))


def hnk_projection_exact(space: HnkSpace, x: ExactMatrix) -> ExactMatrix:
    """Exact-arithmetic version of the projection, for zero-residual checks."""
    if x.shape != space.shape:
        raise DimensionError(f"expected shape {space.shape}, got {x.shape}")
    minv = ExactScalar(Fraction(1, space.multiplicity))
    out = ExactMatrix.zeros(*space.shape)
    for u in space.basis:
        coeff = (x * u.adjoint()).trace() * minv
        out = out + u.scale(coeff)
    return out


@dataclass(frozen=True)
class TraceFormulaReport:
    """Both readings of the trace-norm formula, with the numerical oracle.

    ``rhs`` carries the multiplicity factor m that the eigenvalue computation
    forces; ``sqrt_multiplicity_value`` is the alternative m^(1/2) reading,
    reported for comparison but never a target."""

    lhs: float
    rhs: float
    residual: float
    sqrt_multiplicity_value: float
    eigenvalue: Optional[Fraction]
    multiplicity: Optional[int]
    exact_verified: bool


def trace_formula_check(space: HnkSpace, coefficients) -> TraceFormulaReport:
    """Compare trace_norm(sum a_i U_i) against m * ||a||_2.

    With exact coefficients the inner claims are verified exactly: x x* has
    the single nonzero eigenvalue ||a||^2 with multiplicity m.
    """
    coeffs = list(coefficients)
    if len(coeffs) != space.n:
        raise DimensionError(f"need {space.n} coefficients")
    exact = all(isinstance(a, (int, Fraction, ExactScalar)) for a in coeffs)
    m = space.multiplicity
    if exact:
        ex = [ExactScalar.coerce(a) for a in coeffs]
        x = ExactMatrix.zeros(*space.shape)
        for a, u in zip(ex, space.basis):
            x = x + u.scale(a)
        lam = sum((a.abs2() for a in ex), Fraction(0))
        xa = x.to_approx()
        norm2 = float(math.sqrt(lam))
        lhs = trace_norm(xa)
        gram = x * x.adjoint()
        single = gram * gram == gram.scale(ExactScalar(lam))
        tr = gram.trace()
        mult_ok = (tr == ExactScalar(m * lam))
        eig = lam
        mult = m if (single and mult_ok) else None
        verified = bool(single and mult_ok)
    else:
        arr = np.tensordot(np.array(coeffs, dtype=np.complex128), space.basis_array, axes=(0, 0))
        norm2 = float(math.sqrt(sum(abs(complex(a)) ** 2 for a in coeffs)))
        lhs = trace_norm(arr)
        eig = None
        mult = None
        verified = False
    rhs = m * norm2
    return TraceFormulaReport(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs),
                              sqrt_multiplicity_value=math.sqrt(m) * norm2,
                              eigenvalue=eig, multiplicity=mult,
                              exact_verified=verified)
