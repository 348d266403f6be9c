"""Canonical grids of the four matrix Cartan-factor types and their transforms.

Constructors build concrete matrix families (rectangular / hermitian /
symplectic / spin / rank-1); ``verify_grid`` checks every pairwise relation
and the full triple-product table against the kind's expected values, exactly.
The transforms turn hermitian and symplectic grids into associative matrix
units and a spin grid into a spin system inside the isotope algebra.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .errors import CapacityError, TransformError
from .numlin import (EX_HALF, EX_I, EX_MINUS_ONE, EX_ZERO, ExactMatrix,
                     ExactScalar, exact_rank)
from .report import VerificationReport
from .triple import (GridRelation, PartialIsometry, classify_relation,
                     isotope_involution, isotope_product, ternary_product,
                     triple_product)

SPIN_SYSTEM_CAP = 12
EXHAUSTIVE_TRIPLE_CAP = 20
TRIPLE_SAMPLE_SIZE = 500
# Smallest symplectic grid that symplectic_to_matrix_units accepts.
SYMPLECTIC_TRANSFORM_MIN_SIZE = 5

# Pauli matrices; sigma3 is the one whose tensor chains build the spin system.
SIGMA1 = ExactMatrix.from_rows([[1, 0], [0, -1]])
SIGMA2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA3 = ExactMatrix.from_rows([[EX_ZERO, EX_I], [-EX_I, EX_ZERO]])


class Grid:
    """A typed, indexed family of partial isometries.

    ``kind`` is one of ``rectangular, hermitian, symplectic, spin, rank1``;
    ``params`` carries the kind parameters; ``indices`` fixes a deterministic
    element order.  Every element is stored as a ``PartialIsometry``: a
    matrix is checked (v v* v = v) when the grid is made, and an element
    that already is one is kept as it is, without a second check.
    """

    def __init__(self, kind: str, params: dict, elements: Sequence[Tuple]):
        self.kind = kind
        self.params = dict(params)
        self.indices = tuple(idx for idx, _ in elements)
        self._by_index = {}
        for idx, mat in elements:
            self._by_index[idx] = mat if isinstance(mat, PartialIsometry) else PartialIsometry(mat)

    def element(self, idx) -> PartialIsometry:
        return self._by_index[idx]

    def matrix(self, idx) -> ExactMatrix:
        return self._by_index[idx].mat

    def matrices(self) -> List[ExactMatrix]:
        return [self._by_index[i].mat for i in self.indices]

    def isometries(self) -> List[PartialIsometry]:
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


# -- constructors ------------------------------------------------------------


def rectangular_grid(p: int, q: int) -> Grid:
    """The canonical rectangular grid: matrix units E_ij of shape p x q."""
    if p < 1 or q < 1:
        raise ValueError("rectangular grid requires p, q >= 1")
    elems = [((i, j), ExactMatrix.unit(p, q, i - 1, j - 1))
             for i in range(1, p + 1) for j in range(1, q + 1)]
    return Grid("rectangular", {"p": p, "q": q}, elems)


def hermitian_grid(m: int) -> Grid:
    """The canonical hermitian grid in m x m symmetric matrices."""
    if m < 2:
        raise ValueError("hermitian grid requires m >= 2")
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
    if m < 4:
        raise ValueError("symplectic grid requires m >= 4")
    elems = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            mat = ExactMatrix.unit(m, m, i - 1, j - 1) - ExactMatrix.unit(m, m, j - 1, i - 1)
            elems.append(((i, j), mat))
    return Grid("symplectic", {"m": m}, elems)


def spin_system(k: int) -> List[ExactMatrix]:
    """Self-adjoint s_1..s_k with s_i s_j + s_j s_i = 2 delta_ij, exactly.

    Built from tensor chains of Pauli matrices in M_{2^ceil(k/2)}: the odd
    elements are sigma3-chains capped by sigma1, the even ones by sigma2,
    padded with identities to the common size.
    """
    if k < 2 or k > SPIN_SYSTEM_CAP:
        raise CapacityError(f"spin system size must be in 2..{SPIN_SYSTEM_CAP}, got {k}")
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
    if r < 2:
        raise ValueError("spin grid requires at least 2 pairs")
    if 2 * r > SPIN_SYSTEM_CAP:
        raise CapacityError(f"spin grid supports r <= {SPIN_SYSTEM_CAP // 2}")
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
    """The grid {left * u * right}; for exact unitaries this is again a grid."""
    return Grid(g.kind, g.params,
                [(idx, left * g.matrix(idx) * right) for idx in g.indices])


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


def _rect_pair(a, b) -> GridRelation:
    if a == b:
        return GridRelation.EQUAL
    if a[0] == b[0] or a[1] == b[1]:
        return GridRelation.COLINEAR
    return GridRelation.ORTHOGONAL


def _rect_triple(a, b, c) -> Dict:
    out: Dict = {}
    if a[1] == b[1] and b[0] == c[0]:
        _acc(out, (a[0], c[1]), Fraction(1, 2))
    if c[1] == b[1] and b[0] == a[0]:
        _acc(out, (c[0], a[1]), Fraction(1, 2))
    return out


def _rank1_pair(a, b) -> GridRelation:
    return GridRelation.EQUAL if a == b else GridRelation.COLINEAR


def _rank1_triple(a, b, c) -> Dict:
    out: Dict = {}
    if a == b:
        _acc(out, c, Fraction(1, 2))
    if b == c:
        _acc(out, a, Fraction(1, 2))
    return out


def _herm_pair(a, b) -> GridRelation:
    if a == b:
        return GridRelation.EQUAL
    sa, sb = set(a), set(b)
    if not (sa & sb):
        return GridRelation.ORTHOGONAL
    adiag, bdiag = a[0] == a[1], b[0] == b[1]
    if adiag and not bdiag:
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    if bdiag and not adiag:
        return GridRelation.GOVERNS_FIRST_OVER_SECOND
    return GridRelation.COLINEAR


def _sympl_pair(a, b) -> GridRelation:
    if a == b:
        return GridRelation.EQUAL
    return GridRelation.COLINEAR if set(a) & set(b) else GridRelation.ORTHOGONAL


def _canonical_matrices(kind: str, m: int) -> dict:
    if kind == "hermitian":
        g = hermitian_grid(m)
    else:
        g = symplectic_grid(m)
    return {idx: g.matrix(idx) for idx in g.indices}


@lru_cache(maxsize=None)
def _canonical_cache(kind: str, m: int) -> tuple:
    model = _canonical_matrices(kind, m)
    return tuple(sorted(model.items()))


def _model_triple(kind: str, m: int, a, b, c) -> Dict:
    """Expected triple-product coefficients, read off the canonical model."""
    model = dict(_canonical_cache(kind, m))
    t = triple_product(model[a], model[b], model[c])
    out: Dict = {}
    for (i, j), mat in model.items():
        coeff = t.entry(i - 1, j - 1)
        if coeff:
            out[(i, j)] = coeff
    # the span of the canonical grid is the full symmetric/antisymmetric space,
    # so the read-off coefficients always reconstruct t; assert it stays true
    recon = None
    for idx, coeff in out.items():
        term = model[idx].scale(coeff)
        recon = term if recon is None else recon + term
    if recon is None:
        recon = ExactMatrix.zeros(m, m)
    if recon != t:
        raise AssertionError("canonical model decomposition failed")
    return out


def _spin_partner(key):
    return ("ut" if key[0] == "u" else "u", key[1])


def _spin_triple(a, b, c) -> Dict:
    """Complete triple-product table of the spin grid (derived in the Pauli
    model; symmetric in the outer arguments)."""
    def is0(k):
        return k[0] == "u0"

    if a == b == c:
        return {a: Fraction(1)}
    if not is0(b) and (_spin_partner(b) == a or _spin_partner(b) == c):
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
            return {_spin_partner(b): Fraction(-1)}
        return {}
    if not is0(a) and not is0(c) and _spin_partner(a) == c:
        if is0(b):
            return {b: Fraction(-1, 2)}
        if b[1] != a[1]:
            return {_spin_partner(b): Fraction(-1, 2)}
    return {}


def _spin_pair(a, b) -> GridRelation:
    if a == b:
        return GridRelation.EQUAL
    if a[0] == "u0":
        return GridRelation.GOVERNS_FIRST_OVER_SECOND
    if b[0] == "u0":
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    if a[1] == b[1]:
        return GridRelation.ORTHOGONAL
    return GridRelation.COLINEAR


def _acc(out: Dict, idx, coeff) -> None:
    cur = out.get(idx)
    coeff = ExactScalar.coerce(Fraction(coeff) if not isinstance(coeff, (ExactScalar,)) else coeff)
    total = coeff if cur is None else cur + coeff
    if total:
        out[idx] = total
    elif cur is not None:
        del out[idx]


def expected_pair_relation(kind: str, a, b) -> GridRelation:
    if kind == "rectangular":
        return _rect_pair(a, b)
    if kind == "hermitian":
        return _herm_pair(a, b)
    if kind == "symplectic":
        return _sympl_pair(a, b)
    if kind == "spin":
        return _spin_pair(a, b)
    if kind == "rank1":
        return _rank1_pair(a, b)
    raise ValueError(f"unknown grid kind {kind!r}")


def expected_triple_coeffs(grid: Grid, a, b, c) -> Dict:
    """Coefficients of the expected value of {u_a, u_b, u_c} over the grid."""
    kind = grid.kind
    if kind == "rectangular":
        raw = _rect_triple(a, b, c)
    elif kind == "rank1":
        raw = _rank1_triple(a, b, c)
    elif kind == "spin":
        raw = _spin_triple(a, b, c)
    else:
        raw = _model_triple(kind, grid.params["m"], a, b, c)
    return {idx: ExactScalar.coerce(v) if not isinstance(v, ExactScalar) else v
            for idx, v in raw.items()}


# -- verification -------------------------------------------------------------


def _minimal_indices(grid: Grid) -> list:
    if grid.kind == "hermitian":
        return [idx for idx in grid.indices if idx[0] == idx[1]]
    if grid.kind == "spin":
        return [idx for idx in grid.indices if idx[0] != "u0"]
    return list(grid.indices)


def _triple_index_sample(count: int) -> list:
    rng = random.Random(0)
    total = count ** 3
    picks = sorted(rng.sample(range(total), min(TRIPLE_SAMPLE_SIZE, total)))
    return [(t // (count * count), (t // count) % count, t % count) for t in picks]


def verify_grid(grid: Grid) -> VerificationReport:
    """Check pairwise-relation, minimality and triple-product identities of
    a grid, exactly.

    The ``partial_isometry`` line counts the elements that the ``Grid``
    checked when it was made; they are not evaluated again.  Families larger
    than 20 elements have their triple table checked on a deterministic
    sample of 500 index triples; everything else is exhaustive.  Failures are
    reported, never raised.
    """
    rep = VerificationReport(subject=grid.describe())
    n = len(grid)
    if n == 0:
        rep.flag("empty_grid", "vacuously true")
        return rep
    idxs = list(grid.indices)
    mats = {i: grid.matrix(i) for i in idxs}

    # the Grid holds only PartialIsometry values, each checked when it was made
    rep.add_counted("partial_isometry", True, n, "elements")

    mism = []
    for x in range(n):
        for y in range(x + 1, n):
            want = expected_pair_relation(grid.kind, idxs[x], idxs[y])
            got = classify_relation(grid.element(idxs[x]), grid.element(idxs[y]))
            if got is not want:
                mism.append((idxs[x], idxs[y], want.value, got.value))
    rep.add_counted("pairwise_relations", not mism, n * (n - 1) // 2, "pairs",
                    failure=f"mismatch {mism[:3]}")

    minimal = _minimal_indices(grid)
    notmin = []
    for i in minimal:
        for j in idxs:
            if i == j:
                continue
            if not ternary_product(mats[i], mats[j], mats[i]).is_zero():
                notmin.append((i, j))
    rep.add_counted("minimality", not notmin, len(minimal), "elements",
                    failure=f"failed {notmin[:3]}")

    # {a,b,c} = {c,b,a}: the table keeps each product under the order with
    # x <= z, and the named checks read it from there; most products vanish,
    # and all of those share the first zero matrix
    pos = {idx: x for x, idx in enumerate(idxs)}
    products = {}
    zero = None

    def product(a, b, c) -> ExactMatrix:
        nonlocal zero
        if pos[a] > pos[c]:
            a, c = c, a
        got = products.get((a, b, c))
        if got is None:
            got = triple_product(mats[a], mats[b], mats[c])
            if got.is_zero():
                zero = got if zero is None else zero
                got = zero
            products[(a, b, c)] = got
        return got

    if n <= EXHAUSTIVE_TRIPLE_CAP:
        # x <= z covers every ordered triple
        triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(x, n)]
        mode = "exhaustive"
    else:
        triples = _triple_index_sample(n)
        mode = f"sampled {len(_triple_index_sample(n))}"
    badt = []
    for (x, y, z) in triples:
        a, b, c = idxs[x], idxs[y], idxs[z]
        got = product(a, b, c)
        want = None
        for idx, coeff in expected_triple_coeffs(grid, a, b, c).items():
            term = mats[idx].scale(coeff)
            want = term if want is None else want + term
        if want is None:
            ok = got.is_zero()
        else:
            ok = got == want
        if not ok:
            badt.append((a, b, c))
    rep.add_counted("triple_products", not badt, len(triples), f"triples ({mode})",
                    failure=f"failed {badt[:3]}")

    _named_checks(grid, rep, mats, product)
    return rep


def _named_checks(grid: Grid, rep: VerificationReport, mats: dict, product) -> None:
    """The kind's named identities; ``product(a, b, c)`` reads {u_a, u_b, u_c}
    from the triple table and computes only triples a sampled table skipped."""
    kind = grid.kind
    if kind == "rectangular":
        p, q = grid.params["p"], grid.params["q"]
        bad = []
        for j in range(1, p + 1):
            for i in range(1, p + 1):
                if i == j:
                    continue
                for k in range(1, q + 1):
                    for l in range(1, q + 1):
                        if k == l:
                            continue
                        got = product((j, k), (j, l), (i, l))
                        if got != mats[(i, k)].scale(EX_HALF):
                            bad.append((j, k, l, i))
        rep.add("rectangular_chain_identity", not bad,
                detail="" if not bad else f"failed {bad[:3]}")
    elif kind == "hermitian":
        m = grid.params["m"]
        key = lambda i, j: (i, j) if i <= j else (j, i)
        bad_chain, bad_cycle, skipped = [], [], []
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    for l in range(1, m + 1):
                        if i == l:
                            continue
                        trio = {key(i, j), key(j, k), key(k, l)}
                        got = product(key(i, j), key(j, k), key(k, l))
                        want = mats[key(i, l)].scale(EX_HALF)
                        if len(trio) < 2:
                            if got != want:
                                skipped.append(("chain", i, j, k, l))
                            continue
                        if got != want:
                            bad_chain.append((i, j, k, l))
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    trio = {key(i, j), key(j, k), key(k, i)}
                    got = product(key(i, j), key(j, k), key(k, i))
                    want = mats[key(i, i)]
                    if len(trio) < 2:
                        if got != want:
                            skipped.append(("cycle", i, j, k))
                        continue
                    if got != want:
                        bad_cycle.append((i, j, k))
        rep.add("hermitian_chain_identity", not bad_chain,
                detail="" if not bad_chain else f"failed {bad_chain[:3]}")
        rep.add("hermitian_cycle_identity", not bad_cycle,
                detail="" if not bad_cycle else f"failed {bad_cycle[:3]}")
        if skipped:
            rep.flag("hermitian_table_skipped_patterns",
                     f"{len(skipped)} index patterns outside the table's side "
                     f"conditions, e.g. {skipped[:3]}")
    elif kind == "symplectic":
        m = grid.params["m"]
        bad = []
        for quad in _distinct_quads(m):
            i, j, k, l = quad
            got = triple_product(_sympl_mat(mats, i, j), _sympl_mat(mats, i, l),
                                 _sympl_mat(mats, k, l)).scale(2)
            if got != _sympl_mat(mats, k, j):
                bad.append(quad)
        rep.add("symplectic_quad_identity", not bad,
                detail="" if not bad else f"failed {bad[:3]}")
    elif kind == "spin":
        r, odd = grid.params["r"], grid.params["odd"]
        bad = []
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j:
                    continue
                lhs = product(("u", i), ("u", j), ("ut", i))
                if lhs != mats[("ut", j)].scale(EX_HALF).scale(EX_MINUS_ONE):
                    bad.append(("quad1", i, j))
                # the companion identity closes the quadrangle on u_i, not on
                # its partner (the value the anticommutation proof expands to)
                lhs = product(("u", j), ("ut", i), ("ut", j))
                if lhs != mats[("u", i)].scale(EX_HALF).scale(EX_MINUS_ONE):
                    bad.append(("quad2", i, j))
        rep.add("spin_quadrangle_identities", not bad,
                detail="" if not bad else f"failed {bad[:3]}")
        orth = []
        for i in range(1, r + 1):
            u, ut = mats[("u", i)], mats[("ut", i)]
            if not (u.adjoint() * ut).is_zero() or not (u * ut.adjoint()).is_zero():
                orth.append(i)
        rep.add("spin_partner_orthogonality", not orth,
                detail="" if not orth else f"failed {orth}")
        if odd:
            u0 = ("u0", 0)
            badg = []
            for i in range(1, r + 1):
                if product(u0, ("u", i), u0) != -mats[("ut", i)]:
                    badg.append(("govern-u", i))
                if product(u0, ("ut", i), u0) != -mats[("u", i)]:
                    badg.append(("govern-ut", i))
            rep.add("spin_governing_identities", not badg,
                    detail="" if not badg else f"failed {badg[:3]}")
    elif kind == "rank1":
        n = grid.params["n"]
        bad = []
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    if product(a, a, b) != mats[b].scale(EX_HALF):
                        bad.append(("colinear", a, b))
                    if not product(a, b, a).is_zero():
                        bad.append(("jordan-minimal", a, b))
                for c in range(1, n + 1):
                    if len({a, b, c}) == 3:
                        if not product(a, b, c).is_zero():
                            bad.append(("distinct-zero", a, b, c))
        rep.add("rank_one_identities", not bad,
                detail="" if not bad else f"failed {bad[:3]}")


def _distinct_quads(m: int):
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    if len({i, j, k, l}) == 4:
                        yield (i, j, k, l)


def _sympl_mat(mats: dict, a: int, b: int) -> ExactMatrix:
    return mats[(a, b)] if a < b else -mats[(b, a)]


# -- transforms ---------------------------------------------------------------


@dataclass(frozen=True)
class MatrixUnitFamily:
    """Associative matrix units e_ij recovered from a grid, with their unit."""
    size: int
    units: dict
    v: ExactMatrix

    def unit(self, i: int, j: int) -> ExactMatrix:
        return self.units[(i, j)]


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


def hermitian_to_matrix_units(g: Grid) -> MatrixUnitFamily:
    """Matrix units e_ij = u_ii . u_ij (isotope product at v = sum u_ii).

    Verifies the matrix-unit relations, the involution, and the recovery
    u_ij = e_ij + e_ji, all exactly; failures raise ``TransformError``.
    """
    if g.kind != "hermitian":
        raise TransformError("hermitian_to_matrix_units requires a hermitian grid")
    m = g.params["m"]
    key = lambda i, j: (i, j) if i <= j else (j, i)
    vmat = None
    for i in range(1, m + 1):
        vmat = g.matrix((i, i)) if vmat is None else vmat + g.matrix((i, i))
    v = PartialIsometry(vmat)
    units = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            units[(i, j)] = isotope_product(v, g.matrix((i, i)), g.matrix(key(i, j)))
    zero = ExactMatrix.zeros(*vmat.shape)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if isotope_involution(v, units[(i, j)]) != units[(j, i)]:
                raise TransformError(f"involution fails: e_{i}{j}^# != e_{j}{i}")
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    want = units[(i, l)] if j == k else zero
                    if isotope_product(v, units[(i, j)], units[(k, l)]) != want:
                        raise TransformError(
                            f"product fails: e_{i}{j} . e_{k}{l} != delta e_{i}{l}")
    total = None
    for i in range(1, m + 1):
        total = units[(i, i)] if total is None else total + units[(i, i)]
    if total != vmat:
        raise TransformError("sum of diagonal units is not the isotope unit")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            want = units[(i, j)] + units[(j, i)] if i != j else units[(i, i)]
            if want != g.matrix(key(i, j)):
                raise TransformError(f"recovery fails: u_{i}{j} != e_{i}{j} + e_{j}{i}")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j:
                lhs = isotope_product(v, g.matrix((i, i)), g.matrix(key(i, j)))
                rhs = isotope_product(v, g.matrix(key(i, j)), g.matrix((j, j)))
                if lhs != rhs:
                    raise TransformError(f"u_{i}{i}.u_{i}{j} != u_{i}{j}.u_{j}{j}")
    return MatrixUnitFamily(m, units, vmat)


def symplectic_to_matrix_units(g: Grid) -> MatrixUnitFamily:
    """Matrix units from a symplectic grid of size at least 5.

    The diagonal units e_ii = u_ij u_jm* u_im must be independent of the
    admissible index pair (j, m); the off-diagonal ones are
    e_ij = e_ii e_ii* u_ij e_jj* e_jj.  All defining relations are verified
    exactly.
    """
    if g.kind != "symplectic":
        raise TransformError("symplectic_to_matrix_units requires a symplectic grid")
    m = g.params["m"]
    if m < SYMPLECTIC_TRANSFORM_MIN_SIZE:
        raise TransformError(
            f"symplectic transform requires size >= {SYMPLECTIC_TRANSFORM_MIN_SIZE}")
    mats = {idx: g.matrix(idx) for idx in g.indices}
    u = lambda a, b: _sympl_mat(mats, a, b)
    units = {}
    for i in range(1, m + 1):
        cand = None
        for j in range(1, m + 1):
            for mm in range(1, m + 1):
                if len({i, j, mm}) != 3:
                    continue
                val = ternary_product(u(i, j), u(j, mm), u(i, mm))
                if cand is None:
                    cand = val
                elif val != cand:
                    raise TransformError(
                        f"diagonal unit e_{i}{i} is ambiguous at pair ({j},{mm})")
        if cand is None or cand.is_zero():
            raise TransformError(f"diagonal unit e_{i}{i} vanished")
        units[(i, i)] = cand
    for i in range(1, m + 1):
        ei = units[(i, i)]
        if ei * ei.adjoint() * ei != ei:
            raise TransformError(f"e_{i}{i} is not a partial isometry")
        for j in range(1, m + 1):
            if i != j:
                ej = units[(j, j)]
                if not (ei.adjoint() * ej).is_zero() or not (ei * ej.adjoint()).is_zero():
                    raise TransformError(f"e_{i}{i} not orthogonal to e_{j}{j}")
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j:
                ei, ej = units[(i, i)], units[(j, j)]
                units[(i, j)] = ei * ei.adjoint() * u(i, j) * ej.adjoint() * ej
    vmat = None
    for i in range(1, m + 1):
        vmat = units[(i, i)] if vmat is None else vmat + units[(i, i)]
    zero = ExactMatrix.zeros(*vmat.shape)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j and units[(i, j)] - units[(j, i)] != u(i, j):
                raise TransformError(f"recovery fails: u_{i}{j} != e_{i}{j} - e_{j}{i}")
    va = vmat.adjoint()
    for (i, j), eij in units.items():
        if vmat * eij.adjoint() * vmat != units[(j, i)]:
            raise TransformError(f"involution fails on e_{i}{j}")
        for (l, k), elk in units.items():
            want = units[(i, k)] if j == l else zero
            if eij * va * elk != want:
                raise TransformError(f"unit product fails: e_{i}{j} v* e_{l}{k}")
    for i in range(1, m + 1):
        ei = units[(i, i)]
        for j in range(1, m + 1):
            if i == j:
                continue
            if not ternary_product(ei, u(i, j), ei).is_zero():
                raise TransformError(f"e_{i}{i} u_{i}{j}* e_{i}{i} != 0")
            if triple_product(ei, ei, u(i, j)) != u(i, j).scale(EX_HALF):
                raise TransformError(f"u_{i}{j} is not Peirce-1 for e_{i}{i}")
            for k in range(1, m + 1):
                if k in (i, j):
                    continue
                ek = units[(k, k)]
                if not (u(i, j) * ek.adjoint()).is_zero() or not (ek.adjoint() * u(i, j)).is_zero():
                    raise TransformError(f"u_{i}{j} not orthogonal to e_{k}{k}")
    return MatrixUnitFamily(m, units, vmat)
