"""Combination calculus, signed-unit spaces, words, splittings, projection."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_exact
from jcgrid import hnk, numlin
from jcgrid.errors import CapacityError, DecompositionError, DimensionError
from jcgrid.grids import Grid, verify_grid
from jcgrid.hnk import (Combination, build_hnk, build_uIJ, combinations,
                        decompose_into_ones, diag_hnk, diag_rect,
                        grid_support_split, hnk_projection,
                        hnk_projection_exact, indices, ones_triple_coherence,
                        peirce_split, signature_general, signature_one,
                        split_cross_orthogonal, sum_decomposition_holds,
                        support_product, ternary_matrix_unit_image,
                        trace_formula_check, uij_family,
                        verify_uIJ_grid)
from jcgrid.numlin import (EX_I, ExactFamily, ExactMatrix, ExactScalar, operator_norm,
                           scaled_members)
from jcgrid.triple import PartialIsometry
from table_oracle import pairwise_verdict
from test_cli import ROTATION, _embedded
from test_numlin import as_rows, ref_ternary

E = ExactMatrix.unit
C = Combination.of

EXAMPLE_N3K2 = [
    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
]

EXAMPLE_N4K3 = [
    [[0, 0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0, 1],
     [0, 0, 0, 0, -1, 0],
     [0, 0, 0, 1, 0, 0]],
    [[0, 0, 0, 0, 0, -1],
     [0, 0, 0, 0, 0, 0],
     [0, 0, 1, 0, 0, 0],
     [0, -1, 0, 0, 0, 0]],
    [[0, 0, 0, 0, 1, 0],
     [0, 0, -1, 0, 0, 0],
     [0, 0, 0, 0, 0, 0],
     [1, 0, 0, 0, 0, 0]],
    [[0, 0, 0, -1, 0, 0],
     [0, 1, 0, 0, 0, 0],
     [-1, 0, 0, 0, 0, 0],
     [0, 0, 0, 0, 0, 0]],
]


class TestCombinations:
    def test_singletons(self):
        assert [list(c) for c in combinations(3, 1)] == [[1], [2], [3]]

    def test_pairs_lexicographic(self):
        assert [list(c) for c in combinations(4, 2)] == \
            [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]

    def test_empty(self):
        assert [list(c) for c in combinations(4, 0)] == [[]]

    def test_rank_is_lexicographic_position(self):
        for n in range(1, 7):
            for r in range(n + 1):
                for pos, c in enumerate(combinations(n, r)):
                    assert c.rank() == pos

    def test_validation(self):
        with pytest.raises(ValueError):
            Combination(3, (2, 1))
        with pytest.raises(ValueError):
            Combination(3, (0, 1))


class TestSignatureOne:
    def test_published_table_entries(self):
        assert signature_one(C(3, [2]), 3, C(3, [1])) == 1
        assert signature_one(C(3, [3]), 2, C(3, [1])) == -1

    def test_four_inversions(self):
        # word (3,4,1,2) has four inversions
        assert signature_one(C(4, [3, 4]), 1, C(4, [2])) == 1

    def test_partition_required(self):
        with pytest.raises(ValueError):
            signature_one(C(3, [1]), 1, C(3, [2]))


def _entrywise_basis(n, k):
    """H(n, k)'s basis built entry by entry from ExactScalar lists and
    Combination ranks: the oracle for the array construction."""
    rows = combinations(n, n - k)
    cols = combinations(n, k - 1)
    basis = []
    for c in range(1, n + 1):
        entries = [ExactScalar(0)] * (len(rows) * len(cols))
        for I in cols:
            if c in I:
                continue
            J = I.union(Combination.of(n, [c])).complement()
            entries[J.rank() * len(cols) + I.rank()] = ExactScalar(signature_one(I, c, J))
        basis.append(ExactMatrix(len(rows), len(cols), entries))
    return basis


def _creation_operator(n, c):
    """The Jordan-Wigner creation operator a_c* = Z^(c-1) x [[0,0],[1,0]] x
    I^(n-c) on (C^2)^n, with mode 1 the most significant tensor factor."""
    z = ExactMatrix.from_rows([[1, 0], [0, -1]])
    create = ExactMatrix.from_rows([[0, 0], [1, 0]])
    out = None
    for mode in range(1, n + 1):
        f = z if mode < c else create if mode == c else ExactMatrix.identity(2)
        out = f if out is None else out.kron(f)
    return out


def _state(n, members):
    """Index in (C^2)^n of the basis state with the given modes occupied."""
    return sum(1 << (n - i) for i in members)


def _shuffle_sign(K, n):
    """sgn(K, K^c): the sign of the permutation listing K, then its
    complement, each ascending."""
    rest = [y for y in range(1, n + 1) if y not in K]
    return -1 if sum(x > y for x in K for y in rest) % 2 else 1


def _jordan_wigner_basis(n, k):
    """u_c as the block of a_c* from the (k-1)- to the k-particle sector,
    row K indexed by its complement J and multiplied by (-1)^(k-1) sgn(K, K^c);
    an oracle that shares no code with signature_one."""
    full = set(range(1, n + 1))
    rows = [sorted(full - set(J.members)) for J in combinations(n, n - k)]
    cols = [list(I.members) for I in combinations(n, k - 1)]
    row_idx = np.array([_state(n, K) for K in rows], dtype=np.intp)
    col_idx = np.array([_state(n, I) for I in cols], dtype=np.intp)
    signs = np.array([(-1) ** (k - 1) * _shuffle_sign(K, n) for K in rows], dtype=np.int64)
    out = []
    for c in range(1, n + 1):
        a = _creation_operator(n, c)
        assert a.den == 1 and not a.im.any()
        out.append(a.re[np.ix_(row_idx, col_idx)] * signs[:, None])
    return out


def _jordan_wigner_mismatches(space):
    """The c whose u_c differs from the Jordan-Wigner block."""
    want = _jordan_wigner_basis(space.n, space.k)
    return [c for c, (u, w) in enumerate(zip(space.basis, want), start=1)
            if not (u.den == 1 and not u.im.any() and np.array_equal(u.re, w))]


class TestJordanWigner:
    """build_hnk's signs against the Jordan-Wigner creation operators."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_sign_up_to_the_cap(self, n):
        for k in range(1, n + 1):
            assert _jordan_wigner_mismatches(build_hnk(n, k)) == []

    def test_a_wrong_sign_rule_is_caught(self, monkeypatch):
        # the third sign negated still builds a valid rank-one grid
        negated = []
        signs = hnk._jordan_wigner_signs

        def broken(n, cols, c):
            out = signs(n, cols, c)
            out[2] = -out[2]
            negated.append(int(c[2]) + 1)
            return out

        monkeypatch.setattr(hnk, "_jordan_wigner_signs", broken)
        space = build_hnk(4, 2)
        assert _jordan_wigner_mismatches(space) == negated


class TestSignRule:
    """The array sign rule of build_hnk against the one-triple rule."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_signature_one_for_every_triple(self, n):
        triples = [(I, c) for r in range(n) for I in combinations(n, r)
                   for c in range(1, n + 1) if c not in I.members]
        cols = np.array([sum(1 << (x - 1) for x in I) for I, _ in triples], dtype=np.intp)
        modes = np.array([c - 1 for _, c in triples], dtype=np.intp)
        want = [signature_one(I, c, I.union(C(n, [c])).complement()) for I, c in triples]
        assert hnk._jordan_wigner_signs(n, cols, modes).tolist() == want
        assert len(triples) == n * 2 ** (n - 1)


class TestBuildHnk:
    def test_example_n3_k2(self):
        sp = build_hnk(3, 2)
        for got, want in zip(sp.basis, EXAMPLE_N3K2):
            assert got == ExactMatrix.from_rows(want)

    def test_example_n4_k3(self):
        sp = build_hnk(4, 3)
        for got, want in zip(sp.basis, EXAMPLE_N4K3):
            assert got == ExactMatrix.from_rows(want)

    def test_extreme_k_row_and_column_patterns(self):
        for n in (2, 3, 4):
            rows = build_hnk(n, n)
            assert all(b.rows == 1 for b in rows.basis)
            cols = build_hnk(n, 1)
            assert all(b.cols == 1 for b in cols.basis)

    def test_trivial_space(self):
        sp = build_hnk(1, 1)
        assert sp.basis[0] == ExactMatrix.from_rows([[1]])

    def test_shapes_and_multiplicity(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                sp = build_hnk(n, k)
                assert sp.shape == (math.comb(n, n - k), math.comb(n, k - 1))
                assert sp.multiplicity == math.comb(n - 1, k - 1)
                for b in sp.basis:
                    assert b.nnz() == sp.multiplicity

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_hnk(9, 4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_the_entrywise_construction(self, n):
        for k in range(1, n + 1):
            got = build_hnk(n, k).basis
            want = _entrywise_basis(n, k)
            assert list(got) == want
            assert all(g.re.dtype == g.im.dtype == np.int64 for g in got)

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (6, 3), (8, 3)])
    def test_basis_is_one_stack(self, n, k):
        sp = build_hnk(n, k)
        assert sp.stack.dtype == np.int64 and not sp.stack.flags.writeable
        assert all(np.shares_memory(b.re, sp.stack) for b in sp.basis)
        assert sp.basis_family.members() == list(sp.basis)
        assert np.array_equal(sp.basis_array, np.stack([b.to_approx().array for b in sp.basis]))

    @pytest.mark.parametrize("bad", [0, 2, -2])
    def test_a_broken_sign_fails_validation(self, monkeypatch, bad):
        # the third entry of the basis gets a value that is no sign
        signs = hnk._jordan_wigner_signs

        def broken(n, cols, c):
            out = signs(n, cols, c)
            out[2] = bad
            return out

        monkeypatch.setattr(hnk, "_jordan_wigner_signs", broken)
        with pytest.raises(AssertionError, match="is not a sum of 3 signed units"):
            build_hnk(4, 2)

    def test_space_keeps_one_realization(self):
        sp = build_hnk(4, 2)
        real = sp.realization()
        assert sp.realization() is real
        grid = sp.as_grid()
        for i in range(1, sp.n + 1):
            assert grid.matrix(i) is real.elements[i - 1].mat
            assert real.matrix(i) is sp.basis[i - 1]

    @pytest.mark.parametrize("n, k", [(1, 1), (4, 2), (6, 3)])
    def test_space_keeps_one_family(self, n, k):
        # the family the realization checked colinearity on is the basis
        # family and the grid's
        sp = build_hnk(n, k)
        fam = sp.realization().family
        assert sp.basis_family is fam and sp.as_grid().family() is fam
        assert fam.members() == list(sp.basis)

    def test_realization_keeps_indices_and_words(self):
        real = build_hnk(4, 2).realization()
        assert indices(real) is indices(real)
        assert uij_family(real) is uij_family(real)


def _partial_permutation(rng, rows, cols):
    """A random nonzero partial permutation with entries all +-1 or all +-i."""
    r = int(rng.integers(1, min(rows, cols) + 1))
    unit = ExactScalar(1) if rng.random() < 0.5 else EX_I
    out = ExactMatrix.zeros(rows, cols)
    for i, j in zip(rng.permutation(rows)[:r], rng.permutation(cols)[:r]):
        sign = 1 if rng.random() < 0.5 else -1
        out = out + ExactMatrix.unit(rows, cols, int(i), int(j), unit * sign)
    return out


def _dense_partial_isometry(rng, rows, cols):
    """A random rank-1 partial isometry x y* with entries +-1/2 or +-i/2:
    unit vectors x and y with 2 and 2, 4 and 1, or 1 and 4 nonzeros, so it
    has two nonzeros in one row or one column."""
    fits = [(p, q) for p, q in ((2, 2), (4, 1), (1, 4)) if p <= rows and q <= cols]
    p, q = fits[int(rng.integers(len(fits)))]
    units = [ExactScalar(1), ExactScalar(-1), EX_I, -EX_I]
    x = [(int(r), units[int(rng.integers(4))]) for r in rng.permutation(rows)[:p]]
    y = [(int(c), units[int(rng.integers(4))]) for c in rng.permutation(cols)[:q]]
    entries = [[ExactScalar(0)] * cols for _ in range(rows)]
    for r, s in x:
        for c, t in y:
            entries[r][c] = s * t.conjugate() * ExactScalar(Fraction(1, 2))
    return ExactMatrix.from_rows(entries)


def _realization_error(mats):
    try:
        hnk.RankOneRealization(PartialIsometry(m) for m in mats)
    except ValueError as exc:
        return str(exc)
    return None


def _agree_with_the_oracle(mats, outcomes):
    """The realization accepts ``mats`` iff the pairwise oracle does, and
    names the oracle's first failing pair; count the oracle's outcome."""
    want = pairwise_verdict(mats)
    got = _realization_error(mats)
    if want is None:
        outcomes["accepted"] += 1
        assert got is None
    elif "minimal" in want:
        outcomes["minimality"] += 1
        a, b = want.removeprefix("element ").split(" is not minimal against ")
        assert got == f"elements {a}, {b} are not colinear"
    else:
        outcomes["colinearity"] += 1
        assert got == want


class TestRealizationValidation:
    """RankOneRealization checks colinearity only; the pairwise oracle also
    checks minimality first.  They must accept and reject the same families,
    and the first failing pair is the same: a pair that is not minimal is not
    colinear either."""

    def test_every_space_up_to_n6_is_accepted(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert pairwise_verdict(build_hnk(n, k).basis) is None

    def test_corrupted_families_agree_with_the_oracle(self):
        rng = np.random.default_rng(11)
        spaces = [build_hnk(n, k) for n in range(2, 7) for k in range(1, n + 1)]
        outcomes = {"accepted": 0, "minimality": 0, "colinearity": 0}
        for _ in range(400):
            space = spaces[int(rng.integers(len(spaces)))]
            mats = list(space.basis)
            mats[int(rng.integers(len(mats)))] = _partial_permutation(rng, *space.shape)
            _agree_with_the_oracle(mats, outcomes)
        # all three outcomes occur
        assert min(outcomes.values()) > 0, outcomes

    def test_dense_corruptions_agree_with_the_oracle(self):
        # families with a member that is not monomial, checked on the dense
        # rung: the basis, or the basis conjugated by rational rotations
        # (every triple relation kept), with one member replaced by a
        # partial isometry with entries 1/2 and two nonzeros in one line
        rng = np.random.default_rng(12)
        spaces = [sp for sp in (build_hnk(n, k) for n in range(3, 6) for k in range(1, n + 1))
                  if min(sp.shape) > 1 or max(sp.shape) > 3]  # room for two nonzeros in a line
        outcomes = {"accepted": 0, "minimality": 0, "colinearity": 0}
        for _ in range(150):
            space = spaces[int(rng.integers(len(spaces)))]
            (rows, cols), mats = space.shape, list(space.basis)
            rotate = rng.random() < 0.4
            if rotate:
                left, right = (_embedded(m, ROTATION) if m > 1 else ExactMatrix.identity(1)
                               for m in (rows, cols))
                mats = [left * m * right for m in mats]
            if not rotate or rng.random() < 0.5:
                mats[int(rng.integers(len(mats)))] = _dense_partial_isometry(rng, rows, cols)
            assert ExactFamily(mats)._gathers() is None
            _agree_with_the_oracle(mats, outcomes)
        assert min(outcomes.values()) > 0, outcomes

    def test_message_names_the_pair(self):
        # u_2 replaced by u_1: minimality fails first in the oracle
        mats = list(build_hnk(3, 2).basis)
        mats[1] = mats[0]
        assert pairwise_verdict(mats) == "element 1 is not minimal against 2"
        with pytest.raises(ValueError, match=r"^elements 1, 2 are not colinear$"):
            hnk.RankOneRealization(PartialIsometry(m) for m in mats)

    def test_empty_realization_has_no_family(self):
        real = hnk.RankOneRealization([])
        assert (real.n, real.family) == (0, None)
        grid = real.as_grid()
        assert len(grid) == 0 and grid.family() is None

    def test_one_element_has_no_pair(self, monkeypatch):
        evaluated = []
        equal = ExactFamily.equal
        monkeypatch.setattr(ExactFamily, "equal", lambda self, ia, *args, **kw:
                            evaluated.append(len(ia)) or equal(self, ia, *args, **kw))
        m = _dense_partial_isometry(np.random.default_rng(5), 3, 3)
        real = hnk.RankOneRealization([PartialIsometry(m)])
        assert real.n == 1 and real.family.members() == [m]
        assert real.as_grid().family() is real.family
        assert sum(evaluated) == 0


class TestSupportAndIndices:
    def test_support_products_on_n3_k2(self):
        real = build_hnk(3, 2).realization()
        assert support_product(real, "right", C(3, [1, 2])) == E(3, 3, 2, 2)
        assert support_product(real, "right", C(3, [1, 2, 3])).is_zero()
        u1 = real.matrix(1)
        p = support_product(real, "right", C(3, [1]))
        assert p == u1 * u1.adjoint()
        assert p * p == p and p.adjoint() == p

    def test_indices_formula(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert indices(build_hnk(n, k).realization()) == (k, n - k + 1)

    def test_row_grid_indices(self):
        real = build_hnk(3, 3).realization()
        assert indices(real) == (3, 1)
        col = build_hnk(3, 1).realization()
        assert indices(col) == (1, 3)

    def test_lower_bound(self):
        for real in (diag_hnk(3, [2, 1]), diag_hnk(4, [3, 1]),
                     build_hnk(4, 2).realization()):
            i_r, i_l = indices(real)
            assert i_r + i_l >= real.n + 1


class TestOnesAreWords:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3)])
    def test_factor_is_the_family_word(self, n, k):
        real = build_hnk(n, k).realization()
        fam = uij_family(real)
        factors = [f for I, J in fam for f in decompose_into_ones(real, I, J)]
        assert any(f.starred for f in factors) and not all(f.starred for f in factors)
        for f in factors:
            I, c, J = f.unit.colI, f.unit.c, f.unit.rowJ
            word = fam[(I, J)][0]
            assert f.matrix(real) is (word.adjoint() if f.starred else word)
            # the reference: (uu*)_I u_c (u*u)_J from the support products
            chain = support_product(real, "right", I) * real.matrix(c) \
                * support_product(real, "left", J)
            assert word == chain


class TestBuildUIJ:
    def test_signed_unit_for_disjoint_sets(self):
        sp = build_hnk(3, 2)
        real = sp.realization()
        I, J = C(3, [2]), C(3, [1])
        w = build_uIJ(real, I, J)
        assert w.scale(signature_general(real, I, J)) == sp.unit(J, I)

    def test_overlapping_sets_give_single_unit(self):
        sp = build_hnk(3, 2)
        real = sp.realization()
        I = J = C(3, [1])
        w = build_uIJ(real, I, J)
        assert as_rows(w) == ref_ternary(real.matrix(2), real.matrix(1), real.matrix(3))
        assert w.nnz() == 1
        assert w == sp.unit(C(3, [1]), C(3, [1]))

    def test_sum_decomposition(self):
        for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
            real = build_hnk(n, k).realization()
            for c in range(1, n + 1):
                assert sum_decomposition_holds(real, c)

    def test_size_mismatch(self):
        real = build_hnk(3, 2).realization()
        with pytest.raises(DimensionError):
            build_uIJ(real, C(3, [1, 2]), C(3, [1]))


class TestDecomposition:
    def test_disjoint_single_one(self):
        real = build_hnk(3, 2).realization()
        fs = decompose_into_ones(real, C(3, [2]), C(3, [3]))
        assert len(fs) == 1 and not fs[0].starred
        assert fs[0].c == 1

    def test_three_factor_case(self):
        real = build_hnk(3, 2).realization()
        fs = decompose_into_ones(real, C(3, [1]), C(3, [1]))
        assert [f.starred for f in fs] == [False, True, False]
        assert [f.c for f in fs] == [2, 1, 3]
        prod = None
        for f in fs:
            m = f.matrix(real)
            prod = m if prod is None else prod * m
        w = build_uIJ(real, C(3, [1]), C(3, [1]))
        assert prod in (w, -w)

    def test_deterministic_index_sets(self):
        real = build_hnk(4, 2).realization()
        I, J = C(4, [2]), C(4, [2, 3])
        a = decompose_into_ones(real, I, J)
        b = decompose_into_ones(real, I, J)
        assert [(f.unit, f.starred) for f in a] == [(f.unit, f.starred) for f in b]

    def test_custom_orders_give_same_word_up_to_sign(self):
        real = build_hnk(4, 2).realization()
        I, J = C(4, [1]), C(4, [1, 2])
        default = decompose_into_ones(real, I, J)
        swapped = decompose_into_ones(real, I, J, c_order=[4, 3], d_order=[1])
        def product(fs):
            out = None
            for f in fs:
                m = f.matrix(real)
                out = m if out is None else out * m
            return out
        p1, p2 = product(default), product(swapped)
        assert p1 == p2 or p1 == -p2

    def test_signature_disjoint_matches_one(self):
        real = build_hnk(4, 3).realization()
        for I in combinations(4, 2):
            for J in combinations(4, 1):
                if set(I.members) & set(J.members):
                    continue
                comp = I.union(J).complement()
                if len(comp) != 1:
                    continue
                c = comp.members[0]
                assert signature_general(real, I, J) == signature_one(I, c, J)


class TestVerifyUij:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
    def test_passes_with_unit_match(self, n, k):
        sp = build_hnk(n, k)
        rep = verify_uIJ_grid(sp.realization(), sp)
        assert rep.passed, rep.render_text()

    def test_decomposition_error_is_a_failed_check(self, monkeypatch):
        orig = hnk.decompose_into_ones

        def broken(real, I, J, *args):
            if (I, J) == (C(3, [1]), C(3, [1])):
                raise DecompositionError("factor with middle element 2 vanished")
            return orig(real, I, J, *args)

        monkeypatch.setattr(hnk, "decompose_into_ones", broken)
        sp = build_hnk(3, 2)
        checks = {c.name: c for c in verify_uIJ_grid(sp.realization(), sp).checks}
        dec = checks["uij_decomposition_into_ones"]
        assert dec.status == "fail" and "middle element 2 vanished" in dec.detail
        # the word's signature is unknown, so its ambient-unit match fails too
        assert checks["uij_matches_ambient_units"].status == "fail"

    def test_sign_coherence(self):
        real = build_hnk(4, 2).realization()
        checked, failures = ones_triple_coherence(real)
        assert checked > 0 and failures == 0

    @pytest.mark.parametrize("flip", ["sign", "word"])
    def test_sign_coherence_counts_failures(self, monkeypatch, flip):
        # flipping the first "one" breaks the sign product or the matrix
        # identity of every triple it enters (counts recorded while each
        # triple was checked with ExactMatrix products)
        real = build_hnk(4, 2).realization()
        fam = dict(uij_family(real))
        key = next(k for k in fam if not len(k[0].intersect(k[1])))
        mat, sign, error = fam[key]
        fam[key] = (mat, -sign, error) if flip == "sign" else (-mat, sign, error)
        monkeypatch.setattr(hnk, "uij_family", lambda r: fam)
        assert ones_triple_coherence(real) == (24, 12)

    @pytest.mark.parametrize("case,failing,digest", [
        ("negated", ["uij_signed_quadrangle", "uij_signed_quadrangle_out_of_scope",
                     "uij_matches_ambient_units"],
         "ec5d33ce5aac66f5b8ff82d1dfd3f24fad7ce9a18494db26283412860f0a41a4"),
        ("duplicate", ["uij_minimality", "uij_orthogonality", "uij_colinearity",
                       "uij_associative_orthogonality", "uij_weak_quadrangle",
                       "uij_matches_ambient_units"],
         "faa9bde86f3dd748c7b8b05bbd707040b6a0d0a26ffd044f59ca7c15bf122227"),
    ])
    def test_failures_in_loop_order(self, monkeypatch, case, failing, digest):
        # word 1 negated, or word 2 replaced by word 5; the digest of the
        # (name, status, detail) list was recorded while each check ran one
        # ExactMatrix product at a time
        sp = build_hnk(4, 2)
        fam = dict(uij_family(sp.realization()))
        keys = list(fam)
        if case == "negated":
            fam[keys[1]] = (-fam[keys[1]][0],) + fam[keys[1]][1:]
        else:
            fam[keys[2]] = (fam[keys[5]][0],) + fam[keys[2]][1:]
        monkeypatch.setattr(hnk, "uij_family", lambda r: fam)
        checks = [[c["name"], c["status"], c["detail"]]
                  for c in verify_uIJ_grid(sp.realization(), sp).to_json_dict()["checks"]]
        assert [name for name, status, _ in checks if status != "pass"] == failing
        assert hashlib.sha256(json.dumps(checks).encode()).hexdigest() == digest

    def test_capacity(self):
        with pytest.raises(CapacityError):
            verify_uIJ_grid(build_hnk(6, 3).realization())


class TestPeirceSplit:
    def test_identity_split_on_tight_space(self):
        real = build_hnk(4, 2).realization()
        p_part, q_part, p = peirce_split(real)
        assert q_part.n == 0
        for i in range(1, 5):
            assert p * real.matrix(i) == real.matrix(i)

    def test_diag_split_recovers_summands(self):
        real = diag_hnk(3, [2, 1])
        p_part, q_part, p = peirce_split(real)
        assert (indices(p_part), indices(q_part)) == ((2, 2), (1, 3))
        assert verify_grid(p_part.as_grid()).passed
        assert verify_grid(q_part.as_grid()).passed
        assert split_cross_orthogonal(real, p)
        sub = build_hnk(3, 2)
        for i in range(1, 4):
            m = p_part.matrix(i)
            top_left = ExactMatrix(3, 3, [m.entry(r, c)
                                          for r in range(3) for c in range(3)])
            assert top_left == sub.basis[i - 1]

    def test_strictly_decreasing_index(self):
        real = diag_hnk(4, [3, 1])
        p_part, q_part, _ = peirce_split(real)
        assert indices(p_part)[0] > indices(q_part)[0]

    def test_cross_orthogonality_fails_for_a_non_splitting_p(self):
        real = diag_hnk(3, [2, 1])
        _, _, p = peirce_split(real)
        corner = E(p.rows, p.rows, 0, 0)
        for proj, splits in ((p, True), (corner, False)):
            assert split_cross_orthogonal(real, proj) is splits
            # the reference: every cross pair, one product at a time
            one = ExactMatrix.identity(proj.rows)
            pairs = [(proj * real.matrix(i), (one - proj) * real.matrix(j))
                     for i in range(1, 4) for j in range(1, 4)]
            assert all((a * b.adjoint()).is_zero() and (a.adjoint() * b).is_zero()
                       for a, b in pairs) is splits


class TestDiag:
    def test_single_summand_matches_plain_space(self):
        real = diag_hnk(3, [2])
        sp = build_hnk(3, 2)
        for i in range(1, 4):
            assert real.matrix(i) == sp.basis[i - 1]

    def test_indices_exceed_tight_bound(self):
        real = diag_hnk(3, [2, 1])
        i_r, i_l = indices(real)
        assert (i_r, i_l) == (2, 3) and i_r + i_l > 4

    def test_requires_strictly_decreasing(self):
        with pytest.raises(ValueError):
            diag_hnk(3, [1, 2])
        with pytest.raises(ValueError):
            diag_hnk(3, [2, 2])


class TestDiagRect:
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2)])
    def test_verify_and_nondegeneracy(self, p, q):
        g = diag_rect(p, q)
        assert verify_grid(g).passed
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                for k in range(1, q + 1):
                    a, b = g.matrix((i, k)), g.matrix((i, j))
                    assert not (a * b.adjoint()).is_zero()
                    assert not (a.adjoint() * b).is_zero()
                for l in range(1, p + 1):
                    a, b = g.matrix((i, j)), g.matrix((l, j))
                    assert not (a * b.adjoint()).is_zero()
                    assert not (a.adjoint() * b).is_zero()

    def test_split_pipeline(self):
        for p, q in [(2, 2), (3, 2)]:
            g = diag_rect(p, q)
            p_grid, q_grid, proj = grid_support_split(g)
            assert verify_grid(p_grid).passed
            assert q_grid is not None and verify_grid(q_grid).passed
            # the projected part triggers the associative closure criterion
            for i in range(1, p + 1):
                for k in range(1, q + 1):
                    for j in range(1, q + 1):
                        if k != j:
                            prod = p_grid.matrix((i, k)) * p_grid.matrix((i, j)).adjoint()
                            assert prod.is_zero()
            assert ternary_matrix_unit_image(p_grid)

    def test_requires_two_by_two(self):
        with pytest.raises(ValueError):
            diag_rect(1, 3)

    def test_unit_image_fails_on_a_corrupted_p_grid(self):
        p_grid, _, _ = grid_support_split(diag_rect(3, 2))
        for idx in ((1, 1), (3, 2)):
            bad = Grid(p_grid.kind, p_grid.params,
                       [(i, -p_grid.matrix(i) if i == idx else p_grid.matrix(i))
                        for i in p_grid.indices])
            assert not ternary_matrix_unit_image(bad)

    @pytest.mark.parametrize("corrupt", [None, (1, 1), (3, 2)], ids=["clean", "u11", "u32"])
    def test_unit_image_matches_the_comprehension(self, monkeypatch, corrupt):
        p_grid, _, _ = grid_support_split(diag_rect(3, 2))
        if corrupt is not None:
            p_grid = Grid(p_grid.kind, p_grid.params,
                          [(i, -p_grid.matrix(i) if i == corrupt else p_grid.matrix(i))
                           for i in p_grid.indices])
        calls = []
        orig = ExactFamily.equal
        monkeypatch.setattr(ExactFamily, "equal",
                            lambda self, *a: calls.append(a) or orig(self, *a))
        got = ternary_matrix_unit_image(p_grid)
        monkeypatch.setattr(ExactFamily, "equal", orig)
        a, b, c, want = _unit_image_by_comprehension(p_grid)
        full = dict(zip(zip(a.tolist(), b.tolist(), c.tolist()),
                        zip(want[0].tolist(), want[1].tolist())))
        # one evaluation of the rows in loop order, each with the
        # comprehension's want; a row it skips wants 0 and is the zero
        # matrix, by its supports.  All 216 rows were evaluated before
        (ga, gb, gc, (kidx, kcoef, q)), = calls
        rows = list(zip(ga.tolist(), gb.tolist(), gc.tolist()))
        assert rows == sorted(rows) and q == want[2] == 1
        assert [full[t] for t in rows] == list(zip(kidx.tolist(), kcoef.tolist()))
        mats = p_grid.matrices()
        skipped = set(full) - set(rows)
        assert len(skipped) == 180
        for x, y, z in skipped:
            assert full[x, y, z][1] == 0
            assert (mats[x] * mats[y].adjoint() * mats[z]).is_zero()
        assert got is bool(ExactFamily(mats).equal(a, b, c, want).all())
        assert got is (corrupt is None)

    def test_unit_image_of_a_grid_without_a_target_raises(self):
        p_grid, _, _ = grid_support_split(diag_rect(3, 2))
        short = Grid(p_grid.kind, p_grid.params,
                     [(i, p_grid.matrix(i)) for i in p_grid.indices if i != (2, 1)])
        for image in (ternary_matrix_unit_image, _unit_image_by_comprehension):
            with pytest.raises(KeyError):
                image(short)


def _unit_image_by_comprehension(grid):
    """``ternary_matrix_unit_image``'s triples and want, one Python
    comprehension per triple, as they were built before the index arrays."""
    idxs = list(grid.indices)
    pos = {idx: x for x, idx in enumerate(idxs)}
    a, b, c = np.indices((len(idxs),) * 3).reshape(3, -1)
    unit = [idxs[x][1] == idxs[y][1] and idxs[y][0] == idxs[z][0] for x, y, z in zip(a, b, c)]
    target = [pos[(idxs[x][0], idxs[z][1])] if u else 0 for x, z, u in zip(a, c, unit)]
    return a, b, c, scaled_members(target, np.array(unit, dtype=int))


class TestProjection:
    def test_fixes_basis(self):
        for n, k in [(3, 2), (4, 3), (5, 2)]:
            sp = build_hnk(n, k)
            for b in sp.basis:
                assert hnk_projection_exact(sp, b) == b

    def test_unit_maps_to_scaled_basis_element(self):
        sp = build_hnk(3, 2)
        # E at row {2}, col {3} appears in u_1 with sign epsilon({3},1,{2}) = +1
        unit = sp.unit(C(3, [2]), C(3, [3]))
        want = sp.basis[0].scale(ExactScalar(Fraction(1, sp.multiplicity)))
        assert hnk_projection_exact(sp, unit) == want

    def test_idempotent_and_contractive(self, rng):
        sp = build_hnk(4, 2)
        rows, cols = sp.shape
        for _ in range(50):
            x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            px = hnk_projection(sp, x).array
            ppx = hnk_projection(sp, px).array
            assert np.abs(ppx - px).max() <= 1e-12 * max(1.0, np.abs(px).max())
            assert operator_norm(px) <= operator_norm(x) * (1 + 1e-9)

    def test_shape_mismatch(self):
        sp = build_hnk(3, 2)
        with pytest.raises(DimensionError):
            hnk_projection(sp, np.zeros((2, 2)))

    def test_stack_agrees_with_per_matrix_calls(self, rng):
        # a stacked tensordot is a gemm where one matrix is a gemv: equal up
        # to the last bits, not bit for bit
        for n, k in [(3, 2), (4, 2), (5, 3), (6, 4)]:
            sp = build_hnk(n, k)
            shape = (7, 3) + sp.shape
            x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            px = hnk_projection(sp, x)
            assert px.array.shape == shape
            for idx in np.ndindex(*shape[:2]):
                want = hnk_projection(sp, x[idx]).array
                assert np.abs(px.array[idx] - want).max() <= 1e-15 * max(1.0, np.abs(x[idx]).max())

    @pytest.mark.parametrize("shape", [(4, 3, 2), (4, 2, 3, 3, 1), (9,), ()], ids=str)
    def test_stack_with_wrong_trailing_shape(self, shape):
        sp = build_hnk(3, 2)  # 3 x 3
        with pytest.raises(DimensionError):
            hnk_projection(sp, np.zeros(shape))


def _projection_by_products(space, x):
    """``hnk_projection_exact`` one basis element at a time, as it ran before
    its traces became inner products: the product x U*, its trace, a scale
    and a sum per element."""
    minv = ExactScalar(Fraction(1, space.multiplicity))
    out = ExactMatrix.zeros(*space.shape)
    for u in space.basis:
        coeff = (x * u.adjoint()).trace() * minv
        out = out + u.scale(coeff)
    return out


class TestExactProjection:
    """The inner-product projection against the one-product-per-element loop."""

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 1), (6, 4)])
    def test_matches_products(self, n, k):
        rng = np.random.default_rng(10 * n + k)
        sp = build_hnk(n, k)
        x = random_exact(rng, *sp.shape, density=0.7)
        x = (x + sp.basis[0]).scale(ExactScalar(Fraction(1, 3), Fraction(2, 5)))
        assert x.den > 1 and x.im.any()  # complex, with a denominator
        assert hnk_projection_exact(sp, x) == _projection_by_products(sp, x)
        real = random_exact(rng, *sp.shape, halves=False)
        real = ExactMatrix(*sp.shape, [e.re for e in real.entries])
        assert hnk_projection_exact(sp, real) == _projection_by_products(sp, real)
        for u in sp.basis:
            assert hnk_projection_exact(sp, u.scale(EX_I)) == u.scale(EX_I)

    @pytest.mark.parametrize("above", [False, True], ids=["below", "at"])
    def test_python_ints_from_the_guard(self, monkeypatch, above):
        sp = build_hnk(3, 2)
        rows, cols = sp.shape
        # the basis numerators are +-1: the bound is 4 n rows cols max|x|
        edge = -(-(1 << 62) // (4 * sp.n * rows * cols))
        top = edge if above else edge - 1
        re = np.full(sp.shape, top, dtype=np.int64)
        re[0, 0] = 1
        im = np.full(sp.shape, -top, dtype=np.int64)
        x = ExactMatrix(rows, cols, _arrays=(re, im, 3))
        assert x._bound() == top and x.den == 3
        dtypes = []
        orig = numlin._cmatmul
        monkeypatch.setattr(numlin, "_cmatmul",
                            lambda a, b: dtypes.append(a[0].dtype) or orig(a, b))
        assert hnk_projection_exact(sp, x) == _projection_by_products(sp, x)
        assert dtypes == [np.dtype(object) if above else np.dtype(np.int64)] * 2


class TestTraceFormula:
    def test_basis_vector_case(self):
        sp = build_hnk(3, 2)
        rep = trace_formula_check(sp, [1, 0, 0])
        assert rep.lhs == pytest.approx(2.0, abs=1e-10)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)
        assert rep.multiplicity == 2 and rep.eigenvalue == 1
        assert rep.exact_verified
        assert rep.sqrt_multiplicity_value == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_exact_trace_identity(self):
        sp = build_hnk(4, 2)
        rep = trace_formula_check(sp, [1, ExactScalar(0, 1), Fraction(1, 2), -2])
        assert rep.exact_verified
        assert rep.residual <= 1e-9

    def test_zero_vector(self):
        sp = build_hnk(3, 2)
        rep = trace_formula_check(sp, [0, 0, 0])
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_float_coefficients(self):
        sp = build_hnk(3, 2)
        rep = trace_formula_check(sp, [0.5, -0.25j, 1.0])
        assert rep.residual <= 1e-9
