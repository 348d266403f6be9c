"""Grid constructors, the verifier, and the grid-to-matrix-unit transforms."""

import random
from fractions import Fraction

import numpy as np
import pytest

from jcgrid import cli, grids
from jcgrid.errors import CapacityError, TransformError
from jcgrid.grids import (GRID_VERIFY_CAP, Grid, conjugate_grid, hermitian_grid,
                          hermitian_to_matrix_units, random_signed_permutation,
                          rectangular_grid, spin_grid, spin_system,
                          spin_to_spin_system, symplectic_grid,
                          symplectic_to_matrix_units, verify_grid)
from jcgrid.hnk import build_hnk
from jcgrid.numlin import EX_HALF, EX_I, ExactFamily, ExactMatrix, exact_rank
from jcgrid.triple import (GridRelation, classify_relation, isotope_product,
                           ternary_product, triple_product)

E = ExactMatrix.unit


class TestRectangular:
    def test_row_grid_colinear(self):
        g = rectangular_grid(1, 3)
        ms = g.matrices()
        assert ms == [E(1, 3, 0, 0), E(1, 3, 0, 1), E(1, 3, 0, 2)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert classify_relation(g.element(g.indices[i]), g.element(g.indices[j])) \
                    is GridRelation.COLINEAR

    def test_diagonal_orthogonal(self):
        g = rectangular_grid(2, 2)
        assert classify_relation(g.element((1, 1)), g.element((2, 2))) \
            is GridRelation.ORTHOGONAL

    def test_chain_product(self):
        g = rectangular_grid(2, 2)
        got = triple_product(g.matrix((1, 2)), g.matrix((1, 1)), g.matrix((2, 1)))
        assert got == g.matrix((2, 2)).scale(EX_HALF)

    def test_verify_canonical(self):
        for p in (1, 2, 3):
            for q in (1, 2, 4):
                assert verify_grid(rectangular_grid(p, q)).passed

    def test_row_scaled_variant_still_passes(self):
        # rescaling a whole row by -1 keeps every table identity
        g = rectangular_grid(2, 2)
        elems = [((i, j), g.matrix((i, j)).scale(-1 if i == 1 else 1))
                 for (i, j) in g.indices]
        assert verify_grid(Grid("rectangular", {"p": 2, "q": 2}, elems)).passed

    def test_single_flip_on_rank_one_grid_passes(self):
        g = rectangular_grid(1, 3)
        elems = [((1, 1), g.matrix((1, 1)).scale(-1)),
                 ((1, 2), g.matrix((1, 2))), ((1, 3), g.matrix((1, 3)))]
        assert verify_grid(Grid("rectangular", {"p": 1, "q": 3}, elems)).passed

    def test_fattened_unit_fails_minimality(self):
        elems = []
        for (i, j) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            m = E(2, 2, i - 1, j - 1)
            if (i, j) == (1, 2):
                m = E(2, 2, 0, 1) + E(2, 2, 1, 0)
            elems.append(((i, j), m))
        rep = verify_grid(Grid("rectangular", {"p": 2, "q": 2}, elems))
        assert not rep.passed
        assert any(c.name == "minimality" and c.status == "fail" for c in rep.checks)

    def test_empty_grid_vacuous(self):
        assert verify_grid(Grid("rectangular", {"p": 1, "q": 1}, [])).passed


class TestHermitian:
    def test_m2_structure(self):
        g = hermitian_grid(2)
        assert len(g) == 3
        assert classify_relation(g.element((1, 2)), g.element((1, 1))) \
            is GridRelation.GOVERNS_FIRST_OVER_SECOND

    def test_chain_to_outer_index(self):
        g = hermitian_grid(4)
        got = triple_product(g.matrix((1, 2)), g.matrix((2, 3)), g.matrix((3, 4)))
        assert got == g.matrix((1, 4)).scale(EX_HALF)

    def test_partial_isometry_cube(self):
        g = hermitian_grid(3)
        u = g.matrix((1, 2))
        assert triple_product(u, u, u) == u

    def test_verify_canonical(self):
        for m in (2, 3, 4, 5, 6):
            rep = verify_grid(hermitian_grid(m))
            assert rep.passed, rep.render_text()

    def test_conjugated_passes(self):
        rng = random.Random(5)
        g = hermitian_grid(3)
        left = random_signed_permutation(3, rng)
        right = random_signed_permutation(3, rng)
        assert verify_grid(conjugate_grid(g, left, right)).passed


class TestSymplectic:
    def test_disjoint_orthogonal(self):
        g = symplectic_grid(4)
        assert classify_relation(g.element((1, 2)), g.element((3, 4))) \
            is GridRelation.ORTHOGONAL

    def test_quadrangle(self):
        g = symplectic_grid(4)
        got = triple_product(g.matrix((1, 2)), g.matrix((1, 4)), g.matrix((3, 4))).scale(2)
        assert got == g.matrix((2, 3)).scale(-1)

    def test_minimality(self):
        g = symplectic_grid(5)
        mats = g.matrices()
        for a in mats:
            for b in mats:
                got = ternary_product(a, b, a)
                assert got == (a if a == b else ExactMatrix.zeros(5, 5))

    def test_verify_canonical(self):
        for m in (4, 5, 6):
            assert verify_grid(symplectic_grid(m)).passed


class TestSpinSystem:
    def test_k2(self):
        s = spin_system(2)
        assert s[0] == ExactMatrix.from_rows([[1, 0], [0, -1]])
        assert s[1] == ExactMatrix.from_rows([[0, 1], [1, 0]])

    def test_k4_contains_chain_elements(self):
        s = spin_system(4)
        sigma3 = ExactMatrix.from_rows([[0, EX_I], [-EX_I, 0]])
        sigma1 = ExactMatrix.from_rows([[1, 0], [0, -1]])
        sigma2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert s[2] == sigma3.kron(sigma1)
        assert s[3] == sigma3.kron(sigma2)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_anticommutation_exact(self, k):
        s = spin_system(k)
        n = s[0].rows
        two = ExactMatrix.identity(n).scale(2)
        zero = ExactMatrix.zeros(n, n)
        for i, a in enumerate(s):
            assert a.adjoint() == a
            for j, b in enumerate(s):
                assert a * b + b * a == (two if i == j else zero)

    def test_squares_are_identity(self):
        for k in range(2, 9):
            for s in spin_system(k):
                assert s * s == ExactMatrix.identity(s.rows)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            spin_system(13)
        with pytest.raises(ValueError) as exc:
            spin_system(1)
        assert not isinstance(exc.value, CapacityError)


class TestSpinGrid:
    def test_even_passes(self):
        for r in (2, 3):
            assert verify_grid(spin_grid(r, False)).passed

    def test_odd_passes(self):
        for r in (2, 3):
            assert verify_grid(spin_grid(r, True)).passed

    def test_first_quadrangle_identity(self):
        g = spin_grid(2, False)
        got = triple_product(g.matrix(("u", 1)), g.matrix(("u", 2)), g.matrix(("ut", 1)))
        assert got == g.matrix(("ut", 2)).scale(EX_HALF).scale(-1)

    def test_partner_orthogonality(self):
        g = spin_grid(3, False)
        for j in (1, 2, 3):
            u, ut = g.matrix(("u", j)), g.matrix(("ut", j))
            assert (u * ut.adjoint()).is_zero() and (u.adjoint() * ut).is_zero()

    def test_governing_element(self):
        g = spin_grid(2, True)
        u0 = g.matrix(("u0", 0))
        for i in (1, 2):
            assert triple_product(u0, g.matrix(("u", i)), u0) == -g.matrix(("ut", i))
            assert triple_product(u0, g.matrix(("ut", i)), u0) == -g.matrix(("u", i))


class TestSpinToSpinSystem:
    def test_even_anticommutators(self):
        g = spin_grid(3, False)
        v, system = spin_to_spin_system(g)
        two_v = v.mat.scale(2)
        zero = ExactMatrix.zeros(*v.shape)
        for i, x in enumerate(system):
            for j, y in enumerate(system):
                anti = isotope_product(v, x, y) + isotope_product(v, y, x)
                assert anti == (two_v if i == j else zero)

    def test_odd_has_unit_square_governor(self):
        g = spin_grid(2, True)
        v, system = spin_to_spin_system(g)
        u0 = system[-1]
        assert isotope_product(v, u0, u0) == v.mat

    def test_span_dimension(self):
        for r, odd, want in [(2, False, 4), (2, True, 5), (3, False, 6)]:
            g = spin_grid(r, odd)
            v, system = spin_to_spin_system(g)
            vecs = [v.mat.entries] + [x.entries for x in system]
            assert exact_rank(vecs) == want


class TestHermitianTransform:
    def test_canonical_units(self):
        for m in (2, 3, 4):
            fam = hermitian_to_matrix_units(hermitian_grid(m))
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert fam.unit(i, j) == E(m, m, i - 1, j - 1)

    def test_diagonal_units_annihilate(self):
        fam = hermitian_to_matrix_units(hermitian_grid(3))
        v = fam.v
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert (fam.unit(i, i) * v.adjoint() * fam.unit(j, j)).is_zero()

    def test_conjugated_naturality(self):
        rng = random.Random(11)
        m = 4
        g = hermitian_grid(m)
        for _ in range(5):
            left = random_signed_permutation(m, rng)
            right = random_signed_permutation(m, rng)
            fam = hermitian_to_matrix_units(conjugate_grid(g, left, right))
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert fam.unit(i, j) == left * E(m, m, i - 1, j - 1) * right

    def test_wrong_kind_rejected(self):
        with pytest.raises(TransformError):
            hermitian_to_matrix_units(rectangular_grid(2, 2))


class TestSymplecticTransform:
    def test_canonical_units(self):
        fam = symplectic_to_matrix_units(symplectic_grid(5))
        for i in range(1, 6):
            for j in range(1, 6):
                assert fam.unit(i, j) == E(5, 5, i - 1, j - 1)

    def test_recovers_grid(self):
        g = symplectic_grid(5)
        fam = symplectic_to_matrix_units(g)
        for i in range(1, 6):
            for j in range(i + 1, 6):
                assert fam.unit(i, j) - fam.unit(j, i) == g.matrix((i, j))

    def test_requires_size_five(self):
        with pytest.raises(TransformError):
            symplectic_to_matrix_units(symplectic_grid(4))

    def test_conjugated_naturality(self):
        rng = random.Random(3)
        m = 5
        g = symplectic_grid(m)
        for _ in range(3):
            left = random_signed_permutation(m, rng)
            right = random_signed_permutation(m, rng)
            fam = symplectic_to_matrix_units(conjugate_grid(g, left, right))
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    assert fam.unit(i, j) == left * E(m, m, i - 1, j - 1) * right


def _replace(g, idx, mat):
    return Grid(g.kind, g.params, [(i, mat if i == idx else g.matrix(i)) for i in g.indices])


def _scaled(g, idx, c):
    return _replace(g, idx, g.matrix(idx).scale(c))


def _corrupted_grids():
    spin_odd, spin_even = spin_grid(2, True), spin_grid(3, False)
    rank1 = build_hnk(3, 2)
    return {
        "rectangular": _replace(rectangular_grid(2, 3), (1, 2), E(2, 3, 1, 0)),
        "hermitian": _replace(hermitian_grid(3), (1, 2), E(3, 3, 0, 1)),
        "symplectic": _replace(symplectic_grid(4), (1, 2), E(4, 4, 0, 1) + E(4, 4, 1, 0)),
        "spin": _scaled(spin_odd, ("ut", 1), EX_I),
        "spin-partner": _replace(spin_even, ("ut", 2), spin_even.matrix(("u", 2))),
        "hermitian-m6": _replace(hermitian_grid(6), (2, 5), E(6, 6, 4, 1)),
        "rank1": _replace(rank1.as_grid(), 2, rank1.basis[0].scale(EX_I)),
    }


# verify_grid reports of corrupted grids, recorded while every check was one
# ExactMatrix product at a time: (subject, [(check, status, detail)]), every
# residual 0.  The failure lists are the first three in loop order.
FAILURE_REPORTS = {
    "rectangular": ('rectangular(p=2,q=3)', [
        ('partial_isometry', 'pass',
         '6 elements'),
        ('pairwise_relations', 'fail',
         "mismatch [((1, 2), (1, 3), 'colinear', 'orthogonal'), ((1, 2), (2, 1), 'orthogonal', 'equal'), ((1, 2), (2, 3), 'orthogonal', 'colinear')]"),
        ('minimality', 'fail',
         'failed [((1, 2), (2, 1)), ((2, 1), (1, 2))]'),
        ('triple_products', 'fail',
         'failed [((1, 1), (1, 2), (2, 1)), ((1, 1), (1, 2), (2, 2)), ((1, 1), (1, 2), (2, 3))]'),
        ('rectangular_chain_identity', 'fail',
         'failed [(1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 3, 2)]'),
    ]),
    "hermitian": ('hermitian(m=3)', [
        ('partial_isometry', 'pass',
         '6 elements'),
        ('pairwise_relations', 'fail',
         "mismatch [((1, 1), (1, 2), 'governs-second-over-first', 'colinear'), ((1, 2), (1, 3), 'colinear', 'unclassified'), ((1, 2), (2, 2), 'governs-first-over-second', 'colinear')]"),
        ('minimality', 'pass',
         '3 elements'),
        ('triple_products', 'fail',
         'failed [((1, 1), (1, 2), (1, 2)), ((1, 1), (1, 2), (2, 2)), ((1, 1), (1, 2), (2, 3))]'),
        ('hermitian_chain_identity', 'fail',
         'failed [(1, 1, 2, 2), (1, 1, 2, 3), (1, 1, 3, 2)]'),
        ('hermitian_cycle_identity', 'fail',
         'failed [(1, 1, 2), (1, 2, 1), (1, 2, 2)]'),
        ('hermitian_table_skipped_patterns', 'flagged',
         "6 index patterns outside the table's side conditions, e.g. [('chain', 1, 2, 1, 2), ('chain', 1, 3, 1, 3), ('chain', 2, 1, 2, 1)]"),
    ]),
    "symplectic": ('symplectic(m=4)', [
        ('partial_isometry', 'pass',
         '6 elements'),
        ('pairwise_relations', 'pass',
         '15 pairs'),
        ('minimality', 'pass',
         '6 elements'),
        ('triple_products', 'fail',
         'failed [((1, 2), (1, 3), (2, 3)), ((1, 2), (1, 3), (3, 4)), ((1, 2), (1, 4), (2, 4))]'),
        ('symplectic_quad_identity', 'fail',
         'failed [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 4, 2)]'),
    ]),
    "spin": ('spin(odd=True,r=2)', [
        ('partial_isometry', 'pass',
         '5 elements'),
        ('pairwise_relations', 'pass',
         '10 pairs'),
        ('minimality', 'pass',
         '4 elements'),
        ('triple_products', 'fail',
         "failed [(('u', 1), ('u', 2), ('ut', 1)), (('u', 1), ('ut', 2), ('ut', 1)), (('u', 1), ('u0', 0), ('ut', 1))]"),
        ('spin_quadrangle_identities', 'fail',
         "failed [('quad1', 1, 2), ('quad2', 1, 2), ('quad1', 2, 1)]"),
        ('spin_partner_orthogonality', 'pass',
         ''),
        ('spin_governing_identities', 'fail',
         "failed [('govern-u', 1), ('govern-ut', 1)]"),
    ]),
    "spin-partner": ('spin(odd=False,r=3)', [
        ('partial_isometry', 'pass',
         '6 elements'),
        ('pairwise_relations', 'fail',
         "mismatch [(('u', 2), ('ut', 2), 'orthogonal', 'equal')]"),
        ('minimality', 'fail',
         "failed [(('u', 2), ('ut', 2)), (('ut', 2), ('u', 2))]"),
        ('triple_products', 'fail',
         "failed [(('u', 1), ('u', 2), ('ut', 1)), (('u', 1), ('u', 2), ('ut', 2)), (('u', 1), ('ut', 2), ('ut', 1))]"),
        ('spin_quadrangle_identities', 'fail',
         "failed [('quad1', 1, 2), ('quad2', 1, 2), ('quad1', 2, 1)]"),
        ('spin_partner_orthogonality', 'fail',
         'failed [2]'),
    ]),
    # the triple_products line re-recorded when the table of this 21-element
    # grid went from a 500-triple sample to all 4,851 triples
    "hermitian-m6": ('hermitian(m=6)', [
        ('partial_isometry', 'pass',
         '21 elements'),
        ('pairwise_relations', 'fail',
         "mismatch [((1, 2), (2, 5), 'colinear', 'unclassified'), ((1, 5), (2, 5), 'colinear', 'unclassified'), ((2, 2), (2, 5), 'governs-second-over-first', 'colinear')]"),
        ('minimality', 'pass',
         '6 elements'),
        ('triple_products', 'fail',
         'failed [((1, 1), (1, 2), (2, 5)), ((1, 1), (1, 5), (2, 5)), ((1, 2), (1, 1), (1, 5))]'),
        ('hermitian_chain_identity', 'fail',
         'failed [(1, 1, 2, 5), (1, 1, 5, 2), (1, 2, 2, 5)]'),
        ('hermitian_cycle_identity', 'fail',
         'failed [(1, 2, 5), (1, 5, 2), (2, 1, 5)]'),
        ('hermitian_table_skipped_patterns', 'flagged',
         "30 index patterns outside the table's side conditions, e.g. [('chain', 1, 2, 1, 2), ('chain', 1, 3, 1, 3), ('chain', 1, 4, 1, 4)]"),
    ]),
    "rank1": ('rank1(n=3)', [
        ('partial_isometry', 'pass',
         '3 elements'),
        ('pairwise_relations', 'fail',
         "mismatch [(1, 2, 'colinear', 'unclassified')]"),
        ('minimality', 'fail',
         'failed [(1, 2), (2, 1)]'),
        ('triple_products', 'fail',
         'failed [(1, 1, 2), (1, 2, 1), (1, 2, 2)]'),
        ('rank_one_identities', 'fail',
         "failed [('colinear', 1, 2), ('jordan-minimal', 1, 2), ('distinct-zero', 1, 2, 3)]"),
    ]),
}


def _classify_by_triple_products(v, w):
    """The relation read off the triple products {w,w,v} and {v,v,w}: the
    reference for ``classify_relation``."""
    if v.mat == w.mat:
        return GridRelation.EQUAL
    if (v.mat.adjoint() * w.mat).is_zero() and (v.mat * w.mat.adjoint()).is_zero():
        return GridRelation.ORTHOGONAL
    wwv = triple_product(w.mat, w.mat, v.mat)
    vvw = triple_product(v.mat, v.mat, w.mat)
    half_v, half_w = v.mat.scale(EX_HALF), w.mat.scale(EX_HALF)
    if wwv == half_v and vvw == half_w:
        return GridRelation.COLINEAR
    if vvw == w.mat and wwv == half_v:
        return GridRelation.GOVERNS_FIRST_OVER_SECOND
    if wwv == v.mat and vvw == half_w:
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    return GridRelation.UNCLASSIFIED


def test_classify_relation_matches_triple_products():
    clean = [rectangular_grid(2, 3), hermitian_grid(4), symplectic_grid(5),
             spin_grid(2, True), spin_grid(3, False), build_hnk(4, 2).as_grid()]
    seen = set()
    for g in clean + list(_corrupted_grids().values()):
        for v in g.isometries():
            for w in g.isometries():
                got = classify_relation(v, w)
                assert got is _classify_by_triple_products(v, w)
                seen.add(got)
    assert seen == set(GridRelation)


class TestFailureReports:
    @pytest.mark.parametrize("case", list(FAILURE_REPORTS))
    def test_report_pins_failures_in_loop_order(self, case):
        got = verify_grid(_corrupted_grids()[case]).to_json_dict()
        subject, checks = FAILURE_REPORTS[case]
        assert got["subject"] == subject and got["overall"] == "fail"
        assert [(c["name"], c["status"], c["detail"]) for c in got["checks"]] == checks
        assert all(c["residual"] == 0.0 for c in got["checks"])


# the first TransformError of each transform on a corrupted grid, recorded
# while the relation loops ran one ExactMatrix product at a time
TRANSFORM_ERRORS = [
    (hermitian_to_matrix_units, lambda: _replace(hermitian_grid(4), (1, 2), E(4, 4, 0, 1)),
     "involution fails: e_12^# != e_21"),
    (hermitian_to_matrix_units,
     lambda: _replace(hermitian_grid(4), (1, 1), E(4, 4, 0, 0) - E(4, 4, 1, 1)),
     "product fails: e_12 . e_21 != delta e_11"),
    (hermitian_to_matrix_units, lambda: _scaled(hermitian_grid(4), (1, 3), EX_I),
     "product fails: e_12 . e_23 != delta e_13"),
    (symplectic_to_matrix_units, lambda: _replace(symplectic_grid(5), (1, 2), E(5, 5, 0, 0)),
     "diagonal unit e_11 is ambiguous at pair (3,4)"),
    (symplectic_to_matrix_units, lambda: _replace(symplectic_grid(5), (1, 2), E(5, 5, 0, 1)),
     "diagonal unit e_11 is ambiguous at pair (3,2)"),
    (symplectic_to_matrix_units, lambda: _scaled(symplectic_grid(5), (1, 4), -EX_I),
     "diagonal unit e_11 is ambiguous at pair (2,4)"),
    (symplectic_to_matrix_units, lambda: _replace(symplectic_grid(5), (4, 5), -E(5, 5, 4, 3)),
     "diagonal unit e_11 is ambiguous at pair (5,4)"),
]


class TestTransformErrors:
    @pytest.mark.parametrize("transform,grid,message", TRANSFORM_ERRORS,
                             ids=[m for _, _, m in TRANSFORM_ERRORS])
    def test_first_error_message(self, transform, grid, message):
        with pytest.raises(TransformError) as exc:
            transform(grid())
        assert str(exc.value) == message


def _upper_triples(n):
    """Every (x, y, z) with x <= z, in loop order."""
    return np.array([(x, y, z) for x in range(n) for y in range(n) for z in range(x, n)],
                    dtype=np.intp).reshape(-1, 3).T


def _model_coefficients(g, xs, ys, zs):
    """The reference for the matrix-unit rule: the u-coefficients of
    2 {u_x, u_y, u_z}, read off the products of the canonical model itself.
    The model's elements are matrix units (rectangular) or sums of two, so
    entry (i, j) of a product is the coefficient of u_ij; the read-off is
    checked by rebuilding every product from it."""
    fam = ExactFamily(g.matrices())
    twice, _ = fam.ternary(xs, ys, zs, sym=True)
    rows, cols = (np.array(g.indices) - 1).T
    coeffs = twice[:, rows, cols]
    assert (np.tensordot(coeffs, fam.re, axes=(1, 0)) == twice).all()
    return coeffs


def _rule_coefficients(g, xs, ys, zs):
    """The u-coefficients of 2 {u_x, u_y, u_z} that verify_grid expects."""
    kidx, kcoef, q = grids._expected_table(g, xs, ys, zs)
    assert q == 2
    dense = np.zeros((len(xs), len(g)), dtype=np.int64)
    np.add.at(dense, (np.arange(len(xs))[:, None], kidx), kcoef.astype(np.int64))
    return dense


class TestMatrixUnitRule:
    """The index rule of the rectangular, hermitian and symplectic triple
    tables against the canonical model it replaces."""

    @pytest.mark.parametrize("g", [hermitian_grid(m) for m in range(2, 8)]
                             + [symplectic_grid(m) for m in range(4, 8)]
                             + [rectangular_grid(p, q) for p in range(1, 5) for q in range(1, 5)],
                             ids=lambda g: g.describe())
    def test_rule_matches_canonical_model(self, g):
        xs, ys, zs = _upper_triples(len(g))
        assert (_rule_coefficients(g, xs, ys, zs) == _model_coefficients(g, xs, ys, zs)).all()


def _spin_partner(key):
    return ("ut" if key[0] == "u" else "u", key[1])


def _spin_triple(a, b, c):
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


class TestSpinRule:
    """The spin grid's index rule against the dict rule it replaces."""

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("r", range(2, 7))
    def test_rule_matches_dict_rule_on_every_triple(self, r, odd):
        g = spin_grid(r, odd)
        n, idxs = len(g), g.indices
        xs, ys, zs = (v.ravel() for v in np.indices((n, n, n)))
        want = np.zeros((len(xs), 2), dtype=np.int64)
        for t, (x, y, z) in enumerate(zip(xs, ys, zs)):
            for idx, v in _spin_triple(idxs[x], idxs[y], idxs[z]).items():
                want[t] = idxs.index(idx), 2 * v
        kidx, kcoef, q = grids._triple_rule(g, xs, ys, zs)
        assert q == 2 and kidx.shape == kcoef.shape == (len(xs), 1)
        assert kidx.dtype == np.intp and kcoef.dtype == np.int64
        assert (np.hstack([kidx, kcoef]) == want).all()


# grids that the canonical model read-off could not report: a broken element
# changed the model the expected values were read from
BROKEN_CONSTRUCTIONS = {
    "hermitian-negated-u11": ("hermitian_grid", ["--m", "4"],
                              lambda g: _scaled(g, (1, 1), -1)),
    "hermitian-u12-plus-e34-e43": ("hermitian_grid", ["--m", "4"],
                                   lambda g: _replace(g, (1, 2), g.matrix((1, 2)) + E(4, 4, 2, 3)
                                                      + E(4, 4, 3, 2))),
    "symplectic-negated-u12": ("symplectic_grid", ["--m", "5"],
                               lambda g: _scaled(g, (1, 2), -1)),
}


class TestBrokenConstruction:
    @pytest.mark.parametrize("case", list(BROKEN_CONSTRUCTIONS))
    def test_broken_constructor_fails_triple_table(self, monkeypatch, capsys, case):
        name, size, mutate = BROKEN_CONSTRUCTIONS[case]
        build = getattr(grids, name)
        monkeypatch.setattr(grids, name, lambda m: mutate(build(m)))
        kind = name.split("_")[0]
        assert cli.main(["verify", "grid", "--kind", kind, *size]) == 1
        out = capsys.readouterr().out
        assert "[FAIL   ] triple_products" in out and "overall: fail" in out


class TestVerifyCap:
    def test_at_cap_is_exhaustive(self, capsys):
        assert len(hermitian_grid(12)) == GRID_VERIFY_CAP
        assert cli.main(["verify", "grid", "--kind", "hermitian", "--m", "12"]) == 0
        out = capsys.readouterr().out
        assert "240318 triples (exhaustive)" in out and "overall: pass" in out

    def test_above_cap_forms_no_product(self, monkeypatch):
        g = rectangular_grid(1, GRID_VERIFY_CAP + 1)
        products = []
        for owner, method in ((ExactMatrix, "__mul__"), (ExactFamily, "__init__")):
            orig = getattr(owner, method)
            monkeypatch.setattr(owner, method,
                                lambda *a, _orig=orig, **k: products.append(a) or _orig(*a, **k))
        with pytest.raises(CapacityError):
            verify_grid(g)
        assert products == []

    def test_above_cap_exits_3(self, capsys):
        argv = ["verify", "grid", "--kind", "rectangular", "--p", "1",
                "--q", str(GRID_VERIFY_CAP + 1)]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capacity: ")


def _distinct_quads(m):
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    if len({i, j, k, l}) == 4:
                        yield (i, j, k, l)


def _named_instances(grid):
    """The generator the verifier evaluated the named identities from, one
    (check, (a, b, c), want, label) tuple per instance: {u_a, u_b, u_c}
    must equal the sum of want[idx] u_idx, and a failure is reported under
    ``check`` as ``label``, in this order.  The oracle for the index arrays
    of ``grids._named_table``."""
    kind = grid.kind
    half = Fraction(1, 2)
    if kind == "rectangular":
        p, q = grid.params["p"], grid.params["q"]
        for j in range(1, p + 1):
            for i in range(1, p + 1):
                if i == j:
                    continue
                for k in range(1, q + 1):
                    for l in range(1, q + 1):
                        if k != l:
                            yield ("rectangular_chain_identity", ((j, k), (j, l), (i, l)),
                                   {(i, k): half}, (j, k, l, i))
    elif kind == "hermitian":
        m = grid.params["m"]
        key = lambda i, j: (i, j) if i <= j else (j, i)
        skipped = "hermitian_table_skipped_patterns"
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    for l in range(1, m + 1):
                        if i == l:
                            continue
                        trio = (key(i, j), key(j, k), key(k, l))
                        if len(set(trio)) < 2:
                            yield skipped, trio, {key(i, l): half}, ("chain", i, j, k, l)
                        else:
                            yield ("hermitian_chain_identity", trio, {key(i, l): half},
                                   (i, j, k, l))
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                for k in range(1, m + 1):
                    trio = (key(i, j), key(j, k), key(k, i))
                    if len(set(trio)) < 2:
                        yield skipped, trio, {key(i, i): 1}, ("cycle", i, j, k)
                    else:
                        yield "hermitian_cycle_identity", trio, {key(i, i): 1}, (i, j, k)
    elif kind == "symplectic":
        key = lambda a, b: (a, b) if a < b else (b, a)
        sign = lambda a, b: 1 if a < b else -1
        for quad in _distinct_quads(grid.params["m"]):
            i, j, k, l = quad
            s = sign(i, j) * sign(i, l) * sign(k, l) * sign(k, j)
            yield ("symplectic_quad_identity", (key(i, j), key(i, l), key(k, l)),
                   {key(k, j): Fraction(s, 2)}, quad)
    elif kind == "spin":
        r, odd = grid.params["r"], grid.params["odd"]
        quads = "spin_quadrangle_identities"
        for i in range(1, r + 1):
            for j in range(1, r + 1):
                if i == j:
                    continue
                yield quads, (("u", i), ("u", j), ("ut", i)), {("ut", j): -half}, ("quad1", i, j)
                yield quads, (("u", j), ("ut", i), ("ut", j)), {("u", i): -half}, ("quad2", i, j)
        if odd:
            u0 = ("u0", 0)
            for i in range(1, r + 1):
                yield ("spin_governing_identities", (u0, ("u", i), u0), {("ut", i): -1},
                       ("govern-u", i))
                yield ("spin_governing_identities", (u0, ("ut", i), u0), {("u", i): -1},
                       ("govern-ut", i))
    elif kind == "rank1":
        n = grid.params["n"]
        check = "rank_one_identities"
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a != b:
                    yield check, (a, a, b), {b: half}, ("colinear", a, b)
                    yield check, (a, b, a), {}, ("jordan-minimal", a, b)
                for c in range(1, n + 1):
                    if len({a, b, c}) == 3:
                        yield check, (a, b, c), {}, ("distinct-zero", a, b, c)


def _named_from_arrays(grid):
    """The instances of ``grids._named_table`` as generator tuples."""
    forms, form, params, a, b, c, member, coef = grids._named_table(grid)
    idxs = grid.indices
    out = []
    for t in range(len(form)):
        check, tag, width = forms[form[t]]
        values = params[t, :width].tolist()
        want = {idxs[member[t]]: Fraction(int(coef[t]), 2)} if coef[t] else {}
        out.append((check, (idxs[a[t]], idxs[b[t]], idxs[c[t]]), want,
                    tuple(values) if tag is None else (tag, *values)))
    return out


NAMED_GRIDS = ([rectangular_grid(p, q) for p, q in [(1, 1), (1, 4), (2, 2), (2, 3), (3, 2),
                                                    (4, 4), (6, 13), (13, 6)]]
               + [hermitian_grid(m) for m in (2, 3, 4, 6, 12)]
               + [symplectic_grid(m) for m in (4, 5, 7, 13)]
               + [spin_grid(r, odd) for r in (2, 3, 6) for odd in (False, True)]
               + [build_hnk(n, k).as_grid() for n, k in [(1, 1), (2, 1), (3, 2), (6, 3), (8, 4)]])


class TestNamedTable:
    """The named identities as index arrays, read off the triple table."""

    @pytest.mark.parametrize("g", NAMED_GRIDS, ids=lambda g: g.describe())
    def test_arrays_match_the_generator(self, g):
        assert _named_from_arrays(g) == list(_named_instances(g))

    def test_grid_without_a_named_element_raises(self):
        g = rectangular_grid(2, 2)
        short = Grid("rectangular", g.params, [(i, g.matrix(i)) for i in g.indices[:3]])
        with pytest.raises(KeyError):
            grids._named_table(short)

    @pytest.mark.parametrize("every", [False, True], ids=["one-row", "every-row"])
    @pytest.mark.parametrize("case", ["clean-hermitian", "clean-spin", "clean-rank1"]
                             + list(FAILURE_REPORTS))
    def test_wrong_table_want_keeps_named_verdicts(self, monkeypatch, case, every):
        clean = {"clean-hermitian": hermitian_grid(4), "clean-spin": spin_grid(3, True),
                 "clean-rank1": build_hnk(5, 2).as_grid()}
        g = clean[case] if case in clean else _corrupted_grids()[case]
        named = {c["name"]: c for c in verify_grid(g).to_json_dict()["checks"]}
        _, _, _, a, b, c, _, _ = grids._named_table(g)
        n = len(g)
        lo, hi = min(a[0], c[0]), max(a[0], c[0])
        first = n * (lo * n - lo * (lo - 1) // 2) + b[0] * (n - lo) + hi - lo
        orig = grids._expected_table

        def wrong(grid, xs, ys, zs):
            kidx, kcoef, q = orig(grid, xs, ys, zs)
            kcoef = np.array(kcoef)
            kcoef[slice(None) if every else first] += 1
            return kidx, kcoef, q

        monkeypatch.setattr(grids, "_expected_table", wrong)
        calls = []
        orig_equal = ExactFamily.equal
        monkeypatch.setattr(ExactFamily, "equal", lambda self, *a, **k: calls.append(k) or
                            orig_equal(self, *a, **k))
        got = verify_grid(g).to_json_dict()["checks"]
        assert [c["name"] for c in got] == list(named)
        for check in got:
            if check["name"] == "triple_products":
                assert check["status"] == "fail"
            else:
                assert check == named[check["name"]]
        # the table, then the instances whose want differs, on their own
        assert [k.get("sym") for k in calls].count(True) == 2


def _unit_table_oracle(units, vmat):
    """``grids._unit_table`` one ExactMatrix product at a time."""
    keys = list(units)
    zero = ExactMatrix.zeros(*vmat.shape)
    involution = np.array([vmat * units[(i, j)].adjoint() * vmat == units[(j, i)]
                           for i, j in keys])
    product = np.array([[units[(i, j)] * vmat.adjoint() * units[(k, l)]
                         == (units[(i, l)] if j == k else zero)
                         for k, l in keys] for i, j in keys])
    return involution, product


def _unit_cases():
    herm = hermitian_to_matrix_units(hermitian_grid(3))
    sympl = symplectic_to_matrix_units(symplectic_grid(5))
    out = {"hermitian-3": (herm.units, herm.v), "symplectic-5": (sympl.units, sympl.v)}
    units = dict(herm.units)
    units[(1, 2)] = units[(1, 2)].scale(EX_I)
    out["hermitian-3-e12-times-i"] = (units, herm.v)
    units = dict(sympl.units)
    units[(2, 3)], units[(3, 2)] = units[(3, 2)], units[(2, 3)]
    out["symplectic-5-e23-e32-swapped"] = (units, sympl.v)
    out["hermitian-3-v-halved"] = (herm.units, herm.v.scale(EX_HALF))
    units = dict(herm.units)
    units[(3, 3)] = units[(3, 3)] + units[(1, 3)]
    out["hermitian-3-e33-plus-e13"] = (units, herm.v)
    return out


UNIT_CASES = _unit_cases()


@pytest.mark.parametrize("case", list(UNIT_CASES))
def test_unit_table_matches_loop_oracle(case):
    units, vmat = UNIT_CASES[case]
    involution, product = grids._unit_table(units, vmat)
    want_inv, want_prod = _unit_table_oracle(units, vmat)
    assert involution.tolist() == want_inv.tolist()
    assert product.tolist() == want_prod.tolist()
    clean = case in ("hermitian-3", "symplectic-5")
    assert (involution.all() and product.all()) == clean


# The per-kind index rules that verify_grid used before every expected value
# came from the triple rule: the oracles for ``grids._expected_pairs`` and for
# the rank-1 reading of the matrix-unit rule.


def _rect_pair(a, b):
    if a == b:
        return GridRelation.EQUAL
    if a[0] == b[0] or a[1] == b[1]:
        return GridRelation.COLINEAR
    return GridRelation.ORTHOGONAL


def _rank1_pair(a, b):
    return GridRelation.EQUAL if a == b else GridRelation.COLINEAR


def _acc(out, idx, coeff):
    total = out.get(idx, 0) + coeff
    if total:
        out[idx] = total
    else:
        out.pop(idx, None)


def _rank1_triple(a, b, c):
    out = {}
    if a == b:
        _acc(out, c, Fraction(1, 2))
    if b == c:
        _acc(out, a, Fraction(1, 2))
    return out


def _herm_pair(a, b):
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


def _sympl_pair(a, b):
    if a == b:
        return GridRelation.EQUAL
    return GridRelation.COLINEAR if set(a) & set(b) else GridRelation.ORTHOGONAL


def _spin_pair(a, b):
    if a == b:
        return GridRelation.EQUAL
    if a[0] == "u0":
        return GridRelation.GOVERNS_FIRST_OVER_SECOND
    if b[0] == "u0":
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    if a[1] == b[1]:
        return GridRelation.ORTHOGONAL
    return GridRelation.COLINEAR


PAIR_ORACLES = {"rectangular": _rect_pair, "hermitian": _herm_pair, "symplectic": _sympl_pair,
                "spin": _spin_pair, "rank1": _rank1_pair}


def _minimal_indices(grid):
    if grid.kind == "hermitian":
        return [idx for idx in grid.indices if idx[0] == idx[1]]
    if grid.kind == "spin":
        return [idx for idx in grid.indices if idx[0] != "u0"]
    return list(grid.indices)


PAIR_GRIDS = ([hermitian_grid(m) for m in range(2, 8)]
              + [symplectic_grid(m) for m in range(4, 8)]
              + [rectangular_grid(p, q) for p in range(1, 5) for q in range(1, 5)]
              + [spin_grid(r, odd) for r in range(2, 5) for odd in (False, True)]
              + [build_hnk(n, k).as_grid() for n in range(1, 7) for k in range(1, n + 1)])


class TestExpectedPairs:
    """The pair relations and minimal elements read off the triple rule
    against the per-kind rules they replace."""

    @pytest.mark.parametrize("g", PAIR_GRIDS, ids=lambda g: g.describe())
    def test_relations_and_minimal_match_the_kind_rules(self, g):
        relations, minimal = grids._expected_pairs(g)
        idxs, rule = g.indices, PAIR_ORACLES[g.kind]
        assert relations == [rule(idxs[x], idxs[z])
                             for x in range(len(g)) for z in range(x + 1, len(g))]
        assert [idxs[v] for v in minimal] == _minimal_indices(g)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rank1_rule_is_the_one_row_matrix_unit_rule(self, n):
        g = build_hnk(n, 1).as_grid()
        xs, ys, zs = _upper_triples(n)
        idxs = g.indices
        want = np.zeros((len(xs), n), dtype=np.int64)
        for t, (x, y, z) in enumerate(zip(xs, ys, zs)):
            for idx, v in _rank1_triple(idxs[x], idxs[y], idxs[z]).items():
                want[t, idxs.index(idx)] = 2 * v
        assert (_rule_coefficients(g, xs, ys, zs) == want).all()

    # the minimality pass made a second equal call, and the spin partners
    # two vanish calls, before their verdicts were read off the table
    @pytest.mark.parametrize("g", [rectangular_grid(2, 3), hermitian_grid(4), symplectic_grid(5),
                                   spin_grid(2, False), spin_grid(3, True),
                                   build_hnk(4, 2).as_grid()], ids=lambda g: g.describe())
    def test_one_family_evaluation(self, monkeypatch, g):
        calls = []
        for method in ("equal", "vanish"):
            orig = getattr(ExactFamily, method)
            monkeypatch.setattr(ExactFamily, method, lambda self, *a, _m=method, _o=orig, **k:
                                calls.append(_m) or _o(self, *a, **k))
        assert verify_grid(g).passed
        # the table; a hermitian grid's skipped chain and cycle patterns
        # have a want that is not the table's, so they are evaluated on
        # their own
        assert calls == ["equal"] * (2 if g.kind == "hermitian" else 1)
