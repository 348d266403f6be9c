"""Grid constructors, the verifier, and the grid-to-matrix-unit transforms."""

import random
from fractions import Fraction

import numpy as np
import pytest

from jcgrid import cli, grids, hnk
from jcgrid.errors import CapacityError, DimensionError, TransformError
from jcgrid.grids import (GRID_VERIFY_CAP, Grid, conjugate_grid, grid_size, hermitian_grid,
                          hermitian_to_matrix_units, random_signed_permutation,
                          rectangular_grid, spin_grid, spin_system,
                          spin_to_spin_system, symplectic_grid,
                          symplectic_to_matrix_units, verify_grid)
from jcgrid.hnk import build_hnk
from jcgrid.numlin import (EX_HALF, EX_I, ExactFamily, ExactMatrix, ExactScalar, block_diag,
                           exact_rank, scaled_members)
from jcgrid.triple import (GridRelation, PartialIsometry, classify_relation,
                           isotope_product, triple_product)
from test_cli import COMPLEX_ROTATION, ROTATION, _embedded
from table_oracle import (classify_by_triple_products, spin_triple, table_verdicts,
                          wants_nonzero, zero_by_supports)
from test_numlin import _relation_by_definition, as_rows, ref_ternary

E = ExactMatrix.unit


def _relation(g, x, z):
    """The relation of the elements indexed x and z, from ``classify_relation``."""
    return classify_relation(g.family(), [g.indices.index(x)], [g.indices.index(z)])[0]


class TestRectangular:
    def test_row_grid_colinear(self):
        g = rectangular_grid(1, 3)
        ms = g.matrices()
        assert ms == [E(1, 3, 0, 0), E(1, 3, 0, 1), E(1, 3, 0, 2)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert _relation(g, g.indices[i], g.indices[j]) is GridRelation.COLINEAR

    def test_diagonal_orthogonal(self):
        g = rectangular_grid(2, 2)
        assert _relation(g, (1, 1), (2, 2)) is GridRelation.ORTHOGONAL

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


def _first_isometry_error(mats):
    """The oracle of the grid's check: ``PartialIsometry`` on each matrix in
    order, and the message of the first that fails."""
    for mat in mats:
        try:
            PartialIsometry(mat)
        except ValueError as exc:
            return str(exc)
    return None


def _rotation(bits):
    """An exact 2 x 2 rotation over c = a^2 + b^2 with a = 2^bits + 1 and
    b = 2^(bits - 1): numerators of about 2^(2 bits)."""
    a, b = (1 << bits) + 1, 1 << (bits - 1)
    p, q, c = a * a - b * b, 2 * a * b, a * a + b * b
    return [[Fraction(p, c), Fraction(-q, c)], [Fraction(q, c), Fraction(p, c)]]


def _isometry_pool():
    """3 x 3 matrices: partial isometries with denominators, imaginary parts
    and numerators from 2^62 up, the zero matrix, and matrices that fail
    v v* v = v."""
    wide = ExactMatrix.from_rows([row + [0] for row in _rotation(31)] + [[0, 0, 0]])
    assert wide * wide.adjoint() * wide == wide and wide.re.dtype == object
    return [E(3, 3, 0, 0), E(3, 3, 1, 2).scale(EX_I), E(3, 3, 2, 1).scale(-1),
            _embedded(3, ROTATION), _embedded(3, COMPLEX_ROTATION), wide,
            ExactMatrix.zeros(3, 3), E(3, 3, 0, 0).scale(2), E(3, 3, 0, 0) + E(3, 3, 0, 1),
            E(3, 3, 1, 1).scale(EX_HALF), wide.scale(3)]


class TestGridValidation:
    """A grid checks its matrices in one family table, with the messages and
    the order of ``PartialIsometry`` on each."""

    def test_matches_the_per_element_check(self):
        pool = _isometry_pool()
        rng = random.Random(3)
        outcomes = set()
        for _ in range(120):
            mats = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
            want = _first_isometry_error(mats)
            elements = list(enumerate(mats, start=1))
            if want is None:
                assert Grid("rank1", {"n": len(mats)}, elements).matrices() == mats
            else:
                with pytest.raises(ValueError) as exc:
                    Grid("rank1", {"n": len(mats)}, elements)
                assert str(exc.value) == want
            outcomes.add(want)
        assert outcomes == {None, "partial isometry must be nonzero",
                            "matrix fails the partial isometry identity v v* v = v"}

    def test_one_table_and_no_per_element_check(self, monkeypatch):
        calls = []
        for owner, method in ((ExactFamily, "equal"), (PartialIsometry, "__init__")):
            orig = getattr(owner, method)
            monkeypatch.setattr(owner, method, lambda *a, _orig=orig, _m=method, **k:
                                calls.append(_m) or _orig(*a, **k))
        g = hermitian_grid(5)
        assert calls == ["equal"]
        # elements that already are partial isometries are kept, not checked
        checked = [(i, PartialIsometry(g.matrix(i))) for i in g.indices]
        calls.clear()
        kept = Grid(g.kind, g.params, checked)
        assert calls == [] and kept.matrices() == g.matrices()
        assert all(kept.matrix(i) is v.mat for i, v in checked)

    def test_zero_and_failing_elements(self):
        good = E(2, 2, 0, 0)
        for bad, message in ((ExactMatrix.zeros(2, 2), "partial isometry must be nonzero"),
                             (good.scale(2), "matrix fails the partial isometry identity "
                                             "v v* v = v")):
            with pytest.raises(ValueError) as exc:
                Grid("rectangular", {"p": 1, "q": 2}, [((1, 1), good), ((1, 2), bad)])
            assert str(exc.value) == message

    def test_empty_grid_stacks_nothing(self, monkeypatch):
        monkeypatch.setattr(ExactFamily, "__init__", lambda *a, **k: pytest.fail("stacked"))
        g = Grid("rectangular", {"p": 1, "q": 1}, [])
        assert len(g) == 0 and g.matrices() == []

    @pytest.mark.parametrize("unitary", ["rotation", "complex-rotation", "den-2^40", "den-2^62"])
    def test_conjugate_grid_is_the_products(self, unitary):
        # the stacked left * u * right against one product per element: over
        # den 5, with imaginary parts, with int64 numerators whose products
        # pass 2^63, and with numerators from 2^62 up
        block = {"rotation": ROTATION, "complex-rotation": COMPLEX_ROTATION,
                 "den-2^40": _rotation(20), "den-2^62": _rotation(31)}[unitary]
        u = _embedded(4, block)
        assert u * u.adjoint() == ExactMatrix.identity(4)
        left = u * random_signed_permutation(4, random.Random(2))
        for g, right in ((hermitian_grid(4), left.adjoint()), (symplectic_grid(4), u),
                         (rectangular_grid(4, 1), ExactMatrix.identity(1))):
            got = conjugate_grid(g, left, right)
            assert got.matrices() == [left * x * right for x in g.matrices()]
            assert got.family().members() == got.matrices()

    @pytest.mark.parametrize("checked", [False, True], ids=["matrices", "isometries"])
    def test_elements_of_different_shapes(self, checked):
        square, wide = E(2, 2, 0, 0), E(2, 3, 0, 0)
        first = PartialIsometry(square) if checked else square
        with pytest.raises(DimensionError):
            Grid("rank1", {"n": 2}, [(1, first), (2, wide)])


def _unit_sums(m):
    """The canonical grids' (index, matrix) lists as sums of ExactMatrix.unit:
    rectangular m x (m+1), hermitian and symplectic m x m."""
    def e(i, j, rows=m, cols=m):
        return E(rows, cols, i - 1, j - 1)

    pairs = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    return {
        "rectangular": [((i, j), e(i, j, m, m + 1))
                        for i in range(1, m + 1) for j in range(1, m + 2)],
        "hermitian": [((i, j), e(i, i) if i == j else e(i, j) + e(j, i)) for i, j in pairs],
        "symplectic": [((i, j), e(i, j) - e(j, i)) for i, j in pairs if i < j],
    }


class TestCanonicalStacks:
    """The canonical constructors write one numerator stack, whose members
    are the grid's matrices."""

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_elements_are_their_unit_sums(self, m):
        built = {"rectangular": rectangular_grid(m, m + 1), "hermitian": hermitian_grid(m)}
        if m >= 4:
            built["symplectic"] = symplectic_grid(m)
        for kind, g in built.items():
            want = _unit_sums(m)[kind]
            assert list(g.indices) == [idx for idx, _ in want]
            assert g.matrices() == [mat for _, mat in want]
            assert g.family().members() == g.matrices()
            assert all(x.re.dtype == np.int64 for x in g.matrices())


class TestHermitian:
    def test_m2_structure(self):
        g = hermitian_grid(2)
        assert len(g) == 3
        assert _relation(g, (1, 2), (1, 1)) is GridRelation.GOVERNS_FIRST_OVER_SECOND

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
        assert _relation(g, (1, 2), (3, 4)) is GridRelation.ORTHOGONAL

    def test_quadrangle(self):
        g = symplectic_grid(4)
        got = triple_product(g.matrix((1, 2)), g.matrix((1, 4)), g.matrix((3, 4))).scale(2)
        assert got == g.matrix((2, 3)).scale(-1)

    def test_minimality(self):
        g = symplectic_grid(5)
        mats = g.matrices()
        for a in mats:
            for b in mats:
                want = a if a == b else ExactMatrix.zeros(5, 5)
                assert ref_ternary(a, b, a) == as_rows(want)

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


def _classifier_grids():
    """The clean and corrupted grids, conjugates over den 5 and 25 (real and
    complex), and a conjugate with numerators from 2^62 up."""
    clean = [rectangular_grid(2, 3), hermitian_grid(4), symplectic_grid(5),
             spin_grid(2, True), spin_grid(3, False), build_hnk(4, 2).as_grid()]
    rng = random.Random(29)
    conjugated = []
    for block in (ROTATION, COMPLEX_ROTATION):
        u = _embedded(4, block) * random_signed_permutation(4, rng)
        conjugated += [conjugate_grid(hermitian_grid(4), u, u.adjoint()),
                       conjugate_grid(_corrupted_grids()["symplectic"], u, u)]
    wide = _embedded(3, _rotation(31))
    conjugated.append(conjugate_grid(_corrupted_grids()["hermitian"], wide, wide.adjoint()))
    return clean + list(_corrupted_grids().values()) + conjugated


def test_classify_relation_matches_triple_products():
    # every ordered pair, x == z too, against both one-pair-at-a-time oracles
    seen, dtypes = set(), set()
    for g in _classifier_grids():
        n, fam = len(g), g.family()
        x, z = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)  # every ordered pair
        got = classify_relation(fam, x, z)
        mats = g.matrices()
        table = classify_by_triple_products(mats)
        for t, (a, b) in enumerate(zip(x.tolist(), z.tolist())):
            assert got[t].value == table[a][b]
            assert got[t] is _relation_by_definition(mats[a], mats[b])
        seen.update(got)
        dtypes.add((fam.den > 1, fam.im is not None, fam.re.dtype == object))
    assert seen == set(GridRelation)
    assert {(True, False, False), (True, True, False), (True, False, True)} <= dtypes


def test_classify_relation_of_no_pairs():
    fam = hermitian_grid(3).family()
    assert classify_relation(fam, [], []) == []
    assert classify_relation(fam, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)) == []


@pytest.mark.parametrize("g", [rectangular_grid(2, 3), hermitian_grid(4), spin_grid(3, True),
                               build_hnk(4, 2).as_grid(), _corrupted_grids()["hermitian"]],
                         ids=lambda g: g.describe())
def test_one_classify_relation_call_per_verify_grid(monkeypatch, g):
    calls = []
    monkeypatch.setattr(grids, "classify_relation", lambda fam, xs, zs: calls.append(len(xs)) or
                        classify_relation(fam, xs, zs))
    verify_grid(g)
    assert calls == [len(g) * (len(g) - 1) // 2]


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
    # v = 2 e_11 + e_33 + e_44 + e_55 is not a partial isometry
    (hermitian_to_matrix_units, lambda: _replace(hermitian_grid(5), (2, 2), E(5, 5, 0, 0)),
     "isotope unit v = sum u_ii: matrix fails the partial isometry identity v v* v = v"),
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
    twice, _, _ = fam.ternary(xs, ys, zs, sym=True)
    rows, cols = (np.array(g.indices) - 1).T
    coeffs = twice[:, rows, cols]
    assert (np.tensordot(coeffs, fam.re, axes=(1, 0)) == twice).all()
    return coeffs


def _rule_coefficients(g, xs, ys, zs):
    """The u-coefficients of 2 {u_x, u_y, u_z} that verify_grid expects at
    the rows (xs, ys, zs), x <= z: the rule's nonzero rows of the whole
    table, in loop order, and zero at every other row."""
    x, y, z, (kidx, kcoef, q) = grids._expected_table(g, 0, len(g))
    assert q == 2 and kidx.shape == kcoef.shape == (len(x),) and (kcoef != 0).all()
    at = {key: t for t, key in enumerate(zip(x.tolist(), y.tolist(), z.tolist()))}
    assert list(at) == sorted(at) and len(at) == len(x)
    dense = np.zeros((len(xs), len(g)), dtype=np.int64)
    for t, key in enumerate(zip(xs.tolist(), ys.tolist(), zs.tolist())):
        if key in at:
            dense[t, kidx[at[key]]] = kcoef[at[key]]
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
            for idx, v in spin_triple(idxs[x], idxs[y], idxs[z]).items():
                want[t] = idxs.index(idx), 2 * v
        kidx, kcoef, q = grids._triple_rule(g, xs, ys, zs)
        assert q == 2 and kidx.shape == kcoef.shape == (len(xs),)
        assert kidx.dtype == np.intp and kcoef.dtype == np.int64
        assert (np.stack([kidx, kcoef], axis=1) == want).all()


def _table_of(g):
    """verify_grid's verdict on every triple x <= z of ``g``, in loop order:
    the verdicts of the rows its table evaluated, and a pass at every other
    row, which its supports make zero and which wants 0."""
    n = len(g)
    rows, _, _, ok = grids._triple_table(g)
    full = np.ones(n * n * (n + 1) // 2, dtype=bool)
    full[rows[~ok]] = False
    return full.tolist()


def _failing_triples(g, verdicts):
    """The triples (x, y, z) of ``verdicts`` (in loop order) that fail."""
    triples = zip(*_upper_triples(len(g)).tolist())
    return [t for t, ok in zip(triples, verdicts) if not ok]


def _against_oracle(g):
    """``_table_of(g)``, once it and verify_grid's triple_products line
    match ``table_oracle``: the same verdicts, the first three failures."""
    want, got = table_verdicts(g), _table_of(g)
    assert got == want
    failures = [tuple(g.indices[t] for t in row) for row in _failing_triples(g, want)]
    check = {c["name"]: c for c in verify_grid(g).to_json_dict()["checks"]}["triple_products"]
    detail = f"failed {failures[:3]}" if failures else f"{len(got)} triples (exhaustive)"
    assert (check["status"], check["detail"]) == ("fail" if failures else "pass", detail)
    return got


ORACLE_GRIDS = [rectangular_grid(2, 3), hermitian_grid(3), symplectic_grid(4), spin_grid(2, False),
                spin_grid(2, True), build_hnk(3, 2).as_grid()]
# one element with one entry more, still a partial isometry
EXTRA_ENTRY = {
    "rectangular": (rectangular_grid(2, 3), (1, 1), E(2, 3, 0, 0) + E(2, 3, 1, 2)),
    "hermitian": (hermitian_grid(3), (1, 1), E(3, 3, 0, 0) + E(3, 3, 2, 2)),
    "symplectic": (symplectic_grid(4), (1, 2), E(4, 4, 0, 1) - E(4, 4, 1, 0) + E(4, 4, 2, 3)),
}


class TestTableOracle:
    """verify_grid's full verdict list against ``table_oracle``, which forms
    every triple on Fraction entries one at a time."""

    @pytest.mark.parametrize("g", ORACLE_GRIDS, ids=lambda g: g.describe())
    def test_clean_grids(self, g):
        assert all(_against_oracle(g))

    @pytest.mark.parametrize("kind", list(EXTRA_ENTRY))
    def test_extra_entry_turns_a_dead_triple_live(self, kind):
        clean, idx, mat = EXTRA_ENTRY[kind]
        g = _replace(clean, idx, mat)
        got = _against_oracle(g)
        # a triple the clean grid's supports make zero is live now, and fails
        before, after = clean.matrices(), g.matrices()
        turned = [(x, y, z) for x, y, z in _failing_triples(g, got)
                  if zero_by_supports(before[x], before[y], before[z])
                  and not zero_by_supports(after[x], after[y], after[z])]
        assert turned

    def test_removed_entry_leaves_a_wanted_triple_dead(self):
        # u_12 = e_12 + e_21 loses e_21, so {u_12, u_11, u_12} = u_22 is zero
        # by its supports.  A symplectic element that loses one of its two
        # entries leaves no such triple: each wanted product keeps a term
        g = _replace(hermitian_grid(3), (1, 2), E(3, 3, 0, 1))
        got = _against_oracle(g)
        mats = g.matrices()
        dead = [t for t in _failing_triples(g, got)
                if zero_by_supports(*(mats[x] for x in t))]
        assert dead and all(wants_nonzero(g, *t) for t in dead)


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


class TestSignedPermutation:
    def test_drawn_as_numerators(self, monkeypatch):
        # the same draws and the same matrices as when each of the n^2
        # entries was an ExactScalar, with no scalar made
        rng, again = random.Random(5), random.Random(5)
        made = []
        orig = ExactScalar.__init__
        monkeypatch.setattr(ExactScalar, "__init__",
                            lambda self, *a: made.append(a) or orig(self, *a))
        got = [random_signed_permutation(6, rng) for _ in range(3)]
        assert made == []
        monkeypatch.undo()
        for m in got:
            perm = list(range(6))
            again.shuffle(perm)
            signs = [again.choice((1, -1)) for _ in range(6)]
            entries = [ExactScalar(0)] * 36
            for j in range(6):
                entries[perm[j] * 6 + j] = ExactScalar(signs[j])
            assert m == ExactMatrix(6, 6, entries)


class TestVerifyCap:
    # the cap was 78 (hermitian m=12, 240,318 triples) while the table
    # evaluated every row
    def test_at_cap_is_exhaustive(self, capsys):
        assert len(hermitian_grid(15)) == GRID_VERIFY_CAP
        assert cli.main(["verify", "grid", "--kind", "hermitian", "--m", "15"]) == 0
        out = capsys.readouterr().out
        assert "871200 triples (exhaustive)" in out and "overall: pass" in out

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

    @pytest.mark.parametrize("kind,size,count", [
        ("hermitian", ["--m", "16"], 136), ("hermitian", ["--m", "999"], 499500),
        ("symplectic", ["--m", "400"], 79800),
        ("rectangular", ["--p", "300", "--q", "300"], 90000)])
    def test_above_cap_is_refused_before_building(self, monkeypatch, capsys, kind, size, count):
        def build(*args):
            raise AssertionError(f"the {kind} grid was built")

        monkeypatch.setattr(grids, f"{kind}_grid", build)
        assert cli.main(["verify", "grid", "--kind", kind, *size]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (f"capacity: grid verification is capped at "
                                     f"{GRID_VERIFY_CAP} elements, got {count}\n")

    @pytest.mark.parametrize("kind,m", [("hermitian", 15), ("symplectic", 16)])
    def test_matrix_units_at_cap_runs(self, capsys, kind, m):
        assert grid_size(kind, m=m) == GRID_VERIFY_CAP
        argv = ["verify", "matrix-units", "--kind", kind, "--m", str(m), "--conjugations", "1"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "1 seeded signed-permutation conjugations" in out and "overall: pass" in out

    @pytest.mark.parametrize("kind,m", [("hermitian", 16), ("symplectic", 17)])
    def test_matrix_units_above_cap_is_refused_before_building(self, monkeypatch, capsys,
                                                               kind, m):
        def build(*args):
            raise AssertionError(f"the {kind} grid was built")

        monkeypatch.setattr(grids, f"{kind}_grid", build)
        argv = ["verify", "matrix-units", "--kind", kind, "--m", str(m), "--conjugations", "1"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (f"capacity: grid verification is capped at "
                                     f"{GRID_VERIFY_CAP} elements, got 136\n")

    @pytest.mark.parametrize("p,q", [(2, GRID_VERIFY_CAP // 2 + 1), (300, 300)])
    def test_split_above_cap_is_refused_before_building(self, monkeypatch, capsys, p, q):
        def build(*args):
            raise AssertionError("the diag-rect grid was built")

        monkeypatch.setattr(hnk, "diag_rect", build)
        assert cli.main(["verify", "split", "--p", str(p), "--q", str(q)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == (f"capacity: grid verification is capped at "
                                     f"{GRID_VERIFY_CAP} elements, got {p * q}\n")

    @pytest.mark.parametrize("p,q", [(1, 200), (0, 2)])
    def test_split_constructor_errors_come_first(self, capsys, p, q):
        assert cli.main(["verify", "split", "--p", str(p), "--q", str(q)]) == 2
        err = capsys.readouterr().err.splitlines()[0]
        assert err == "usage error: diag_rect requires p, q >= 2"

    def test_grid_size_counts_the_elements(self):
        for kind, sizes, build in [
                ("rectangular", {"p": 2, "q": 5}, lambda: rectangular_grid(2, 5)),
                ("hermitian", {"m": 4}, lambda: hermitian_grid(4)),
                ("symplectic", {"m": 5}, lambda: symplectic_grid(5)),
                ("spin", {"r": 3}, lambda: spin_grid(3, False)),
                ("spin", {"r": 3, "odd": True}, lambda: spin_grid(3, True)),
                ("diag-rect", {"p": 2, "q": 3}, lambda: hnk.diag_rect(2, 3))]:
            assert grid_size(kind, **sizes) == len(build())

    @pytest.mark.parametrize("kind,size,code,err", [
        ("hermitian", ["--m", "1"], 2, "usage error: hermitian grid requires m >= 2"),
        ("symplectic", ["--m", "-40"], 2, "usage error: symplectic grid requires m >= 4"),
        ("rectangular", ["--p", "-300", "--q", "-300"], 2,
         "usage error: rectangular grid requires p, q >= 1"),
        ("spin", ["--r", "40", "--odd"], 3, "capacity: spin grid supports r <= 6")])
    def test_constructor_errors_come_first(self, capsys, kind, size, code, err):
        assert cli.main(["verify", "grid", "--kind", kind, *size]) == code
        assert capsys.readouterr().err.splitlines()[0] == err


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

    # The table's want is the rule's nonzero rows (_expected_table), not one
    # array over every row: the wrong want raises the coefficient of the
    # first named instance's row, which the table evaluates (of every row
    # the rule returns with "every-row"), and adds a nonzero want at the
    # first row the table decides by its supports, where the grid has one.
    # The expected relations and minimal elements are read off that same
    # want, so pairwise_relations and minimality may fail with it; every
    # other line keeps its verdict
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
        first = (min(a[0], c[0]), b[0], max(a[0], c[0]))
        _, evaluated, _, _ = grids._triple_table(g)
        evaluated = set(zip(*(v.tolist() for v in evaluated)))
        dead = [t for t in zip(*_upper_triples(n).tolist()) if t not in evaluated][:1]
        orig = grids._expected_table

        def wrong(grid, x0, x1):
            x, y, z, (kidx, kcoef, q) = orig(grid, x0, x1)
            kcoef = np.array(kcoef)
            rows = list(zip(x.tolist(), y.tolist(), z.tolist()))
            kcoef[slice(None) if every else rows.index(first)] += 1
            for row in dead:
                x, y, z = (np.append(v, t) for v, t in zip((x, y, z), row))
                kidx, kcoef = np.append(kidx, 0), np.append(kcoef, 2)
            return x, y, z, (kidx, kcoef, q)

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
                if case in clean and not every:  # both wrong rows fail, and only they
                    labels = [tuple(g.indices[t] for t in row) for row in sorted([first, *dead])]
                    assert check["detail"] == f"failed {labels}"
            elif check["name"] not in ("pairwise_relations", "minimality"):
                assert check == named[check["name"]]
        # the relations' c = 1 pass, and a c = 2 pass where some pair fails
        # c = 1; the table; then the instances whose want differs, on their
        # own.  2 while the relations were classified pair by pair
        second = case in ("clean-hermitian", "clean-spin", "hermitian", "spin", "hermitian-m6",
                          "rank1")
        assert [k.get("sym") for k in calls].count(True) == (4 if second else 3)


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


def _unit_dict(fam):
    """The units of a ``MatrixUnitFamily`` keyed by (i, j), in loop order."""
    m = fam.size
    return {(i, j): fam.unit(i, j) for i in range(1, m + 1) for j in range(1, m + 1)}


def _unit_cases():
    herm = hermitian_to_matrix_units(hermitian_grid(3))
    sympl = symplectic_to_matrix_units(symplectic_grid(5))
    herm_units, sympl_units = _unit_dict(herm), _unit_dict(sympl)
    out = {"hermitian-3": (herm_units, herm.v), "symplectic-5": (sympl_units, sympl.v)}
    units = dict(herm_units)
    units[(1, 2)] = units[(1, 2)].scale(EX_I)
    out["hermitian-3-e12-times-i"] = (units, herm.v)
    units = dict(sympl_units)
    units[(2, 3)], units[(3, 2)] = units[(3, 2)], units[(2, 3)]
    out["symplectic-5-e23-e32-swapped"] = (units, sympl.v)
    out["hermitian-3-v-halved"] = (herm_units, herm.v.scale(EX_HALF))
    units = dict(herm_units)
    units[(3, 3)] = units[(3, 3)] + units[(1, 3)]
    out["hermitian-3-e33-plus-e13"] = (units, herm.v)
    return out


UNIT_CASES = _unit_cases()


@pytest.mark.parametrize("case", list(UNIT_CASES))
def test_unit_table_matches_loop_oracle(case):
    units, vmat = UNIT_CASES[case]
    involution, product = grids._unit_table(ExactFamily(list(units.values()) + [vmat]),
                                            list(units))
    want_inv, want_prod = _unit_table_oracle(units, vmat)
    assert involution.tolist() == want_inv.tolist()
    assert product.tolist() == want_prod.tolist()
    clean = case in ("hermitian-3", "symplectic-5")
    assert (involution.all() and product.all()) == clean


@pytest.mark.parametrize("size", [3, 5])
def test_unit_table_of_several_grids_matches_loop_oracle(size):
    # the cases of one size in one table: each grid's units, grid after
    # grid, then each grid's v
    cases = [UNIT_CASES[c] for c in UNIT_CASES if len(UNIT_CASES[c][0]) == size * size]
    keys = list(cases[0][0])
    fam = ExactFamily([u for units, _ in cases for u in units.values()] + [v for _, v in cases])
    involution, product = grids._unit_table(fam, keys, len(cases))
    want = [_unit_table_oracle(units, vmat) for units, vmat in cases]
    assert involution.tolist() == [x for inv, _ in want for x in inv.tolist()]
    assert product.tolist() == [row for _, prod in want for row in prod.tolist()]
    assert len(cases) == {3: 4, 5: 2}[size]


# The transforms as they were while every unit was its own ExactMatrix:
# the oracles for the stacked transforms.


def _unit_table_of(units, vmat):
    """``grids._unit_table`` on the family the per-unit transforms stacked."""
    return grids._unit_table(ExactFamily(list(units.values()) + [vmat]), list(units))

def _hermitian_units_oracle(g):
    """Matrix units e_ij = u_ii . u_ij (isotope product at v = sum u_ii).

    Verifies the matrix-unit relations, the involution, and the recovery
    u_ij = e_ij + e_ji, all exactly, on batched family tables; failures
    raise ``TransformError`` naming the first failing relation in the order
    of the relations above.
    """
    if g.kind != "hermitian":
        raise TransformError("hermitian_to_matrix_units requires a hermitian grid")
    m = g.params["m"]
    key = lambda i, j: (i, j) if i <= j else (j, i)
    vmat = None
    for i in range(1, m + 1):
        vmat = g.matrix((i, i)) if vmat is None else vmat + g.matrix((i, i))
    try:  # the isotope unit must be a partial isometry
        PartialIsometry(vmat)
    except ValueError as exc:
        raise TransformError(f"isotope unit v = sum u_ii: {exc}") from exc
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    # one family: the grid elements, then v
    at = {idx: x for x, idx in enumerate(g.indices)}
    fam = ExactFamily(g.matrices() + [vmat])
    v = len(g)
    units = ExactFamily(_stacks=[fam.ternary([at[(i, i)] for i, _ in pairs], [v] * len(pairs),
                                             [at[key(i, j)] for i, j in pairs])])
    units = dict(zip(pairs, units.members()))
    involution, product = _unit_table_of(units, vmat)
    bad = np.flatnonzero(~involution | ~product.all(axis=1))
    if bad.size:
        i, j = pairs[bad[0]]
        if not involution[bad[0]]:
            raise TransformError(f"involution fails: e_{i}{j}^# != e_{j}{i}")
        k, l = pairs[int(np.argmin(product[bad[0]]))]
        raise TransformError(f"product fails: e_{i}{j} . e_{k}{l} != delta e_{i}{l}")
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
    # u_ii . u_ij is e_ij itself; compare u_ij . u_jj with it
    off = [(i, j) for i, j in pairs if i != j]
    fam = ExactFamily(g.matrices() + [vmat] + [units[p] for p in off])
    same = fam.equal([at[key(i, j)] for i, j in off], [v] * len(off), [at[(j, j)] for _, j in off],
                     scaled_members(range(v + 1, v + 1 + len(off))))
    bad = np.flatnonzero(~same)
    if bad.size:
        i, j = off[bad[0]]
        raise TransformError(f"u_{i}{i}.u_{i}{j} != u_{i}{j}.u_{j}{j}")
    return grids.MatrixUnitFamily(m, ExactFamily([units[p] for p in sorted(units)]), vmat)


def _symplectic_units_oracle(g):
    """Matrix units from a symplectic grid of size at least 5.

    The diagonal units e_ii = u_ij u_jm* u_im must be independent of the
    admissible index pair (j, m); the off-diagonal ones are
    e_ij = e_ii e_ii* u_ij e_jj* e_jj.  All defining relations are verified
    exactly on batched family tables; failures raise ``TransformError``
    naming the first failing relation in the order above.
    """
    if g.kind != "symplectic":
        raise TransformError("symplectic_to_matrix_units requires a symplectic grid")
    m = g.params["m"]
    if m < grids.SYMPLECTIC_TRANSFORM_MIN_SIZE:
        raise TransformError(
            f"symplectic transform requires size >= {grids.SYMPLECTIC_TRANSFORM_MIN_SIZE}")
    mats = {idx: g.matrix(idx) for idx in g.indices}
    u = lambda a, b: mats[(a, b)] if a < b else -mats[(b, a)]
    off = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    at = {p: x for x, p in enumerate(off)}
    signed = [u(i, j) for i, j in off]
    # the first admissible pair (j, m) defines e_ii; every other must agree
    admissible = [(i, j, mm) for i in range(1, m + 1) for j in range(1, m + 1)
                  for mm in range(1, m + 1) if len({i, j, mm}) == 3]
    first = {}
    for i, j, mm in admissible:
        first.setdefault(i, (j, mm))
    diag = ExactFamily(_stacks=[ExactFamily(signed).ternary(
        [at[(i, j)] for i, (j, _) in first.items()], [at[jm] for jm in first.values()],
        [at[(i, mm)] for i, (_, mm) in first.items()])]).members()
    # one family: u_ab for a != b, then e_11 .. e_mm
    fam = ExactFamily(signed + diag)
    e = len(signed) - 1  # e + i is the position of e_ii
    agree = fam.equal([at[(i, j)] for i, j, _ in admissible],
                      [at[(j, mm)] for _, j, mm in admissible],
                      [at[(i, mm)] for i, _, mm in admissible],
                      scaled_members([e + i for i, _, _ in admissible]))
    fail = next((t for t, good in zip(admissible, agree) if not good), None)
    for i in range(1, m + 1):
        if fail is not None and fail[0] == i:
            raise TransformError(
                f"diagonal unit e_{i}{i} is ambiguous at pair ({fail[1]},{fail[2]})")
        if diag[i - 1].is_zero():
            raise TransformError(f"diagonal unit e_{i}{i} vanished")
    idx = [e + i for i in range(1, m + 1)]
    isometry = fam.equal(idx, idx, idx, scaled_members(idx))
    ei, ej = [e + i for i, _ in off], [e + j for _, j in off]
    apart = (fam.vanish(ei, ej, star_first=True) & fam.vanish(ei, ej)).tolist()
    for i in range(1, m + 1):
        if not isometry[i - 1]:
            raise TransformError(f"e_{i}{i} is not a partial isometry")
        for j in range(1, m + 1):
            if i != j and not apart[at[(i, j)]]:
                raise TransformError(f"e_{i}{i} not orthogonal to e_{j}{j}")
    units = {(i, i): d for i, d in enumerate(diag, start=1)}
    left = ExactFamily(_stacks=[fam.ternary(ei, ei, range(len(off)))])  # e_ii e_ii* u_ij
    jj = [len(off) + j - 1 for _, j in off]
    right = ExactFamily(_stacks=[ExactFamily(left.members() + diag).ternary(
        range(len(off)), jj, jj)]).members()
    units.update(zip(off, right))
    vmat = None
    for i in range(1, m + 1):
        vmat = units[(i, i)] if vmat is None else vmat + units[(i, i)]
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i != j and units[(i, j)] - units[(j, i)] != u(i, j):
                raise TransformError(f"recovery fails: u_{i}{j} != e_{i}{j} - e_{j}{i}")
    involution, product = _unit_table_of(units, vmat)
    keys = list(units)
    bad = np.flatnonzero(~involution | ~product.all(axis=1))
    if bad.size:
        i, j = keys[bad[0]]
        if not involution[bad[0]]:
            raise TransformError(f"involution fails on e_{i}{j}")
        l, k = keys[int(np.argmin(product[bad[0]]))]
        raise TransformError(f"unit product fails: e_{i}{j} v* e_{l}{k}")
    # e_ii u_ij* e_ii = 0 and {e_ii, e_ii, u_ij} = u_ij / 2 for i != j
    pos = range(len(off))
    minimal = fam.equal(ei, pos, ei).tolist()
    peirce = fam.equal(ei, ei, pos, scaled_members(pos, 1, 2), sym=True).tolist()
    # u_ij e_kk* = 0 = e_kk* u_ij for k outside {i, j}
    third = [(t, k) for t, (i, j) in enumerate(off) for k in range(1, m + 1) if k not in (i, j)]
    ts, ks = [t for t, _ in third], [e + k for _, k in third]
    outside = dict(zip(third, (fam.vanish(ts, ks) & fam.vanish(ks, ts, star_first=True)).tolist()))
    for t, (i, j) in enumerate(off):
        if not minimal[t]:
            raise TransformError(f"e_{i}{i} u_{i}{j}* e_{i}{i} != 0")
        if not peirce[t]:
            raise TransformError(f"u_{i}{j} is not Peirce-1 for e_{i}{i}")
        for k in range(1, m + 1):
            if k not in (i, j) and not outside[(t, k)]:
                raise TransformError(f"u_{i}{j} not orthogonal to e_{k}{k}")
    return grids.MatrixUnitFamily(m, ExactFamily([units[p] for p in sorted(units)]), vmat)


def _transform_outcome(transform, g):
    """The units in loop order and v, or the message of the first
    TransformError."""
    try:
        fam = transform(g)
    except TransformError as exc:
        return str(exc)
    return fam.size, list(_unit_dict(fam).items()), fam.v


TRANSFORMS = {"hermitian": (hermitian_grid, hermitian_to_matrix_units, _hermitian_units_oracle),
              "symplectic": (symplectic_grid, symplectic_to_matrix_units,
                             _symplectic_units_oracle)}


def _corrupted_transform_grids(kind, m, count, seed):
    """Seeded grids with one element negated, multiplied by i, swapped with
    another element or replaced by a signed matrix unit."""
    rng = random.Random(seed)
    g = TRANSFORMS[kind][0](m)
    out = []
    for _ in range(count):
        idx = rng.choice(g.indices)
        change = rng.randrange(4)
        if change == 0:
            out.append(_scaled(g, idx, -1))
        elif change == 1:
            out.append(_scaled(g, idx, EX_I))
        elif change == 2:
            other = rng.choice(g.indices)
            out.append(Grid(g.kind, g.params, [(i, g.matrix(other if i == idx else
                                                            idx if i == other else i))
                                               for i in g.indices]))
        else:
            unit = E(m, m, rng.randrange(m), rng.randrange(m)).scale(rng.choice((1, -1)))
            out.append(_replace(g, idx, unit))
    return out


def _flip(monkeypatch, method, operands, flag):
    """Make ``ExactFamily.<method>`` report False at every row whose operands
    are the matrices ``operands``, when its sym (equal) or star_first
    (vanish) flag is ``flag``."""
    orig = getattr(ExactFamily, method)

    def flipped(self, *args, **kwargs):
        got = orig(self, *args, **kwargs)
        if kwargs.get("sym" if method == "equal" else "star_first", False) != flag:
            return got
        ims = [None] * len(self) if self.im is None else self.im
        values = [ExactMatrix(*self.shape, _arrays=(r.copy(), None if i is None else i.copy(),
                                                     self.den)) for r, i in zip(self.re, ims)]
        rows = zip(*(np.asarray(a, dtype=np.intp) for a in args[:len(operands)]))
        for t, row in enumerate(rows):
            if all(values[x] == o for x, o in zip(row, operands)):
                got[t] = False
        return got

    monkeypatch.setattr(ExactFamily, method, flipped)


_V5 = ExactMatrix.identity(5)
_U23 = E(5, 5, 1, 2) - E(5, 5, 2, 1)
# name -> (kind, method, operands, flag, first error): m = 5, v = 1
INJECTED_FAULTS = {
    "hermitian-involution": ("hermitian", "equal", (_V5, E(5, 5, 2, 0), _V5), False,
                             "involution fails: e_31^# != e_13"),
    "hermitian-product": ("hermitian", "equal", (E(5, 5, 1, 2), _V5, E(5, 5, 2, 3)), False,
                          "product fails: e_23 . e_34 != delta e_24"),
    "hermitian-same": ("hermitian", "equal", (E(5, 5, 1, 3) + E(5, 5, 3, 1), _V5,
                                              E(5, 5, 3, 3)), False,
                       "u_22.u_24 != u_24.u_44"),
    "symplectic-isometry": ("symplectic", "equal", (E(5, 5, 2, 2),) * 3, False,
                            "e_33 is not a partial isometry"),
    "symplectic-apart": ("symplectic", "vanish", (E(5, 5, 1, 1), E(5, 5, 3, 3)), True,
                         "e_22 not orthogonal to e_44"),
    "symplectic-involution": ("symplectic", "equal", (_V5, E(5, 5, 3, 1), _V5), False,
                              "involution fails on e_42"),
    "symplectic-product": ("symplectic", "equal", (E(5, 5, 0, 1), _V5, E(5, 5, 1, 2)), False,
                           "unit product fails: e_12 v* e_23"),
    "symplectic-minimal": ("symplectic", "equal", (E(5, 5, 1, 1), _U23, E(5, 5, 1, 1)), False,
                           "e_22 u_23* e_22 != 0"),
    "symplectic-peirce": ("symplectic", "equal", (E(5, 5, 1, 1), E(5, 5, 1, 1), _U23), True,
                          "u_23 is not Peirce-1 for e_22"),
    "symplectic-outside": ("symplectic", "vanish", (_U23, E(5, 5, 4, 4)), False,
                           "u_23 not orthogonal to e_55"),
    "symplectic-outside-star": ("symplectic", "vanish", (E(5, 5, 0, 0), -_U23), True,
                                "u_32 not orthogonal to e_11"),
}


class TestTransformOracle:
    """The stacked transforms against the per-unit ones: the same units in
    the same order and the same v, or the same first error."""

    def _same(self, kind, g):
        _, transform, oracle = TRANSFORMS[kind]
        got = _transform_outcome(transform, g)
        assert got == _transform_outcome(oracle, g)
        return got

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_canonical(self, kind, m):
        size, units, v = self._same(kind, TRANSFORMS[kind][0](m))
        assert size == m and v == ExactMatrix.identity(m)

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    def test_signed_permutation_conjugations(self, kind):
        rng = random.Random(17)
        for m in (5, 6):
            g = TRANSFORMS[kind][0](m)
            for _ in range(4):
                left, right = random_signed_permutation(m, rng), random_signed_permutation(m, rng)
                assert not isinstance(self._same(kind, conjugate_grid(g, left, right)), str)

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    @pytest.mark.parametrize("block", [ROTATION, COMPLEX_ROTATION], ids=["real", "complex"])
    def test_non_monomial_unitaries(self, kind, block):
        # denominators 5 and 25, and imaginary parts for the complex block
        rng = random.Random(23)
        m = 5
        u = _embedded(m, block)
        perm = random_signed_permutation(m, rng)
        for left, right in ((u * perm, perm * u.adjoint()), (u, u)):
            g = conjugate_grid(TRANSFORMS[kind][0](m), left, right)
            assert g.family().den > 1 and (g.family().im is not None) == (block is COMPLEX_ROTATION)
            _, units, _ = self._same(kind, g)
            assert all(e == left * E(m, m, i - 1, j - 1) * right for (i, j), e in units)

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    def test_corrupted_grids(self, kind):
        outcomes = [self._same(kind, g) for m in (5, 6)
                    for g in _corrupted_transform_grids(kind, m, 24, seed=m)]
        errors = {o for o in outcomes if isinstance(o, str)}
        assert len(errors) >= 5, errors

    @pytest.mark.parametrize("transform,grid,message", TRANSFORM_ERRORS,
                             ids=[m for _, _, m in TRANSFORM_ERRORS])
    def test_transform_errors(self, transform, grid, message):
        kind = "hermitian" if transform is hermitian_to_matrix_units else "symplectic"
        assert self._same(kind, grid()) == message

    @pytest.mark.parametrize("case", list(INJECTED_FAULTS))
    def test_injected_faults(self, monkeypatch, case):
        # one relation made to fail by its operands' values, in both transforms
        kind, method, operands, flag, message = INJECTED_FAULTS[case]
        g = TRANSFORMS[kind][0](5)
        _flip(monkeypatch, method, operands, flag)
        assert self._same(kind, g) == message

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    def test_recovery_sees_a_part_outside_the_units(self, kind):
        # u_12 + e_66 keeps every product of distinct elements, so only the
        # recovery of u_12 from its units fails
        sign = "+" if kind == "hermitian" else "-"
        assert self._same(kind, _widened(kind, True)) == \
            f"recovery fails: u_12 != e_12 {sign} e_21"

    def test_vanished_diagonal_unit(self):
        # mutually orthogonal elements: every e_ii is zero, and all agree
        assert self._same("symplectic", _orthogonal_symplectic()) == \
            "diagonal unit e_11 vanished"


def _widened(kind, extra):
    """The m = 5 grid of ``kind`` with a sixth row and column, where u_12
    carries e_66 when ``extra``."""
    g = TRANSFORMS[kind][0](5)
    return Grid(kind, g.params, [(i, block_diag([g.matrix(i), E(1, 1, 0, 0) if extra and
                                                 i == (1, 2) else ExactMatrix.zeros(1, 1)]))
                                 for i in g.indices])


def _orthogonal_symplectic():
    """A symplectic m = 5 grid of mutually orthogonal diagonal units."""
    m = 5
    return Grid("symplectic", {"m": m}, [((i, j), E(10, 10, t, t)) for t, (i, j) in enumerate(
        (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))])


# -- the batched transforms ------------------------------------------------------

BATCHED = {"hermitian": grids._hermitian_units, "symplectic": grids._symplectic_units}


def _batch_outcomes(kind, gs):
    """Each grid's outcome, as ``_transform_outcome`` gives it, from one
    batched transform of all the grids ``gs`` (one kind, size and index
    order), stacked grid after grid."""
    elements = ExactFamily(_stacks=[g.family().part() for g in gs])
    units, isotope, errors = BATCHED[kind](gs[0], elements, len(gs))
    m = gs[0].params["m"]
    out = []
    for k, error in enumerate(errors):
        if error is not None:
            out.append(error)
            continue
        own = ExactFamily(_stacks=[units.part(slice(k * m * m, (k + 1) * m * m))])
        fam = grids.MatrixUnitFamily(m, own, isotope.member(k))
        out.append((m, list(_unit_dict(fam).items()), fam.v))
    return out


def _conjugated(g, seed, count):
    """``count`` conjugations of ``g`` by seeded signed permutations."""
    rng = random.Random(seed)
    n = g.family().shape[0]
    return [conjugate_grid(g, random_signed_permutation(n, rng), random_signed_permutation(n, rng))
            for _ in range(count)]


# (kind, the grids of one batch, the first error of the last one): corrupted
# grids batched with conjugates of themselves or of their clean version
BATCH_FAILURES = [
    *[(kind, lambda kind=kind, grid=grid: [
        *_conjugated(TRANSFORMS[kind][0](grid().params["m"]), 3, 2),
        *_conjugated(grid(), 3, 1), grid()], message)
      for transform, grid, message in TRANSFORM_ERRORS
      for kind in ["hermitian" if transform is hermitian_to_matrix_units else "symplectic"]],
    *[(kind, lambda kind=kind: [*_conjugated(_widened(kind, False), 5, 2),
                                _widened(kind, True)],
       f"recovery fails: u_12 != e_12 {sign} e_21")
      for kind, sign in (("hermitian", "+"), ("symplectic", "-"))],
    ("symplectic", lambda: [*_conjugated(_orthogonal_symplectic(), 5, 1),
                            _orthogonal_symplectic()], "diagonal unit e_11 vanished"),
]


class TestBatchedTransform:
    """One batched transform of several grids against one call per grid:
    the same units in the same order and the same v, or the same first
    error, grid by grid."""

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    @pytest.mark.parametrize("m", [5, 6])
    def test_seeded_conjugations(self, kind, m):
        g = TRANSFORMS[kind][0](m)
        u = _embedded(m, COMPLEX_ROTATION)
        perm = random_signed_permutation(m, random.Random(m))
        # a complex unitary with denominator 5: the batch is joined over the lcm
        gs = [g, *_conjugated(g, 11, 5), conjugate_grid(g, u * perm, perm * u.adjoint())]
        got = _batch_outcomes(kind, gs)
        assert not any(isinstance(o, str) for o in got)
        assert got == [_transform_outcome(TRANSFORMS[kind][1], x) for x in gs]

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    @pytest.mark.parametrize("m", [5, 6])
    def test_corrupted_transform_grids(self, kind, m):
        gs = _corrupted_transform_grids(kind, m, 24, seed=m)
        got = _batch_outcomes(kind, gs)
        assert got == [_transform_outcome(TRANSFORMS[kind][1], x) for x in gs]
        assert len({o for o in got if isinstance(o, str)}) >= 3

    @pytest.mark.parametrize("case", ["hermitian", "hermitian-m6"])
    def test_corrupted_grids(self, case):
        bad = _corrupted_grids()[case]
        gs = [hermitian_grid(bad.params["m"]), bad, *_conjugated(bad, 7, 2)]
        got = _batch_outcomes("hermitian", gs)
        assert got == [_transform_outcome(hermitian_to_matrix_units, x) for x in gs]
        assert isinstance(got[1], str) and not isinstance(got[0], str)

    def test_corrupted_symplectic_grid_is_too_small(self):
        bad = _corrupted_grids()["symplectic"]
        with pytest.raises(TransformError) as single:
            symplectic_to_matrix_units(bad)
        with pytest.raises(TransformError) as batch:
            _batch_outcomes("symplectic", [bad, bad])
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("kind,grids,message", BATCH_FAILURES,
                             ids=[m for _, _, m in BATCH_FAILURES])
    def test_broken_grid(self, kind, grids, message):
        gs = grids()
        got = _batch_outcomes(kind, gs)
        assert got == [_transform_outcome(TRANSFORMS[kind][1], x) for x in gs]
        assert got[-1] == message

    @pytest.mark.parametrize("case", list(INJECTED_FAULTS) + ["hermitian-sum"])
    def test_injected_faults(self, monkeypatch, case):
        # the canonical grid fails at the relation, its conjugates by seeded
        # signed permutations have other operands
        if case == "hermitian-sum":  # v = sum e_ii compared with itself
            kind, method, operands, flag = "hermitian", "same", (_V5, _V5), False
            message = "sum of diagonal units is not the isotope unit"
        else:
            kind, method, operands, flag, message = INJECTED_FAULTS[case]
        g = TRANSFORMS[kind][0](5)
        gs = [*_conjugated(g, 13, 2), g]
        _flip(monkeypatch, method, operands, flag)
        got = _batch_outcomes(kind, gs)
        assert got == [_transform_outcome(TRANSFORMS[kind][1], x) for x in gs]
        assert got[-1] == message and not any(isinstance(o, str) for o in got[:-1])


class TestConjugationNaturality:
    """``grids.conjugation_naturality``: every conjugation checked in
    batches bounded by ``_NATURALITY_CELLS``."""

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    def test_seeded_signed_permutations_are_natural(self, kind):
        g = TRANSFORMS[kind][0](5)
        rng = random.Random(5)
        pairs = [(random_signed_permutation(5, rng), random_signed_permutation(5, rng))
                 for _ in range(6)]
        assert grids.conjugation_naturality(g, pairs) == ([True] * 6, [None] * 6)

    @pytest.mark.parametrize("kind", list(TRANSFORMS))
    def test_each_pair_against_its_own_transform(self, kind):
        # a doubled left factor leaves no partial isometry; a non-monomial
        # unitary is natural like the signed permutations
        g = TRANSFORMS[kind][0](5)
        rng = random.Random(8)
        u = _embedded(5, ROTATION)
        pairs = [(random_signed_permutation(5, rng), random_signed_permutation(5, rng))
                 for _ in range(4)]
        pairs[1] = (pairs[1][0].scale(2), pairs[1][1])
        pairs[3] = (u, u.adjoint())
        natural, errors = grids.conjugation_naturality(g, pairs)
        assert natural == [True, False, True, True]
        assert errors == [None, "conjugated grid: " + PartialIsometry.FAILS, None, None]
        for (left, right), ok in zip(pairs, natural):
            if ok:
                fam = TRANSFORMS[kind][1](conjugate_grid(g, left, right)).family
                assert all(fam.member(i * 5 + j) == left * E(5, 5, i, j) * right
                           for i in range(5) for j in range(5))

    def test_batches_are_bounded(self, monkeypatch):
        g = hermitian_grid(6)
        rng = random.Random(2)
        pairs = [(random_signed_permutation(6, rng), random_signed_permutation(6, rng))
                 for _ in range(20)]
        counts = []
        orig = grids._hermitian_units
        monkeypatch.setattr(grids, "_hermitian_units",
                            lambda g, elements, count: counts.append(count) or
                            orig(g, elements, count))
        got = grids.conjugation_naturality(g, pairs)
        # 21 elements, 36 units and 36 conjugated units of 36 cells per grid
        per = grids._NATURALITY_CELLS // ((21 + 2 * 36) * 36)
        assert counts == [per, per, 20 - 2 * per] and per == 9
        counts.clear()
        monkeypatch.setattr(grids, "_NATURALITY_CELLS", 1)
        assert grids.conjugation_naturality(g, iter(pairs)) == got == ([True] * 20, [None] * 20)
        assert counts == [1] * 20

    def test_needs_a_transform_kind(self):
        with pytest.raises(TransformError):
            grids.conjugation_naturality(rectangular_grid(2, 2), [])


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
    """The pair relations and minimal elements read off the triple table's
    want against the per-kind rules they replace."""

    @pytest.mark.parametrize("g", PAIR_GRIDS, ids=lambda g: g.describe())
    def test_relations_and_minimal_match_the_kind_rules(self, g):
        relations, minimal = grids._expected_pairs(grids._triple_table(g), len(g))
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
        # the relations: orthogonality, then c = 1, and c = 2 on the pairs
        # where one governs the other (hermitian and odd spin grids); then
        # the table; a hermitian grid's skipped chain and cycle patterns
        # have a want that is not the table's, so they are evaluated on
        # their own.  ["equal"] (two for hermitian) while the relations were
        # classified pair by pair
        governing = g.kind == "hermitian" or g.kind == "spin" and g.params["odd"]
        assert calls == ["vanish"] * 2 + ["equal"] * (2 + governing + (g.kind == "hermitian"))

    def test_rule_runs_once_over_the_table_rows(self, monkeypatch):
        calls = []
        orig = grids._triple_rule
        monkeypatch.setattr(grids, "_triple_rule", lambda grid, xs, ys, zs:
                            calls.append(len(xs)) or orig(grid, xs, ys, zs))
        assert verify_grid(hermitian_grid(6)).passed
        # [840, 1116] while the pairs ran the rule again on their own rows
        assert calls == [1116]

    def test_wrong_pair_want_fails_the_table_and_the_relations(self, monkeypatch):
        # a wrong want at a row (x, x, z) can never pass silently: the table
        # evaluates the row, and the expected relation of (x, z) reads it
        orig = grids._expected_table

        def wrong(grid, x0, x1):
            x, y, z, (kidx, kcoef, q) = orig(grid, x0, x1)
            kcoef = np.array(kcoef)
            kcoef[np.flatnonzero((y == x) & (x < z))[0]] += 1
            return x, y, z, (kidx, kcoef, q)

        monkeypatch.setattr(grids, "_expected_table", wrong)
        checks = verify_grid(hermitian_grid(4)).to_json_dict()["checks"]
        status = {c["name"]: c["status"] for c in checks}
        assert status["triple_products"] == status["pairwise_relations"] == "fail"
