"""Triple/ternary operations, Peirce projections, relations, rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import exact_matrices, random_exact
from jcgrid.errors import CapacityError, DimensionError
from jcgrid.grids import hermitian_grid, rectangular_grid, spin_grid
from jcgrid.hnk import build_hnk
from jcgrid.numlin import EX_HALF, ExactMatrix, span_contains
from jcgrid.triple import (GridRelation, PartialIsometry, classify_relation,
                           family_rank, is_minimal_in_family,
                           isotope_involution, isotope_product,
                           peirce_project, ternary_product, triple_product)

E = ExactMatrix.unit


def iso(m):
    return PartialIsometry(m)


class TestPartialIsometry:
    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            PartialIsometry(ExactMatrix.from_rows([[2]]))
        with pytest.raises(ValueError):
            PartialIsometry(ExactMatrix.zeros(2, 2))

    def test_accepts_units(self):
        v = iso(E(2, 3, 0, 1))
        assert v.left_support() == E(2, 2, 0, 0)
        assert v.right_support() == E(3, 3, 1, 1)

    def test_supports_are_formed_once(self):
        v = iso(E(2, 3, 0, 1) + E(2, 3, 1, 2))
        assert v.left_support() is v.left_support()
        assert v.right_support() is v.right_support()

    def test_supports_are_the_kept_gram_products(self):
        m = E(2, 3, 0, 1) + E(2, 3, 1, 2)
        v = iso(m)
        assert v.left_support() is m.gram() and v.right_support() is m.adjoint().gram()
        # a second wrapper of the same matrix reads the same products
        assert iso(m).left_support() is v.left_support()


class TestTripleProduct:
    def test_idempotent(self):
        e = E(2, 2, 0, 0)
        assert triple_product(e, e, e) == e

    def test_orthogonal_units(self):
        assert triple_product(E(2, 2, 0, 0), E(2, 2, 1, 1), E(2, 2, 0, 0)).is_zero()

    def test_rectangular_chain(self):
        # {u_jk u_jl u_il} = u_ik / 2 on canonical units
        g = rectangular_grid(2, 2)
        got = triple_product(g.matrix((1, 2)), g.matrix((1, 1)), g.matrix((2, 1)))
        assert got == g.matrix((2, 2)).scale(EX_HALF)

    @settings(max_examples=25, deadline=None)
    @given(exact_matrices(3, 3))
    def test_polarization(self, a):
        assert triple_product(a, a, a) == a * a.adjoint() * a

    def test_shape_error(self):
        with pytest.raises(DimensionError):
            triple_product(ExactMatrix.zeros(2, 2), ExactMatrix.zeros(3, 3),
                           ExactMatrix.zeros(2, 2))


class TestTernaryProduct:
    def test_unit_identities(self):
        e12 = E(2, 2, 0, 1)
        assert ternary_product(e12, e12, e12) == e12
        assert ternary_product(E(2, 2, 0, 0), e12, e12).is_zero()

    def test_closure_fails_for_antisymmetric_triple(self):
        sp = build_hnk(3, 2)
        u1, u2, u3 = sp.basis
        w = ternary_product(u1, u2, u3)
        assert not span_contains([u1, u2, u3], w)


class TestPeirce:
    def test_support_calculus(self):
        v = iso(E(2, 2, 0, 0))
        x = E(2, 2, 0, 1)
        assert peirce_project(v, x, 1) == x
        assert peirce_project(v, x, 2).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(exact_matrices(3, 3))
    def test_resolution_of_identity(self, x):
        v = iso(E(3, 3, 0, 0) + E(3, 3, 1, 1))
        parts = [peirce_project(v, x, k) for k in (0, 1, 2)]
        assert parts[0] + parts[1] + parts[2] == x

    @settings(max_examples=10, deadline=None)
    @given(exact_matrices(3, 3))
    def test_projections_idempotent_and_annihilating(self, x):
        v = iso(E(3, 3, 0, 0) + E(3, 3, 2, 2))
        for k in (0, 1, 2):
            pk = peirce_project(v, x, k)
            assert peirce_project(v, pk, k) == pk
            for j in (0, 1, 2):
                if j != k:
                    assert peirce_project(v, pk, j).is_zero()

    def test_peirce_calculus_two_zero(self, rng):
        # {M_2, M_0, M} = 0 for v = E_11
        v = iso(E(2, 2, 0, 0))
        for _ in range(5):
            x = random_exact(rng, 2, 2)
            a = peirce_project(v, x, 2)
            b = peirce_project(v, random_exact(rng, 2, 2), 0)
            c = random_exact(rng, 2, 2)
            if a.is_zero() or b.is_zero():
                continue
            assert triple_product(a, b, c).is_zero()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            peirce_project(iso(E(2, 2, 0, 0)), ExactMatrix.zeros(2, 2), 3)


class TestClassify:
    def test_orthogonal(self):
        assert classify_relation(iso(E(2, 2, 0, 0)), iso(E(2, 2, 1, 1))) \
            is GridRelation.ORTHOGONAL

    def test_colinear(self):
        assert classify_relation(iso(E(2, 2, 0, 0)), iso(E(2, 2, 0, 1))) \
            is GridRelation.COLINEAR

    def test_governing_direction(self):
        g = hermitian_grid(2)
        rel = classify_relation(g.element((1, 2)), g.element((1, 1)))
        assert rel is GridRelation.GOVERNS_FIRST_OVER_SECOND
        rel = classify_relation(g.element((1, 1)), g.element((1, 2)))
        assert rel is GridRelation.GOVERNS_SECOND_OVER_FIRST

    def test_equal_and_unclassified(self):
        assert classify_relation(iso(E(2, 2, 0, 0)), iso(E(2, 2, 0, 0))) \
            is GridRelation.EQUAL
        v = iso(E(2, 2, 0, 0))
        w = iso(ExactMatrix.from_rows([
            [Fraction(3, 5), Fraction(4, 5)], [0, 0]]))
        assert classify_relation(v, w) is GridRelation.UNCLASSIFIED


class TestMinimality:
    def test_unit_in_diagonal_family(self):
        fam = [iso(E(2, 2, 0, 0)), iso(E(2, 2, 1, 1))]
        assert is_minimal_in_family(fam[0], fam)

    def test_rectangular_all_minimal(self):
        g = rectangular_grid(2, 3)
        fam = g.isometries()
        assert all(is_minimal_in_family(v, fam) for v in fam)

    def test_hermitian_diagonal_minimal_offdiagonal_governs(self):
        g = hermitian_grid(3)
        fam = g.isometries()
        assert is_minimal_in_family(g.element((1, 1)), fam)
        assert not is_minimal_in_family(g.element((1, 2)), fam)
        assert classify_relation(g.element((1, 2)), g.element((1, 1))) \
            is GridRelation.GOVERNS_FIRST_OVER_SECOND

    def test_membership_required(self):
        with pytest.raises(ValueError):
            is_minimal_in_family(iso(E(2, 2, 0, 1)), [iso(E(2, 2, 0, 0))])


class TestIsotope:
    def test_identity_isotope(self, rng):
        v = iso(ExactMatrix.identity(3))
        a = random_exact(rng, 3, 3)
        b = random_exact(rng, 3, 3)
        assert isotope_product(v, a, b) == a * b
        assert isotope_involution(v, a) == a.adjoint()

    def test_unit_law_on_peirce_two(self, rng):
        v = iso(E(3, 3, 0, 0) + E(3, 3, 1, 1))
        x = peirce_project(v, random_exact(rng, 3, 3), 2)
        assert isotope_product(v, v.mat, x) == x
        assert isotope_product(v, x, v.mat) == x

    def test_star_algebra_laws(self, rng):
        v = iso(E(3, 3, 0, 0) + E(3, 3, 1, 1) + E(3, 3, 2, 2))
        xs = [peirce_project(v, random_exact(rng, 3, 3), 2) for _ in range(3)]
        a, b, c = xs
        assert isotope_product(v, isotope_product(v, a, b), c) \
            == isotope_product(v, a, isotope_product(v, b, c))
        assert isotope_involution(v, isotope_product(v, a, b)) \
            == isotope_product(v, isotope_involution(v, b), isotope_involution(v, a))


class TestFamilyRank:
    def test_full_rectangular(self):
        assert family_rank(rectangular_grid(2, 2).isometries()) == 2
        assert family_rank(rectangular_grid(2, 3).isometries()) == 2

    def test_hilbertian_rank_one(self):
        for n, k in [(3, 2), (4, 2), (5, 3), (6, 4)]:
            sp = build_hnk(n, k)
            assert family_rank(sp.realization().elements) == 1

    def test_spin_rank_two(self):
        g = spin_grid(2, False)
        assert family_rank(g.isometries()) == 2

    def test_capacity(self):
        fam = rectangular_grid(5, 5).isometries()
        with pytest.raises(CapacityError):
            family_rank(fam)
