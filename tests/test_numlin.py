"""Exact kernel: arithmetic, adjoints, Kronecker products, blocks, norms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (exact_matrices, jacobi_eigenvalues, power_iteration_norm,
                      random_exact, square_exact, svd_norms)
from jcgrid.errors import DimensionError, NumericError
from jcgrid.numlin import (EX_I, ApproxMatrix, ExactMatrix,
                           ExactScalar, block_diag, block_grid, block_row,
                           exact_linearly_independent, exact_rank,
                           operator_norm, singular_values, span_contains,
                           trace_norm)

E = ExactMatrix.unit
SIGMA1 = ExactMatrix.from_rows([[1, 0], [0, -1]])
SIGMA2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
SIGMA3 = ExactMatrix.from_rows([[ExactScalar(0), EX_I], [-EX_I, ExactScalar(0)]])


class TestExactScalar:
    def test_lowest_terms_and_sign(self):
        s = ExactScalar(Fraction(2, -4), Fraction(6, 4))
        assert Fraction(s.re) == Fraction(-1, 2) and Fraction(s.re).denominator == 2
        assert Fraction(s.im) == Fraction(3, 2)

    def test_field_ops(self):
        a = ExactScalar(Fraction(1, 2), 1)
        b = ExactScalar(2, Fraction(-1, 3))
        assert (a * b) - (b * a) == ExactScalar(0)
        assert a + (-a) == ExactScalar(0)
        assert (a / b) * b == a
        assert a.conjugate().conjugate() == a

    def test_str(self):
        assert str(ExactScalar(Fraction(1, 2))) == "1/2"
        assert str(ExactScalar(0, -1)) == "-i"
        assert str(ExactScalar(1, Fraction(3, 2))) == "1+3/2i"


class TestAdd:
    def test_additive_identity(self):
        x = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert ExactMatrix.zeros(2, 2) + x == x

    def test_units_sum_to_identity(self):
        assert E(2, 2, 0, 0) + E(2, 2, 1, 1) == ExactMatrix.identity(2)

    def test_spin_pair_sum(self):
        # u_1 + u~_1 for the 2x2 one-pair spin grid: E_21 + (-E_12)
        got = E(2, 2, 1, 0) + E(2, 2, 0, 1).scale(-1)
        assert got == ExactMatrix.from_rows([[0, -1], [1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ExactMatrix.zeros(2, 2) + ExactMatrix.zeros(2, 3)


class TestMul:
    def test_unit_calculus(self):
        assert E(2, 2, 0, 1) * E(2, 2, 1, 0) == E(2, 2, 0, 0)
        assert (E(2, 2, 0, 1) * E(2, 2, 0, 1)).is_zero()

    def test_pauli_product(self):
        # direct 2x2 hand multiplication: sigma1 sigma2 = [[0,1],[-1,0]] = -i sigma3
        assert SIGMA1 * SIGMA2 == ExactMatrix.from_rows([[0, 1], [-1, 0]])
        assert SIGMA1 * SIGMA2 == SIGMA3.scale(-EX_I)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ExactMatrix.zeros(2, 3) * ExactMatrix.zeros(2, 3)


class TestAdjoint:
    def test_unit(self):
        assert E(2, 2, 0, 1).adjoint() == E(2, 2, 1, 0)

    def test_conjugates(self):
        assert E(1, 1, 0, 0, EX_I).adjoint() == E(1, 1, 0, 0, -EX_I)

    @settings(max_examples=40, deadline=None)
    @given(square_exact(3))
    def test_involution(self, x):
        assert x.adjoint().adjoint() == x


class TestKron:
    def test_identity(self):
        assert ExactMatrix.identity(2).kron(ExactMatrix.identity(2)) == ExactMatrix.identity(4)

    def test_direct_expansion(self):
        # oracle: (a kron b)[2p+i, 2q+j] = a[p,q] * b[i,j], expanded by hand
        got = SIGMA3.kron(SIGMA1)
        a = [[0, 1j], [-1j, 0]]
        b = [[1, 0], [0, -1]]
        want = [[a[p][q] * b[i][j] for q in range(2) for j in range(2)]
                for p in range(2) for i in range(2)]
        assert np.allclose(got.to_approx().array, np.array(want))

    def test_shape(self):
        assert ExactMatrix.zeros(2, 2).kron(ExactMatrix.zeros(4, 6)).shape == (8, 12)


class TestExactProperties:
    @settings(max_examples=25, deadline=None)
    @given(exact_matrices(2, 3), exact_matrices(3, 2), exact_matrices(2, 2))
    def test_associativity_and_star(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()

    @settings(max_examples=15, deadline=None)
    @given(exact_matrices(2, 2), exact_matrices(2, 2),
           exact_matrices(2, 2), exact_matrices(2, 2))
    def test_kron_mixed_product(self, a, b, c, d):
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)

    def test_properties_at_dimension_12(self, rng):
        a = random_exact(rng, 12, 12)
        b = random_exact(rng, 12, 12)
        c = random_exact(rng, 12, 12)
        assert (a * b) * c == a * (b * c)
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


class TestNorms:
    def test_unit_norms(self):
        assert operator_norm(E(2, 2, 0, 0)) == pytest.approx(1.0, abs=1e-12)
        assert trace_norm(E(2, 2, 0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_block_row_witness_values(self):
        # the two 3x9 matrices whose norms separate the space from the row space
        w1 = ExactMatrix.from_rows([
            [0, -1, 0, 0, 0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0, 0, -1, 0]])
        w2 = ExactMatrix.from_rows([
            [1, 0, 0, 0, 1, 0, 0, 0, 1],
            [0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0, 0, 0]])
        assert operator_norm(w1) == pytest.approx(math.sqrt(2), abs=1e-10)
        assert operator_norm(w2) == pytest.approx(math.sqrt(3), abs=1e-10)

    def test_trace_norm_of_rank_two_isometry(self):
        u1 = E(3, 3, 1, 2) - E(3, 3, 2, 1)
        assert trace_norm(u1) == pytest.approx(2.0, abs=1e-10)
        assert svd_norms(u1.to_approx().array)[1] == pytest.approx(2.0, abs=1e-12)

    def test_homogeneity(self, rng):
        x = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert trace_norm(2.5 * x) == pytest.approx(2.5 * trace_norm(x), rel=1e-11)

    def test_against_oracles(self, rng):
        for rows, cols in [(1, 1), (3, 5), (8, 8), (12, 7), (64, 64)]:
            x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            op, tr = svd_norms(x)
            scale = max(1.0, op)
            assert abs(operator_norm(x) - op) <= 1e-10 * scale
            assert abs(trace_norm(x) - tr) <= 1e-9 * max(1.0, tr)
            assert abs(power_iteration_norm(x) - op) <= 1e-8 * scale
        # Gram sizes 1, 2, 5, 12, 20 against the Jacobi oracle
        for rows, cols in [(1, 1), (2, 7), (5, 5), (15, 12), (20, 24)]:
            x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            gram = x @ x.conj().T if rows <= cols else x.conj().T @ x
            want = jacobi_eigenvalues(gram)[::-1]
            scale = max(1.0, float(np.abs(gram).max()))
            assert np.abs(singular_values(x) ** 2 - want).max() <= 1e-10 * scale
        assert np.array_equal(singular_values(np.zeros((3, 4))), np.zeros(3))
        assert np.array_equal(jacobi_eigenvalues(np.zeros((3, 3))), np.zeros(3))
        z = np.array([[2.5 - 1.5j]])
        assert jacobi_eigenvalues(z @ z.conj().T) == pytest.approx([8.5], abs=1e-10)
        assert singular_values(z) ** 2 == pytest.approx([8.5], abs=1e-10)

    def test_trace_norm_dominates(self, rng):
        for _ in range(10):
            x = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
            assert trace_norm(x) >= operator_norm(x) - 1e-12
        u = rng.standard_normal((5, 1)) + 1j * rng.standard_normal((5, 1))
        v = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        rank1 = u @ v.conj().T
        assert trace_norm(rank1) == pytest.approx(operator_norm(rank1), rel=1e-10)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            operator_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_eigensolver_failure_is_numeric_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericError, match="did not converge"):
            singular_values(np.eye(3))

    def test_singular_values_sorted(self, rng):
        x = rng.standard_normal((6, 6))
        s = singular_values(x)
        assert np.all(np.diff(s) <= 1e-12)


class TestBlocks:
    def test_block_diag_pattern(self):
        got = block_diag([E(1, 1, 0, 0), E(1, 1, 0, 0)])
        assert got == ExactMatrix.identity(2)

    def test_block_row_matches_witness(self):
        # the published 3x9 witness block row composes (-u_3, u_2, u_1)
        from jcgrid.hnk import build_hnk
        sp = build_hnk(3, 2)
        u1, u2, u3 = sp.basis
        want = ExactMatrix.from_rows([
            [0, -1, 0, 0, 0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0, 0, -1, 0]])
        assert block_row([u3.scale(-1), u2, u1]) == want

    def test_block_grid_single(self):
        x = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert block_grid([[x]]) == x

    def test_block_grid_requires_equal_shapes(self):
        with pytest.raises(DimensionError):
            block_grid([[ExactMatrix.zeros(1, 1), ExactMatrix.zeros(2, 2)]])

    def test_block_row_requires_equal_rows(self):
        with pytest.raises(DimensionError):
            block_row([ExactMatrix.zeros(1, 1), ExactMatrix.zeros(2, 2)])


class TestApprox:
    def test_lossless_from_exact(self):
        m = ExactMatrix.from_rows([[ExactScalar(Fraction(1, 2), Fraction(-3, 4))]])
        a = ApproxMatrix.from_exact(m)
        assert a.array[0, 0] == 0.5 - 0.75j

    def test_immutable(self):
        a = ApproxMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            a.array[0, 0] = 1.0


class TestExactLinearAlgebra:
    def test_rank(self):
        rows = [(ExactScalar(1), ExactScalar(2)), (ExactScalar(2), ExactScalar(4))]
        assert exact_rank(rows) == 1

    def test_span_membership(self):
        basis = [E(2, 2, 0, 0), E(2, 2, 1, 1)]
        assert span_contains(basis, E(2, 2, 0, 0) + E(2, 2, 1, 1).scale(EX_I))
        assert not span_contains(basis, E(2, 2, 0, 1))

    def test_independence(self):
        assert exact_linearly_independent([SIGMA1, SIGMA2, SIGMA3])
        assert not exact_linearly_independent([SIGMA1, SIGMA1.scale(-2)])
