"""Exact kernel: arithmetic, adjoints, Kronecker products, blocks, norms."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (exact_matrices, jacobi_eigenvalues, power_iteration_norm,
                      random_exact, square_exact, svd_norms)
from jcgrid.errors import DimensionError, NumericError
from jcgrid.numlin import (_BLAS_MIN_SIZE, EX_HALF, EX_I, EX_ZERO, ApproxMatrix, ExactFamily,
                           ExactMatrix, ExactScalar, block_diag, block_grid,
                           block_row, combination, exact_linearly_independent,
                           exact_rank, operator_norm, scaled_members,
                           singular_values, span_contains, trace_norm)
from jcgrid.numlin import _product_sum, _scaled_coefficients
from jcgrid.serialize import matrix_to_csv_lines, matrix_to_json
from jcgrid.triple import GridRelation, classify_relation, ternary_product, triple_product

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
        with pytest.raises(NumericError, match="did not converge"):
            singular_values(np.stack([np.eye(3)] * 4))

    def test_singular_values_sorted(self, rng):
        x = rng.standard_normal((6, 6))
        s = singular_values(x)
        assert np.all(np.diff(s) <= 1e-12)


class TestStackedNorms:
    """A stack of shape (..., r, c) gives, per matrix, exactly what the 2-d
    call gives for that matrix."""

    @pytest.mark.parametrize("shape", [(50, 4, 7), (50, 7, 4), (30, 15, 15), (20, 56, 70),
                                       (3, 1, 5), (0, 3, 4)], ids=str)
    def test_equal_to_per_slice_calls(self, rng, shape):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = singular_values(x)
        assert s.shape == shape[:-2] + (min(shape[-2:]),)
        assert np.array_equal(s, np.array([singular_values(m) for m in x]).reshape(s.shape))
        for norm in (operator_norm, trace_norm):
            got = norm(x)
            assert isinstance(got, np.ndarray) and got.shape == shape[:-2]
            assert np.array_equal(got, np.array([norm(m) for m in x]).reshape(got.shape))

    def test_two_dimensional_call_returns_a_float(self, rng):
        x = rng.standard_normal((4, 7))
        assert type(operator_norm(x)) is float and type(trace_norm(x)) is float
        assert operator_norm(np.zeros((0, 3))) == 0.0

    def test_leading_axes_and_rank_cutoff_per_matrix(self, rng):
        # the cutoff is relative to each matrix's own largest Gram eigenvalue
        x = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
        x[1, 1] = np.outer(np.arange(1, 5), np.arange(1, 6))
        x[1, 2] = 1e-8 * x[0, 0]  # all of its Gram eigenvalues lie below the others' cutoff
        s = singular_values(x)
        assert s.shape == (2, 3, 4)
        assert np.array_equal(s[1, 1, 1:], np.zeros(3))
        assert np.all(s[1, 2] > 0)
        assert np.array_equal(s[1, 2], singular_values(x[1, 2]))
        assert np.array_equal(operator_norm(x), s[..., 0])

    def test_nonfinite_in_any_slice_rejected(self):
        x = np.zeros((5, 3, 3))
        x[3, 1, 2] = np.nan
        with pytest.raises(NumericError):
            singular_values(x)
        x[3, 1, 2] = 0.0
        x[4, 0, 0] = np.inf
        for norm in (operator_norm, trace_norm):
            with pytest.raises(NumericError):
                norm(x)

    def test_strided_views_accepted(self, rng):
        # a complex view whose last axis is not contiguous (a transpose, a
        # slice with a step) once raised ValueError in the finiteness check
        x = rng.standard_normal((6, 5, 8)) + 1j * rng.standard_normal((6, 5, 8))
        for view in (x[0].T, x[:, :, ::2], x.swapaxes(-1, -2)):
            want = singular_values(np.ascontiguousarray(view))
            assert np.array_equal(singular_values(view), want)
        x[2, 1, 3] = complex(0.0, np.inf)
        with pytest.raises(NumericError):
            operator_norm(x[:, :, ::-1])

    def test_one_dimensional_input_rejected(self):
        for norm in (singular_values, operator_norm, trace_norm):
            with pytest.raises(DimensionError):
                norm(np.ones(4))


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

    def test_stack_reads_the_last_two_axes(self):
        a = ApproxMatrix(np.zeros((5, 2, 3, 4)))
        assert (a.rows, a.cols) == (3, 4)
        with pytest.raises(DimensionError):
            ApproxMatrix(np.zeros(4))


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


LIMIT = 2 ** 62  # numerators at or above this are stored as Python ints


def one(value):
    """1x1 exact matrix."""
    return ExactMatrix.from_rows([[value]])


def ref_product(a, b):
    """Product from ExactScalar arithmetic on the entries: the Fraction reference."""
    rows_a = [a.entries[i * a.cols:(i + 1) * a.cols] for i in range(a.rows)]
    cols_b = [b.entries[j::b.cols] for j in range(b.cols)]
    return [[sum((x * y for x, y in zip(r, c)), ExactScalar(0)) for c in cols_b] for r in rows_a]


def as_rows(m):
    return [list(m.entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


def assert_canonical_storage(m):
    """int64 exactly when every numerator is below 2^62, else Python ints."""
    big = max(abs(x) for x in m.re.ravel().tolist() + m.im.ravel().tolist()) >= LIMIT
    assert m.re.dtype == m.im.dtype == (object if big else np.int64)


class TestRepresentation:
    def test_canonical_form(self):
        x = ExactMatrix.from_rows([[Fraction(1, 2), ExactScalar(0, Fraction(2, 3))],
                                   [3, Fraction(-5, 6)]])
        assert x.den == 6
        assert x.re.tolist() == [[3, 0], [18, -5]] and x.im.tolist() == [[0, 4], [0, 0]]
        assert x.re.dtype == np.int64 and not x.re.flags.writeable
        zero = x - x
        assert zero.den == 1 and zero.is_zero() and zero == ExactMatrix.zeros(2, 2)
        assert math.gcd(x.scale(6).den, 6) == 1 and x.scale(6).den == 1

    def test_entries_are_derived(self):
        x = ExactMatrix.from_rows([[0, Fraction(1, 2)], [EX_I, 0]])
        assert x.entries == (EX_ZERO, EX_HALF, EX_I, EX_ZERO)
        assert x.entries[0] is EX_ZERO and x.entries[3] is EX_ZERO
        assert x.entry(0, 1) == EX_HALF and x.entry(1, 1) is EX_ZERO
        assert x.support() == [(0, 1, EX_HALF), (1, 0, EX_I)]
        assert x.nnz() == 2 and x.adjoint().entries == (EX_ZERO, -EX_I, EX_HALF, EX_ZERO)

    @settings(max_examples=40, deadline=None)
    @given(square_exact(4))
    def test_scale_round_trip_is_canonical(self, x):
        y = x.scale(2).scale(EX_HALF)
        assert y == x and hash(y) == hash(x)
        assert (y.den, y.re.tolist(), y.im.tolist()) == (x.den, x.re.tolist(), x.im.tolist())

    def test_object_storage_reduced_back(self, rng):
        x = random_exact(rng, 5, 4)
        big = Fraction(2 ** 70 + 1, 3)
        y = x.scale(big)
        assert y.re.dtype == object
        z = y.scale(1 / big)
        assert z.re.dtype == np.int64 and z.im.dtype == np.int64
        assert z == x and hash(z) == hash(x)

    def test_real_matrices_share_one_zero_imaginary_part(self):
        a = ExactMatrix.from_rows([[1, 0, 2], [Fraction(1, 2), -1, 0], [0, 3, 1]])
        b = ExactMatrix.from_rows([[0, 1, 0], [2, 0, 0], [0, 0, -1]])
        col, row = ExactMatrix.from_rows([[1], [2], [3]]), ExactMatrix.from_rows([[1, 0, -1]])
        real = [a, b, a * b, a.gram(), a.adjoint(), b.adjoint().gram(), -a, a + b, a - b,
                a.scale(Fraction(2, 3)), a.scale(EX_I).scale(-EX_I), col.kron(row),
                ExactMatrix.zeros(3, 3), ExactMatrix.identity(3), E(3, 3, 0, 2),
                E(3, 3, 1, 1, Fraction(1, 3)),
                block_diag([ExactMatrix.identity(1), ExactMatrix.from_rows([[1, 2], [3, 4]])]),
                *ExactFamily([a, b]).matrices([0, 1], [1, 1], [0, 0])]
        shared = ExactMatrix.zeros(3, 3).im
        assert shared.dtype == np.int64 and not shared.flags.writeable and not shared.any()
        assert all(m.im is shared for m in real)
        complex_ = a + E(3, 3, 0, 0, EX_I)
        assert complex_.im is not shared and complex_.gram().im is not shared
        # Python-int storage keeps re and im of one dtype, so not the int64 zero
        huge = a.scale(2 ** 70)
        assert huge.re.dtype == huge.im.dtype == object and huge.im is not shared

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 5), (4, 3)])
    def test_shared_zero_changes_no_value(self, rng, rows, cols):
        x = random_exact(rng, rows, cols)
        for m in (ExactMatrix(rows, cols, [e.re for e in x.entries]), x.scale(0),
                  ExactMatrix(rows, cols, [e.re for e in x.entries]).adjoint().gram()):
            assert m.im is ExactMatrix.zeros(*m.shape).im
            # the same values over a zero im array of its own
            own = ExactMatrix(m.rows, m.cols,
                              _arrays=(m.re.copy(), np.zeros(m.shape, dtype=np.int64), m.den))
            assert own.im is not m.im
            assert own == m and hash(own) == hash(m) and own.entries == m.entries
            assert (own.den, own.re.tolist(), own.im.tolist()) == \
                (m.den, m.re.tolist(), m.im.tolist())
            assert matrix_to_json(own) == matrix_to_json(m)
            assert matrix_to_csv_lines(own) == matrix_to_csv_lines(m)


class TestPromotionBoundary:
    """Numerators just below and just above 2^62 stay exact on both storages."""

    @pytest.mark.parametrize("a, b", [
        (2 ** 31, 2 ** 31 - 1),       # bound trips, result fits: back to int64
        (2 ** 31, 2 ** 31 + 1),       # result above the limit
        (2 ** 30, 2 ** 30),           # bound 2^61: int64 all the way
        (-(2 ** 40), 2 ** 40 + 3),
    ])
    def test_real_product(self, a, b):
        got = one(a) * one(b)
        assert got.entry(0, 0) == ExactScalar(a * b)
        assert_canonical_storage(got)

    def test_complex_product_near_limit(self):
        # (M + Mi)^2 = 2 M^2 i: 2^63 does not fit int64 at all
        for m in (2 ** 31 - 1, 2 ** 31):
            z = one(ExactScalar(m, m))
            got = z * z
            assert got.entry(0, 0) == ExactScalar(0, 2 * m * m)
            assert_canonical_storage(got)

    def test_inner_sum_near_limit(self):
        # each product is below 2^62 but their sum is not
        a = ExactMatrix.from_rows([[2 ** 31, 2 ** 31]])
        b = ExactMatrix.from_rows([[2 ** 30], [2 ** 30 + 1]])
        got = a * b
        assert got.entry(0, 0) == ExactScalar(2 ** 62 + 2 ** 31)
        assert_canonical_storage(got)
        assert as_rows(got) == ref_product(a, b)

    @pytest.mark.parametrize("x, y", [
        (LIMIT - 2, 1), (LIMIT - 1, 1), (LIMIT - 1, LIMIT - 1), (-(LIMIT - 1), -1),
        (Fraction(LIMIT - 1, 3), Fraction(1, 5)),
    ])
    def test_sum(self, x, y):
        got = one(x) + one(y)
        assert got.entry(0, 0) == ExactScalar(Fraction(x) + Fraction(y))
        assert (one(x) - one(y)).entry(0, 0) == ExactScalar(Fraction(x) - Fraction(y))
        assert_canonical_storage(got)

    @pytest.mark.parametrize("x, c", [
        (2 ** 61 - 1, 2), (2 ** 61, 2), (2 ** 61, Fraction(1, 2)),
        (2 ** 60, ExactScalar(2, -2)), (LIMIT - 1, ExactScalar(Fraction(1, 3), 1)),
    ])
    def test_scale(self, x, c):
        got = one(x).scale(c)
        assert got.entry(0, 0) == ExactScalar(x) * ExactScalar.coerce(c)
        assert_canonical_storage(got)

    @pytest.mark.parametrize("x, y", [(2 ** 31 - 1, 2 ** 31), (2 ** 31, 2 ** 31),
                                      (2 ** 32, 2 ** 31),  # 2^63 overflows int64
                                      (ExactScalar(2 ** 31, 1), ExactScalar(1, 2 ** 31)),
                                      (ExactScalar(2 ** 31, 2 ** 31),
                                       ExactScalar(2 ** 31, 2 ** 31))])
    def test_kron(self, x, y):
        a = ExactMatrix.from_rows([[x, 1]])
        b = ExactMatrix.from_rows([[y], [3]])
        got = a.kron(b)
        want = [[ExactScalar.coerce(p) * ExactScalar.coerce(q) for p in (x, 1)]
                for q in (y, 3)]
        assert as_rows(got) == want
        assert_canonical_storage(got)

    def test_returns_to_int64(self):
        big = one(2 ** 63)
        assert big.re.dtype == object
        back = big * one(Fraction(1, 2 ** 62))
        assert back.re.dtype == np.int64 and back == one(2)
        assert (big - one(2 ** 63 - 5)).re.dtype == np.int64
        assert big.scale(Fraction(3, 2 ** 62)) == one(6)
        assert block_diag([big, one(1)]).re.dtype == object
        assert block_row([big.scale(Fraction(1, 2 ** 61)), one(1)]) == \
            ExactMatrix.from_rows([[4, 1]])

    @pytest.mark.parametrize("make", [
        lambda big: big - big,
        lambda big: big * ExactMatrix.zeros(1, 1),
        lambda big: ExactMatrix.zeros(1, 1) * big,
        lambda big: big.scale(0),
        lambda big: big.kron(ExactMatrix.zeros(1, 1)),
    ], ids=["sub", "mul-zero", "zero-mul", "scale-0", "kron-zero"])
    def test_zero_over_wide_denominator(self, make):
        # the zero result comes over den 2^64 + 1, which no int64 holds
        got = make(one(Fraction(1, 2 ** 64 + 1)))
        assert got == ExactMatrix.zeros(1, 1) and got.den == 1
        assert_canonical_storage(got)

    @pytest.mark.parametrize("value", [
        Fraction(2 ** 53 + 1, 7),  # int64 numerator that float64 cannot hold
        Fraction(2 ** 70 + 1, 3 * 2 ** 20),
        ExactScalar(Fraction(1, 3), Fraction(-(2 ** 64), 7)),
    ])
    def test_to_approx_rounds_once(self, value):
        # each entry is the correctly rounded float of the exact value, as
        # float(Fraction) gives, not a rounded numerator over a rounded den
        s = ExactScalar.coerce(value)
        assert one(s).to_approx().array[0, 0] == complex(s)


def _dot_dtypes(monkeypatch):
    """Record the operand dtype of every np.dot call."""
    used = []
    orig = np.dot

    def spy(x, y):
        used.append(x.dtype)
        return orig(x, y)

    monkeypatch.setattr(np, "dot", spy)
    return used


# (rows x INNER) times (INNER x rows) takes at least _BLAS_MIN_SIZE scalar
# multiplications; INNER is odd, so INNER * a * b is odd for odd a and b
INNER = 15
RUNG_ROWS = next(r for r in itertools.count(1) if r * r * INNER >= _BLAS_MIN_SIZE)


def _filled(rows, cols, value):
    return ExactMatrix(rows, cols, [value] * (rows * cols))


def _largest_odd_below(k):
    """The largest odd a with INNER * a * k < 2^53."""
    a = (2 ** 53 - 1) // (INNER * k)
    return a if a % 2 else a - 1


class TestFloatRung:
    """Products of at least _BLAS_MIN_SIZE scalar multiplications run each
    real dot in float64 while INNER * max|a| * max|b| < 2^53, and stay exact
    on int64 from that bound up."""

    B = 2 ** 26 + 1

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_bound_just_below_and_above(self, monkeypatch, kind):
        used = _dot_dtypes(monkeypatch)
        top = _largest_odd_below(self.B)
        for a, rung in ((top, np.float64), (top + 2, np.int64)):
            # every entry of each real dot is +-INNER * a * B: odd, so above
            # 2^53 a float64 sum would round it
            x, y = ExactScalar(a), ExactScalar(self.B)
            if kind == "complex":
                x, y = ExactScalar(a, a), ExactScalar(self.B, -self.B)
            left = _filled(RUNG_ROWS, INNER, x)
            right = _filled(INNER, RUNG_ROWS, y)
            del used[:]
            got = left * right
            assert as_rows(got) == ref_product(left, right)
            assert_canonical_storage(got)
            assert used == [np.dtype(rung)] * (1 if kind == "real" else 4)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_mixed_entries_below_the_bound(self, monkeypatch, rng, kind):
        used = _dot_dtypes(monkeypatch)
        top = _largest_odd_below(self.B)
        x = rng.integers(-top, top + 1, size=(RUNG_ROWS, INNER, 2))
        y = rng.integers(-self.B, self.B + 1, size=(INNER, RUNG_ROWS, 2))
        x[0, 0, 0], y[0, 0, 0] = top, -self.B
        if kind == "real":
            x[..., 1] = y[..., 1] = 0
        left = ExactMatrix(RUNG_ROWS, INNER, [ExactScalar(*p) for p in x.reshape(-1, 2).tolist()])
        right = ExactMatrix(INNER, RUNG_ROWS, [ExactScalar(*p) for p in y.reshape(-1, 2).tolist()])
        got = left * right
        assert as_rows(got) == ref_product(left, right)
        assert_canonical_storage(got)
        assert set(used) == {np.dtype(np.float64)}

    def test_below_the_gate_stays_on_int64(self, monkeypatch, rng):
        used = _dot_dtypes(monkeypatch)
        x, y = random_exact(rng, 6, 6), random_exact(rng, 6, 6)
        assert x._mags()[1] and y._mags()[1]
        got = x * y
        assert as_rows(got) == ref_product(x, y)
        assert used == [np.dtype(np.int64)] * 4

    def test_one_row_short_of_the_gate_stays_on_int64(self, monkeypatch):
        used = _dot_dtypes(monkeypatch)
        left = _filled(RUNG_ROWS - 1, INNER, ExactScalar(3))
        right = _filled(INNER, RUNG_ROWS - 1, ExactScalar(-1))
        assert left * right == _filled(RUNG_ROWS - 1, RUNG_ROWS - 1, ExactScalar(-3 * INNER))
        assert used == [np.dtype(np.int64)]


# Entries with large numerators and denominators, so that products and sums
# cross 2^62 and run on Python ints.
_wide_parts = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 24)))
_wide_scalars = st.builds(ExactScalar, _wide_parts, _wide_parts)


def wide_matrices(rows, cols):
    return st.lists(_wide_scalars, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: ExactMatrix(rows, cols, e))


@pytest.fixture(scope="module")
def qqi():
    """sympy's exact dense matrices over the Gaussian rationals QQ_I."""
    domains = pytest.importorskip("sympy.polys.domains")
    matrices = pytest.importorskip("sympy.polys.matrices")
    QQ, QQ_I = domains.QQ, domains.QQ_I

    def convert(m):
        def q(x):
            x = Fraction(x)
            return QQ(x.numerator, x.denominator)
        flat = [QQ_I(q(e.re), q(e.im)) for e in m.entries]
        return matrices.DomainMatrix([flat[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)],
                                     m.shape, QQ_I)

    def adjoint(d):
        return d.transpose().applyfunc(lambda z: QQ_I(z.x, -z.y))

    def kron(d, e):
        blocks = [[e.scalarmul(x) for x in row] for row in d.to_list()]
        rows = [r[0].hstack(*r[1:]) for r in blocks]
        return rows[0].vstack(*rows[1:])

    def trace(d):
        return sum(d.diagonal(), QQ_I(0, 0))

    return convert, adjoint, kron, trace


class TestSympyOracle:
    """Cross-check against sympy's exact matrices over Q(i)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda k: st.tuples(
        wide_matrices(2, k), wide_matrices(k, 3), wide_matrices(2, k))))
    def test_against_sympy(self, qqi, ops):
        convert, adjoint, kron, trace = qqi

        def same(m, d):  # entrywise, whatever sparse or dense format sympy picked
            return convert(m).to_list() == d.to_list()

        a, b, c = ops
        sa, sb, sc = (convert(x) for x in ops)
        assert same(a * b, sa * sb)
        assert same(a + c, sa + sc)
        assert same(a - c, sa - sc)
        assert same(a.adjoint(), adjoint(sa))
        assert same(a.kron(b), kron(sa, sb))
        t = (a * a.adjoint()).trace()
        want = trace(sa * adjoint(sa))
        assert (Fraction(t.re), Fraction(t.im)) == (
            Fraction(want.x.numerator, want.x.denominator),
            Fraction(want.y.numerator, want.y.denominator))

    def test_product_on_the_float_rung(self, qqi, monkeypatch, rng):
        convert = qqi[0]
        used = _dot_dtypes(monkeypatch)
        # parts up to 2^20 over 1, 3, 5 or 15: numerators up to 15 * 2^20 over
        # den 15, so INNER * max|a| * max|b| is about 2^51.7
        def wide(rows, cols):
            p, s = rng.integers(-2 ** 20, 2 ** 20 + 1, (2, rows * cols)).tolist()
            q = rng.choice([1, 3, 5, 15], rows * cols).tolist()
            return ExactMatrix(rows, cols, [ExactScalar(Fraction(*x), Fraction(*y))
                                            for x, y in zip(zip(p, q), zip(s, q))])

        a, b = wide(RUNG_ROWS, INNER), wide(INNER, RUNG_ROWS)
        assert convert(a * b).to_list() == (convert(a) * convert(b)).to_list()
        assert set(used) == {np.dtype(np.float64)}


def _family_members(rows, cols):
    return st.one_of(exact_matrices(rows, cols), wide_matrices(rows, cols),
                     st.just(ExactMatrix.zeros(rows, cols)))


def _stacks():
    """(rows, cols, members): small, wide (numerators far above 2^53) and zero
    members mixed, so that both rungs and both outcomes occur."""
    return st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.tuples(st.just(s[0]), st.just(s[1]),
                            st.lists(_family_members(s[0], s[1]), min_size=s[2], max_size=s[2])))


def _all_triples(n):
    return np.array(list(itertools.product(range(n), repeat=3)), dtype=np.intp).reshape(-1, 3).T


def _rungs(monkeypatch):
    """Record the dtype each family evaluation runs in."""
    used = []
    orig = ExactFamily._stack

    def spy(self, bound):
        stack = orig(self, bound)
        used.append(stack[0].dtype)
        return stack

    monkeypatch.setattr(ExactFamily, "_stack", spy)
    return used


def _largest_below(k, power):
    """The largest a with k * a**power < 2^53."""
    a = int((2 ** 53 / k) ** (1 / power)) + 2
    while k * a ** power >= 2 ** 53:
        a -= 1
    return a


def ref_ternary(a, b, c):
    """(a b*) c from ExactScalar arithmetic on the entries."""
    return ref_product(ExactMatrix.from_rows(ref_product(a, b.adjoint())), c)


def _gram_operands(rng, kind, rows, cols):
    """A pair of random rows x cols matrices: complex with integer entries,
    complex with denominators 2 and 3, or with numerators whose products
    pass 2^62."""
    a, c = (random_exact(rng, rows, cols, density=0.8, halves=kind != "complex")
            for _ in range(2))
    if kind == "big":
        a = a.scale(Fraction(2 ** 40 + 1, 3)) + ExactMatrix.unit(rows, cols, 0, 0, 2 ** 45)
        c = c.scale(ExactScalar(2 ** 35, 7))
    return a, c


class TestGram:
    def test_kept_on_the_matrix(self, monkeypatch, rng):
        a = random_exact(rng, 3, 5)
        left, right = a.gram(), a.adjoint().gram()
        calls = []
        monkeypatch.setattr(ExactMatrix, "__mul__",
                            lambda *args: calls.append(1) or pytest.fail("formed again"))
        assert a.gram() is left and a.adjoint().gram() is right
        assert a.adjoint().adjoint().gram() is left and not calls

    @pytest.mark.parametrize("kind", ["complex", "den", "big"])
    def test_equals_the_product_with_the_adjoint(self, rng, kind):
        for rows, cols in ((1, 4), (3, 3), (4, 2)):
            a, _ = _gram_operands(rng, kind, rows, cols)
            assert a.gram() == a * a.adjoint()
            assert a.adjoint().gram() == a.adjoint() * a
            assert as_rows(a.gram()) == ref_product(a, a.adjoint())
            assert as_rows(a.adjoint().gram()) == ref_product(a.adjoint(), a)
            assert_canonical_storage(a.gram())
        if kind == "big":
            assert a.gram()._bound() >= LIMIT

    @pytest.mark.parametrize("kind", ["complex", "den", "big"])
    def test_ternary_shortcuts(self, rng, kind):
        for rows, cols in ((1, 3), (3, 3), (4, 2)):
            a, c = _gram_operands(rng, kind, rows, cols)
            # a a* c reads a.gram(), a c* c reads c.adjoint().gram()
            assert as_rows(ternary_product(a, a, c)) == ref_ternary(a, a, c)
            assert as_rows(ternary_product(a, c, c)) == ref_ternary(a, c, c)
            assert as_rows(ternary_product(a, a, a)) == ref_ternary(a, a, a)
            assert ternary_product(a, a, c) == a * a.adjoint() * c
            assert ternary_product(a, c, c) == a * c.adjoint() * c
            assert_canonical_storage(ternary_product(a, c, c))

    @settings(max_examples=40, deadline=None)
    @given(_stacks())
    def test_ternary_shortcuts_on_family_stacks(self, stack):
        _, _, members = stack
        for a, c in itertools.product(members, repeat=2):
            assert ternary_product(a, a, c) == a * a.adjoint() * c
            assert ternary_product(a, c, c) == a * c.adjoint() * c
        a = members[0]
        assert as_rows(ternary_product(a, a, a)) == ref_ternary(a, a, a)


class TestFamilyGuard:
    """The batched kernel's float64 rung ends just below 2^53."""

    @pytest.mark.parametrize("sym", [False, True])
    def test_ternary_bound(self, monkeypatch, sym):
        # a 1x1 family: |a b* c| <= 4 rows cols mag^3, doubled for {a,b,c}
        used = _rungs(monkeypatch)
        top = _largest_below(8 if sym else 4, 3)
        for value, rung in ((top, np.float64), (top + 1, object)):
            fam = ExactFamily([one(value)])
            re, im = fam.ternary([0], [0], [0], sym=sym)
            assert re.tolist() == [[[value ** 3 * (2 if sym else 1)]]] and im is None
            assert not fam.equal([0], [0], [0], sym=sym)[0]
            assert used[-2:] == [np.dtype(rung)] * 2

    def test_products_above_2_53_stay_exact(self, monkeypatch):
        used = _rungs(monkeypatch)
        value = ExactScalar(2 ** 18 + 1, -3)  # |a|^2 a is odd and above 2^54
        fam = ExactFamily([one(value), one(value * value.conjugate() * value)])
        assert fam.matrices([0], [0], [0]) == [one(value * value.conjugate() * value)]
        assert fam.equal([0], [0], [0], scaled_members([1])).tolist() == [True]
        assert set(used) == {np.dtype(object)}

    def test_pair_bound(self, monkeypatch):
        used = _rungs(monkeypatch)
        top = _largest_below(2, 2)
        for value, rung in ((top, np.float64), (top + 1, object)):
            fam = ExactFamily([one(value), one(0)])
            assert fam.vanish([0, 0, 1], [0, 1, 0]).tolist() == [False, True, True]
            assert fam.vanish([0], [0], star_first=True).tolist() == [False]
            assert used[-2:] == [np.dtype(rung)] * 2

    def test_combination_bound(self, monkeypatch):
        # the coefficient side is bounded too: 2^60 + 1 rounds to 2^60 in float64
        used = _rungs(monkeypatch)
        fam = ExactFamily([one(1)])
        q = 2 ** 60
        assert fam.equal([0], [0], [0], scaled_members([0], q + 1, q)).tolist() == [False]
        assert fam.equal([0], [0], [0], scaled_members([0], q, q)).tolist() == [True]
        # (2^60 + 1) u - 2^60 u = u, though each term is far above 2^53
        want = np.zeros((1, 2), dtype=np.intp), np.array([[q + 1, -q]], dtype=object), 1
        assert fam.equal([0], [0], [0], want).tolist() == [True]
        assert used == [np.dtype(object)] * 3

    @pytest.mark.parametrize("sym", [False, True])
    def test_coefficients_stay_int64_below_2_62(self, sym):
        # factor = den^2, doubled for {a,b,c}: at den 1 the last int64
        # coefficient is 2^62 / factor - 1
        factor = 2 if sym else 1
        edge = LIMIT // factor
        for coef, dtype in ((edge - 1, np.int64), (edge, object)):
            scaled = _scaled_coefficients(np.array([[coef]], dtype=np.int64), factor)
            assert scaled.dtype == dtype and scaled.tolist() == [[coef * factor]]
        # 1 / q times the member: equal only at coef == q
        fam = ExactFamily([one(1)])
        for coef in (edge - 1, edge):
            got = fam.equal([0], [0], [0], scaled_members([0], coef, edge), sym=sym)
            assert got.tolist() == [coef == edge]

    def test_coefficient_width_and_storage(self):
        # two columns: a row's sum of absolute values must fit as well
        half = LIMIT // 2
        assert _scaled_coefficients(np.array([[half - 1, 0]]), 1).dtype == np.int64
        assert _scaled_coefficients(np.array([[half, 0]]), 1).dtype == object
        # huge coefficients arrive as Python ints already
        assert scaled_members([0], LIMIT)[1].dtype == object
        assert scaled_members([0], LIMIT - 1)[1].dtype == np.int64
        assert combination([{0: Fraction(LIMIT - 1)}])[1].dtype == np.int64
        assert combination([{0: Fraction(LIMIT)}])[1].dtype == object
        assert scaled_members([], np.array([], dtype=int))[1].shape == (0, 1)
        # all-zero coefficients beside a factor past int64
        assert _scaled_coefficients(np.zeros((1, 1), dtype=np.int64), 2 ** 70).dtype == object

    def test_members_must_share_a_shape(self):
        with pytest.raises(DimensionError):
            ExactFamily([E(2, 2, 0, 0), E(2, 3, 0, 0)])


class TestFamilyOracle:
    """Batched products equal the per-product ExactMatrix results."""

    @settings(max_examples=25, deadline=None)
    @given(_stacks())
    # a zero member beside denominators 2, 20249 and 74993: den^3 exceeds 2^63
    @example((3, 3, [ExactMatrix.from_rows([[Fraction(1, 2), 0, 0],
                                            [0, Fraction(3, 20249), 0],
                                            [0, 0, ExactScalar(0, Fraction(-5, 74993))]]),
                     ExactMatrix.zeros(3, 3)]))
    # a zero member beside a family den just above 2^63: it is not lifted by den
    @example((2, 3, [ExactMatrix.zeros(2, 3), ExactMatrix.from_rows([
        [0, 0, 0],
        [ExactScalar(0, Fraction(1, 1289231)),
         ExactScalar(Fraction(1, 694481), Fraction(1, 174601)), Fraction(1, 59)]])]))
    def test_against_exact_matrix(self, stack):
        rows, cols, mats = stack
        n = len(mats)
        fam = ExactFamily(mats)
        ia, ib, ic = _all_triples(n)
        ternary = [mats[a] * mats[b].adjoint() * mats[c] for a, b, c in zip(ia, ib, ic)]
        braces = [triple_product(mats[a], mats[b], mats[c]) for a, b, c in zip(ia, ib, ic)]
        assert fam.matrices(ia, ib, ic) == ternary
        re, im = fam.ternary(ia, ib, ic, sym=True)
        im = np.zeros_like(re) if im is None else im
        assert [ExactMatrix(rows, cols, _arrays=(r, i, 2 * fam.den ** 3))
                for r, i in zip(re, im)] == braces
        pa, pb = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        assert fam.vanish(pa, pb).tolist() == [
            (mats[a] * mats[b].adjoint()).is_zero() for a, b in zip(pa, pb)]
        assert fam.vanish(pa, pb, star_first=True).tolist() == [
            (mats[a].adjoint() * mats[b]).is_zero() for a, b in zip(pa, pb)]
        # compared with combinations of members: the products themselves, or twice them
        for sym, values in ((False, ternary), (True, braces)):
            ext = ExactFamily(mats + values + values)
            own = n + np.arange(len(values))
            assert ext.equal(ia, ib, ic, scaled_members(own), sym=sym).all()
            assert ext.equal(ia, ib, ic, scaled_members(own, 2), sym=sym).tolist() == \
                [v.is_zero() for v in values]
            assert ext.equal(ia, ib, ic, sym=sym).tolist() == [v.is_zero() for v in values]
            thirds = combination([{t: Fraction(1, 3), t + len(values): Fraction(2, 3)}
                                  for t in own])
            assert ext.equal(ia, ib, ic, thirds, sym=sym).all()

    def test_chunks_agree_with_one_chunk(self, monkeypatch):
        from jcgrid import grids, numlin
        mats = grids.spin_grid(2, True).matrices()
        mats += [mats[0].scale(Fraction(1, 3)), ExactMatrix.zeros(4, 4)]
        ia, ib, ic = _all_triples(len(mats))
        want = combination([{int(c): Fraction(1, 2)} for c in ic])

        def evaluate():
            fresh = ExactFamily(mats)
            return (fresh.equal(ia, ib, ic, want, sym=True), fresh.equal(ia, ib, ic),
                    fresh.ternary(ia, ib, ic, sym=True), fresh.vanish(ia, ib),
                    fresh.vanish(ib, ic, star_first=True))

        whole = evaluate()
        chunks = []
        orig = ExactFamily._chunks

        def counted(self, *args):
            for chunk in orig(self, *args):
                chunks.append(len(chunk[0]))
                yield chunk

        monkeypatch.setattr(numlin, "_CHUNK_CELLS", 1)
        monkeypatch.setattr(ExactFamily, "_chunks", counted)
        split = evaluate()
        assert set(chunks) == {1} and len(chunks) == 3 * len(ia)
        assert whole[0].any() and not whole[0].all() and whole[1].any()
        for a, b in zip(whole, split):
            if isinstance(a, tuple):
                assert all((x is None and y is None) or (x == y).all() for x, y in zip(a, b))
            else:
                assert (a == b).all()

    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (2, 5), (5, 2)])
    def test_wide_and_tall_families(self, shape):
        # a wide family forms c b* per triple, a tall one b* c: both sides of
        # each association rule against the per-product results
        rows, cols = shape
        rng = np.random.default_rng(rows * 10 + cols)
        mats = [ExactMatrix(rows, cols, [ExactScalar(int(re), int(im)) for re, im in
                                          rng.integers(-2, 3, size=(rows * cols, 2))])
                for _ in range(4)]
        fam = ExactFamily(mats)
        ia, ib, ic = _all_triples(len(mats))
        assert fam.matrices(ia, ib, ic) == [mats[a] * mats[b].adjoint() * mats[c]
                                            for a, b, c in zip(ia, ib, ic)]
        braces = [triple_product(mats[a], mats[b], mats[c]) for a, b, c in zip(ia, ib, ic)]
        ext = ExactFamily(mats + braces)
        assert ext.equal(ia, ib, ic, scaled_members(len(mats) + np.arange(len(braces))),
                         sym=True).all()


# -- the exact product-sum kernel -------------------------------------------------


def _real(m):
    return ExactMatrix(m.rows, m.cols, [e.re for e in m.entries])


def _kernel_operands(rows, cols):
    """Complex and real entries with denominators up to 3, wide entries with
    numerators up to 2^40 over denominators up to 2^24, and zero matrices."""
    return st.one_of(exact_matrices(rows, cols), exact_matrices(rows, cols).map(_real),
                     wide_matrices(rows, cols), st.just(ExactMatrix.zeros(rows, cols)))


def _kernel_terms():
    """(q, terms): one or two (x, y) pairs whose products are r x c."""
    def terms(rows, cols, inners):
        return st.tuples(*(st.tuples(_kernel_operands(rows, k), _kernel_operands(k, cols))
                           for k in inners)).map(list)

    return st.tuples(st.integers(1, 3), st.integers(1, 3),
                     st.lists(st.integers(1, 3), min_size=1, max_size=2)).flatmap(
        lambda s: st.tuples(st.sampled_from([1, 2, 3]), terms(*s)))


def _separate_sum(terms, q):
    """The sum of the terms' products, each formed alone, then scaled by 1/q."""
    total = terms[0][0] * terms[0][1]
    for x, y in terms[1:]:
        total = total + x * y
    return total.scale(Fraction(1, q))


class TestProductSum:
    """``_product_sum``: (sum of x y) / q as one canonical matrix."""

    @settings(max_examples=60, deadline=None)
    @given(_kernel_terms())
    # two terms over denominators 2 * 3 and 5 * 7: the sum runs over their lcm
    @example((2, [(one(Fraction(1, 2)), one(Fraction(1, 3))),
                  (one(ExactScalar(Fraction(2, 5), 1)), one(Fraction(3, 7)))]))
    def test_equals_the_separate_products(self, qqi, case):
        convert = qqi[0]
        q, terms = case
        got = _product_sum(terms, q)
        assert got == _separate_sum(terms, q)
        assert_canonical_storage(got)
        rows = [[sum(col, ExactScalar(0)) / q for col in zip(*cells)]
                for cells in zip(*(ref_product(x, y) for x, y in terms))]
        assert as_rows(got) == rows
        want = convert(terms[0][0]) * convert(terms[0][1])
        for x, y in terms[1:]:
            want = want + convert(x) * convert(y)
        assert convert(got.scale(q)).to_list() == want.to_list()

    def test_lcm_of_the_denominators(self):
        # 2^61/2 + 2^61/3: lifted by 3 and 2, the numerators pass 2^62 over
        # den 6; the result 5 * 2^60 / 3 is back on int64
        terms = [(one(Fraction(1, 2)), one(2 ** 61)), (one(Fraction(1, 3)), one(2 ** 61))]
        got = _product_sum(terms)
        assert got.entry(0, 0) == ExactScalar(Fraction(5 * 2 ** 60, 3)) and got.den == 3
        assert_canonical_storage(got)

    def test_a_zero_term_lifts_no_denominator(self):
        # a zero factor beside den 2^64 + 1: no int64 zero is scaled by it
        wide = one(Fraction(1, 2 ** 64 + 1))
        terms = [(ExactMatrix.zeros(1, 1), wide), (one(3), one(Fraction(1, 2)))]
        assert _product_sum(terms) == one(Fraction(3, 2))
        assert _product_sum(terms[:1], 2) == ExactMatrix.zeros(1, 1)

    @pytest.mark.parametrize("second, rung", [
        ((2 ** 30 - 1, 2 ** 30), np.int64),  # twice the total 2^62 - 2^31: int64
        ((2 ** 30, 2 ** 30), object),        # twice the total 2^62: Python ints
    ])
    def test_int64_bound_covers_the_whole_sum(self, monkeypatch, second, rung):
        used = _dot_dtypes(monkeypatch)
        a, b = second
        got = _product_sum([(one(2 ** 30), one(2 ** 30)), (one(a), one(b))])
        assert got.entry(0, 0) == ExactScalar(2 ** 60 + a * b)
        assert_canonical_storage(got)
        assert used == [np.dtype(rung)] * 2

    @pytest.mark.parametrize("value", [2 ** 31 - 1, 2 ** 31])
    def test_object_storage_of_the_sum(self, value):
        # each product fits int64 (below 2^62 at 2^31 - 1); their sum may not
        terms = [(one(value), one(value))] * 2
        got = _product_sum(terms)
        assert got.entry(0, 0) == ExactScalar(2 * value * value)
        assert_canonical_storage(got)
        assert (got.re.dtype == object) == (2 * value * value >= LIMIT)
        halved = _product_sum(terms, 2)
        assert halved.entry(0, 0) == ExactScalar(value * value)
        assert_canonical_storage(halved)
        assert _product_sum([(one(value), one(value)), (one(-value), one(value))]).is_zero()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_float_bound_just_below_and_above(self, monkeypatch, kind):
        used = _dot_dtypes(monkeypatch)
        b = TestFloatRung.B
        top = _largest_odd_below(b)
        for a, rung in ((top, np.float64), (top + 2, np.int64)):
            x, y = ExactScalar(a), ExactScalar(b)
            if kind == "complex":
                x, y = ExactScalar(a, a), ExactScalar(b, -b)
            left = _filled(RUNG_ROWS, INNER, x)
            right = _filled(INNER, RUNG_ROWS, y)
            # the second term's inner bound is the first's: the larger decides
            small = _filled(RUNG_ROWS, INNER, ExactScalar(1))
            want = _separate_sum([(small, right), (left, right)], 1)
            del used[:]
            got = _product_sum([(small, right), (left, right)])
            assert got == want
            assert_canonical_storage(got)
            # the real first term forms one dot per part of the second factor
            assert used == [np.dtype(rung)] * (2 if kind == "real" else 6)

    def test_int64_below_the_blas_gate(self, monkeypatch, rng):
        used = _dot_dtypes(monkeypatch)
        x, y, z = (random_exact(rng, 6, 6) for _ in range(3))
        assert x._mags()[1] and y._mags()[1] and z._mags()[1]
        want = _separate_sum([(x, y), (z, x)], 2)
        del used[:]
        assert _product_sum([(x, y), (z, x)], 2) == want
        assert used == [np.dtype(np.int64)] * 8
        del used[:]
        short = _filled(RUNG_ROWS - 1, INNER, ExactScalar(3))
        tall = _filled(INNER, RUNG_ROWS - 1, ExactScalar(-1))
        assert _product_sum([(short, tall), (short, tall)]) == \
            _filled(RUNG_ROWS - 1, RUNG_ROWS - 1, ExactScalar(-6 * INNER))
        assert used == [np.dtype(np.int64)] * 2

    def test_a_shared_operand_is_cast_once(self, monkeypatch):
        from jcgrid import numlin
        from jcgrid.hnk import build_hnk
        a, b = build_hnk(7, 4).basis[:2]  # 35 x 35, on the float64 rung
        left, right = a.gram(), a.adjoint().gram()
        want = (left * b + b * right).scale(EX_HALF)
        used = _dot_dtypes(monkeypatch)
        cast = []
        orig = numlin._cast

        def counted(arr, dtype, memo):
            if id(arr) not in memo:
                cast.append(id(arr))
            return orig(arr, dtype, memo)

        monkeypatch.setattr(numlin, "_cast", counted)
        # {a,a,b} = (a a* b + b a* a)/2 reads b in both terms
        assert triple_product(a, a, b) == want
        assert sorted(cast) == sorted([id(left.re), id(b.re), id(right.re)])
        assert used == [np.dtype(np.float64)] * 2

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionError, match="cannot multiply 2x3 by 2x3"):
            ExactMatrix.zeros(2, 3) * ExactMatrix.zeros(2, 3)
        with pytest.raises(DimensionError):
            _product_sum([(ExactMatrix.zeros(2, 2), ExactMatrix.zeros(2, 2)),
                          (ExactMatrix.zeros(1, 2), ExactMatrix.zeros(2, 2))])


def _grids_with_pairs():
    from test_grids import _corrupted_grids
    from jcgrid import grids
    from jcgrid.hnk import build_hnk
    clean = [grids.rectangular_grid(2, 3), grids.hermitian_grid(4), grids.symplectic_grid(5),
             grids.spin_grid(2, True), grids.spin_grid(3, False), build_hnk(4, 2).as_grid()]
    return clean + list(_corrupted_grids().values())


def _braces(a, b, c):
    """{a,b,c} from its definition: two separate products each side, one sum, one halving."""
    return (a * b.adjoint() * c + c * b.adjoint() * a).scale(EX_HALF)


def _relation_by_definition(v, w):
    """The grid relation with 2{w,w,v} and 2{v,v,w} formed as separate
    products and one sum each."""
    if v.mat == w.mat:
        return GridRelation.EQUAL
    if (v.mat.adjoint() * w.mat).is_zero() and (v.mat * w.mat.adjoint()).is_zero():
        return GridRelation.ORTHOGONAL
    wwv = w.mat * w.mat.adjoint() * v.mat + v.mat * w.mat.adjoint() * w.mat
    vvw = v.mat * v.mat.adjoint() * w.mat + w.mat * v.mat.adjoint() * v.mat
    two_v, two_w = v.mat.scale(2), w.mat.scale(2)
    if wwv == v.mat and vvw == w.mat:
        return GridRelation.COLINEAR
    if wwv == v.mat and vvw == two_w:
        return GridRelation.GOVERNS_FIRST_OVER_SECOND
    if vvw == w.mat and wwv == two_v:
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    return GridRelation.UNCLASSIFIED


def test_triple_products_and_relations_on_grid_pairs():
    """Every ordered pair of the clean and corrupted grids of test_grids:
    the kernel's triple products and Peirce sums against their definitions."""
    seen = set()
    for g in _grids_with_pairs():
        for v in g.isometries():
            for w in g.isometries():
                a, b = v.mat, w.mat
                # the a-is-b and b-is-c shortcuts, and the general a b* c + c b* a
                assert triple_product(a, a, b) == _braces(a, a, b)
                assert triple_product(a, b, b) == _braces(a, b, b)
                assert triple_product(a, b, a) == _braces(a, b, a)
                got = classify_relation(v, w)
                assert got is _relation_by_definition(v, w)
                seen.add(got)
    assert seen == set(GridRelation)
