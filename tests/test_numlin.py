"""Exact kernel: arithmetic, adjoints, Kronecker products, blocks, norms."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (exact_matrices, jacobi_eigenvalues, power_iteration_norm,
                      random_exact, square_exact, svd_norms)
from jcgrid.errors import DimensionError, NumericError
from jcgrid.numlin import (_BLAS_MIN_SIZE, EX_HALF, EX_I, EX_ZERO, ApproxMatrix, ExactFamily,
                           ExactMatrix, ExactScalar, block_diag, exact_rank,
                           operator_norm, scaled_members, singular_values,
                           trace_norm)
from jcgrid.numlin import _CHUNK_CELLS, _product_sum, _scaled_coefficients
from jcgrid.serialize import matrices_to_json, matrix_to_csv_lines
from jcgrid.triple import GridRelation, classify_relation, triple_product

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


class TestApprox:
    def test_lossless_from_exact(self):
        m = ExactMatrix.from_rows([[ExactScalar(Fraction(1, 2), Fraction(-3, 4))]])
        a = m.to_approx()
        assert a.array[0, 0] == 0.5 - 0.75j

    def test_immutable(self):
        a = ApproxMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            a.array[0, 0] = 1.0

    def test_stack_reads_the_last_two_axes(self):
        a = ApproxMatrix(np.zeros((5, 2, 3, 4)))
        assert repr(a) == "ApproxMatrix(3x4)"
        with pytest.raises(DimensionError):
            ApproxMatrix(np.zeros(4))


class TestExactLinearAlgebra:
    def test_rank(self):
        rows = [(ExactScalar(1), ExactScalar(2)), (ExactScalar(2), ExactScalar(4))]
        assert exact_rank(rows) == 1


LIMIT = 2 ** 62  # numerators at or above this are stored as Python ints


def one(value):
    """1x1 exact matrix."""
    return ExactMatrix.from_rows([[value]])


def fraction_rows(m):
    """The entries of m as rows of (re, im) pairs of Python rationals (int
    or Fraction), read once."""
    entries = m.entries
    return [[(s.re, s.im) for s in entries[i * m.cols:(i + 1) * m.cols]] for i in range(m.rows)]


def fraction_adjoint(x):
    """The conjugate transpose of rows of (re, im) pairs."""
    return [[(re, -im) for re, im in col] for col in zip(*x)]


def fraction_product(x, y):
    """x y on rows of (re, im) pairs, one Gaussian-rational term at a time:
    the Fraction reference.  A term with a zero factor adds nothing and is
    skipped."""
    cols = list(zip(*y))
    out = []
    for row in x:
        terms = [(k, re, im) for k, (re, im) in enumerate(row) if re or im]
        out.append([])
        for col in cols:
            sr = si = 0
            for k, ar, ai in terms:
                br, bi = col[k]
                if ai or bi:
                    sr, si = sr + ar * br - ai * bi, si + ar * bi + ai * br
                elif br:
                    sr += ar * br
            out[-1].append((sr, si))
    return out


def fraction_ternary(x, y, z):
    """(x y*) z on rows of (re, im) pairs."""
    return fraction_product(fraction_product(x, fraction_adjoint(y)), z)


def _scalar_rows(x):
    return [[ExactScalar(re, im) for re, im in row] for row in x]


def ref_product(a, b):
    """a b of exact matrices on their entries (``fraction_product``), as
    rows of ExactScalar."""
    return _scalar_rows(fraction_product(fraction_rows(a), fraction_rows(b)))


def as_rows(m):
    entries = m.entries
    return [list(entries[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


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
        products = ExactFamily([a, b]).ternary([0, 1], [1, 1], [0, 0])
        real = [a, b, a * b, a.gram(), a.adjoint(), b.adjoint().gram(), -a, a + b, a - b,
                a.scale(Fraction(2, 3)), a.scale(EX_I).scale(-EX_I), col.kron(row),
                ExactMatrix.zeros(3, 3), ExactMatrix.identity(3), E(3, 3, 0, 2),
                E(3, 3, 1, 1, Fraction(1, 3)),
                block_diag([ExactMatrix.identity(1), ExactMatrix.from_rows([[1, 2], [3, 4]])]),
                *ExactFamily(_stacks=[products]).members()]
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
            assert matrices_to_json([own]) == matrices_to_json([m])
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

    def test_lowest_terms_past_int64(self):
        # w w* = 1 for a rotation over c ~ 2^62: the gcd c^2 fits no int64, and
        # the real product's zero imaginary part is int64
        a, b = (1 << 31) + 1, 1 << 30
        p, q, c = a * a - b * b, 2 * a * b, a * a + b * b
        w = ExactMatrix.from_rows([[Fraction(p, c), Fraction(-q, c)], [Fraction(q, c), Fraction(p, c)]])
        assert w * w.adjoint() == ExactMatrix.identity(2)
        assert (w * w.scale(EX_I).adjoint()).scale(EX_I) == ExactMatrix.identity(2)

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
        back = block_diag([big.scale(Fraction(1, 2 ** 61)), one(1)])
        assert back.re.dtype == np.int64 and back == ExactMatrix.from_rows([[4, 0], [0, 1]])

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
    """Record the rung each family evaluation runs on: "gather", or the
    dtype of the dense stack."""
    used = []
    stack, gather = ExactFamily._stack, ExactFamily._gather_equal

    def spy(self, bound):
        fam = stack(self, bound)
        used.append(fam[0].dtype)
        return fam

    monkeypatch.setattr(ExactFamily, "_stack", spy)
    monkeypatch.setattr(ExactFamily, "_gather_equal",
                        lambda self, *a: used.append("gather") or gather(self, *a))
    return used


def _largest_below(k, power, limit=2 ** 53):
    """The largest a with k * a**power < limit."""
    a = int((limit / k) ** (1 / power)) + 2
    while k * a ** power >= limit:
        a -= 1
    return a


def ref_ternary(a, b, c):
    """(a b*) c of exact matrices on their entries (``fraction_ternary``),
    as rows of ExactScalar."""
    return _scalar_rows(fraction_ternary(*(fraction_rows(m) for m in (a, b, c))))


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


class TestFamilyGuard:
    """The batched kernel's float64 rung ends just below 2^53."""

    @pytest.mark.parametrize("sym", [False, True])
    def test_ternary_bound(self, monkeypatch, sym):
        # a 1x2 family [v, v], two nonzeros in one row, so not monomial:
        # a b* c = [2 v^3, 2 v^3], and |a b* c| <= 4 rows cols mag^3,
        # doubled for {a,b,c}
        used = _rungs(monkeypatch)
        top = _largest_below(16 if sym else 8, 3)
        for value, rung in ((top, np.float64), (top + 1, object)):
            fam = ExactFamily([ExactMatrix.from_rows([[value, value]])])
            re, im, den = fam.ternary([0], [0], [0], sym=sym)
            assert re.tolist() == [[[2 * value ** 3 * (2 if sym else 1)] * 2]]
            assert im is None and den == 1
            assert not fam.equal([0], [0], [0], sym=sym)[0]
            assert used[-2:] == [np.dtype(rung)] * 2

    def test_products_above_2_53_stay_exact(self, monkeypatch):
        used = _rungs(monkeypatch)
        value = ExactScalar(2 ** 18 + 1, -3)  # |a|^2 a is odd and above 2^54
        fam = ExactFamily([one(value), one(value * value.conjugate() * value)])
        assert ExactFamily(_stacks=[fam.ternary([0], [0], [0])]).members() == \
            [one(value * value.conjugate() * value)]
        assert fam.equal([0], [0], [0], scaled_members([1])).tolist() == [True]
        assert set(used) == {np.dtype(object)}

    def test_pair_bound(self, monkeypatch):
        # |a b*| <= 2 cols mag^2 and |a* b| <= 2 rows mag^2: a 2x1 and a 1x2
        # family, each [v, v] and 0, so not monomial
        used = _rungs(monkeypatch)
        top = _largest_below(2, 2)
        for value, rung in ((top, np.float64), (top + 1, object)):
            fam = ExactFamily([ExactMatrix.from_rows([[value], [value]]), ExactMatrix.zeros(2, 1)])
            assert fam.vanish([0, 0, 1], [0, 1, 0]).tolist() == [False, True, True]
            fam = ExactFamily([ExactMatrix.from_rows([[value, value]]), ExactMatrix.zeros(1, 2)])
            assert fam.vanish([0], [0], star_first=True).tolist() == [False]
            assert used[-2:] == [np.dtype(rung)] * 2

    def test_combination_bound(self, monkeypatch):
        # the want's side is bounded too: 2^60 + 1 rounds to 2^60 in float64
        used = _rungs(monkeypatch)
        fam = ExactFamily([one(1)])
        q = 2 ** 60
        assert fam.equal([0], [0], [0], scaled_members([0], q + 1, q)).tolist() == [False]
        assert fam.equal([0], [0], [0], scaled_members([0], q, q)).tolist() == [True]
        assert used == [np.dtype(object)] * 2
        # the coefficient times mag alone picks the dense rung: a 1x2
        # [1, 1], so not monomial, with a b* c = [2, 2] and a product bound of 8
        dense = ExactFamily([ExactMatrix.from_rows([[1, 1]])])
        for coef, rung in ((2 ** 53 - 1, np.float64), (2 ** 53, object)):
            used.clear()
            assert dense.equal([0], [0], [0], scaled_members([0], coef)).tolist() == [False]
            assert used == [np.dtype(rung)]

    @pytest.mark.parametrize("sym", [False, True])
    def test_coefficients_stay_int64_below_2_62(self, sym):
        # factor = den^2, doubled for {a,b,c}: at den 1 the last int64
        # coefficient is 2^62 / factor - 1
        factor = 2 if sym else 1
        edge = LIMIT // factor
        for coef, dtype in ((edge - 1, np.int64), (edge, object)):
            scaled = _scaled_coefficients(np.array([coef], dtype=np.int64), factor)
            assert scaled.dtype == dtype and scaled.tolist() == [coef * factor]
        # 1 / q times the member: equal only at coef == q
        fam = ExactFamily([one(1)])
        for coef in (edge - 1, edge):
            got = fam.equal([0], [0], [0], scaled_members([0], coef, edge), sym=sym)
            assert got.tolist() == [coef == edge]

    def test_coefficient_width_and_storage(self):
        # huge coefficients arrive as Python ints already
        assert scaled_members([0], LIMIT)[1].dtype == object
        assert scaled_members([0], LIMIT - 1)[1].dtype == np.int64
        assert scaled_members([], np.array([], dtype=int))[1].shape == (0,)
        # one coefficient per triple, one number broadcast to every triple
        kidx, kcoef, q = scaled_members([2, 0, 1], 3, 2)
        assert (kidx.tolist(), kcoef.tolist(), q) == ([2, 0, 1], [3, 3, 3], 2)
        # all-zero coefficients beside a factor past int64
        assert _scaled_coefficients(np.zeros(1, dtype=np.int64), 2 ** 70).dtype == object

    def test_members_must_share_a_shape(self):
        with pytest.raises(DimensionError):
            ExactFamily([E(2, 2, 0, 0), E(2, 3, 0, 0)])

    @pytest.mark.parametrize("mag,kcoef,top,dtype", [
        # sum_k |kcoef| mag = (2^31 + 1)(2^31 - 1), then 2^31 2^31, and an
        # entry of the sum reaches it
        (2 ** 31 - 1, [2 ** 31, -1], LIMIT - 1, np.int64),
        (2 ** 31, [2 ** 30, -2 ** 30], LIMIT, object)], ids=["below", "at"])
    def test_sums_bound(self, mag, kcoef, top, dtype):
        re = np.array([[[mag, 1], [-mag, 0]], [[-mag, mag], [1, 2]]], dtype=np.int64)
        im = np.array([[[0, -mag], [1, 0]], [[mag, 0], [0, -mag]]], dtype=np.int64)
        fam = ExactFamily(_stacks=[(re, im, 3)])
        assert (fam.mag, fam.den) == (mag, 3)
        sr, si, den = fam.sums([[0, 1]], [kcoef])
        assert sr.dtype == si.dtype == dtype and den == 3
        assert max(abs(int(x)) for x in sr.ravel()) == top
        for part, got in ((re, sr), (im, si)):
            for r, c in itertools.product(range(2), repeat=2):
                want = sum(Fraction(k * int(x[r, c]), 3) for k, x in zip(kcoef, part))
                assert Fraction(int(got[0, r, c]), den) == want


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
        assert ExactFamily(_stacks=[fam.ternary(ia, ib, ic)]).members() == ternary
        re, im, den = fam.ternary(ia, ib, ic, sym=True)
        im = np.zeros_like(re) if im is None else im
        assert [ExactMatrix(rows, cols, _arrays=(r, i, 2 * den))
                for r, i in zip(re, im)] == braces
        pa, pb = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        assert fam.vanish(pa, pb).tolist() == [
            (mats[a] * mats[b].adjoint()).is_zero() for a, b in zip(pa, pb)]
        assert fam.vanish(pa, pb, star_first=True).tolist() == [
            (mats[a].adjoint() * mats[b]).is_zero() for a, b in zip(pa, pb)]
        # the supports: members meet where they share a nonzero row (column),
        # and a* b (a b*) is zero where they do not
        nonzero = [[(t // cols, t % cols) for t, e in enumerate(m.entries) if e] for m in mats]
        for meet, side, star_first in zip(fam.meets(), (0, 1), (True, False)):
            lines = [{cell[side] for cell in cells} for cells in nonzero]
            assert meet.tolist() == [[bool(lines[a] & lines[b]) for b in range(n)]
                                     for a in range(n)]
            assert fam.vanish(pa, pb, star_first=star_first)[~meet[pa, pb]].all()
        # compared with scaled members: the products themselves, twice them,
        # or 3/3 times their second copy
        for sym, values in ((False, ternary), (True, braces)):
            ext = ExactFamily(mats + values + values)
            own = n + np.arange(len(values))
            assert ext.equal(ia, ib, ic, scaled_members(own), sym=sym).all()
            assert ext.equal(ia, ib, ic, scaled_members(own, 2), sym=sym).tolist() == \
                [v.is_zero() for v in values]
            assert ext.equal(ia, ib, ic, sym=sym).tolist() == [v.is_zero() for v in values]
            assert ext.equal(ia, ib, ic, scaled_members(own + len(values), 3, 3), sym=sym).all()

    def test_chunks_agree_with_one_chunk(self, monkeypatch):
        from jcgrid import grids, numlin
        mats = grids.spin_grid(2, True).matrices()
        mats += [mats[0].scale(Fraction(1, 3)), ExactMatrix.zeros(4, 4)]
        ia, ib, ic = _all_triples(len(mats))
        want = scaled_members(ic, 1, 2)

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
                assert all((x is None and y is None) or np.array_equal(x, y) for x, y in zip(a, b))
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
        assert ExactFamily(_stacks=[fam.ternary(ia, ib, ic)]).members() == [
            mats[a] * mats[b].adjoint() * mats[c] for a, b, c in zip(ia, ib, ic)]
        braces = [triple_product(mats[a], mats[b], mats[c]) for a, b, c in zip(ia, ib, ic)]
        ext = ExactFamily(mats + braces)
        assert ext.equal(ia, ib, ic, scaled_members(len(mats) + np.arange(len(braces))),
                         sym=True).all()


_SMALL_PARTS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def monomial_families(draw):
    """(rows, cols, members): at most one nonzero per row and column, with
    real or complex entries over denominators 1 to 3 from a few values, so
    that equal values in other places are common, and zero members among
    them; never 1x1, so that one full member makes the family dense."""
    rows, cols = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]))
    complex_ = draw(st.booleans())
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        perm = draw(st.permutations(range(max(rows, cols))))
        entries = [[0] * cols for _ in range(rows)]
        for r in range(rows):
            if perm[r] < cols and draw(st.booleans()):
                entries[r][perm[r]] = ExactScalar(draw(_SMALL_PARTS), draw(
                    _SMALL_PARTS | st.just(0)) if complex_ else 0)
        mats.append(ExactMatrix.from_rows(entries))
    return rows, cols, mats


# (side, sym, member value, coef, q, gathers): 1x1 families, where a b* c =
# {a,a,a} = value^3, against coef / q times the member.  The gather rung runs
# while q (4 or 8) mag^3 and the want's coefficient, |coef| den^2 (2 den^2 with
# sym), times mag stay below 2^62: each side at its last value below and at
# its first at or above, where the dense rung runs.
_M4, _M8 = _largest_below(4, 3, LIMIT), _largest_below(8, 3, LIMIT)
GATHER_EDGES = [
    ("mag", False, _M4, _M4 ** 2, 1, True), ("mag", False, _M4 + 1, (_M4 + 1) ** 2, 1, False),
    ("mag", True, _M8, _M8 ** 2, 1, True), ("mag", True, _M8 + 1, (_M8 + 1) ** 2, 1, False),
    ("q", False, 1, 2 ** 60 - 1, 2 ** 60 - 1, True), ("q", False, 1, 2 ** 60, 2 ** 60, False),
    ("q", True, 1, 2 ** 59 - 1, 2 ** 59 - 1, True), ("q", True, 1, 2 ** 59, 2 ** 59, False),
    ("coef", False, 1, 2 ** 62 - 1, 1, True), ("coef", False, 1, 2 ** 62, 1, False),
    ("coef", True, 1, 2 ** 61 - 1, 1, True), ("coef", True, 1, 2 ** 61, 1, False),
]


class TestGatherRung:
    """``equal`` and ``vanish`` on monomial families read index gathers, and
    agree with the dense rung and with Fraction arithmetic."""

    @settings(max_examples=30, deadline=None)
    @given(monomial_families(), st.data())
    def test_against_the_dense_rung_and_fractions(self, stack, data):
        rows, cols, mats = stack
        n = len(mats)
        ia, ib, ic = _all_triples(n)
        # the products a b* c are monomial too: as members they give wants
        # that hold, and with their columns rotated wants of the same values
        # in other columns
        products = [mats[a] * mats[b].adjoint() * mats[c] for a, b, c in zip(ia, ib, ic)]
        rotated = [ExactMatrix.from_rows([r[-1:] + r[:-1] for r in as_rows(p)]) for p in products]
        members = mats + products + rotated
        fam = ExactFamily(members)
        dense = ExactFamily(members + [ExactMatrix(rows, cols, [1] * (rows * cols))])
        t = len(ia)
        pick = data.draw(st.lists(st.integers(0, 2), min_size=t, max_size=t))
        other = data.draw(st.lists(st.integers(0, len(members) - 1), min_size=t, max_size=t))
        kidx = np.array([[n + s, n + t + s, k][p] for s, (p, k) in enumerate(zip(pick, other))])
        kcoef = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=t, max_size=t)))
        q = data.draw(st.integers(1, 3))
        abc = [ref_ternary(mats[a], mats[b], mats[c]) for a, b, c in zip(ia, ib, ic)]
        cba = [abc[c * n * n + b * n + a] for a, b, c in zip(ia, ib, ic)]
        with pytest.MonkeyPatch.context() as mp:
            used = _rungs(mp)
            for sym in (False, True):
                values = abc if not sym else [
                    [[(x + y) * EX_HALF for x, y in zip(r1, r2)] for r1, r2 in zip(p1, p2)]
                    for p1, p2 in zip(abc, cba)]
                zero = [all(not x for row in v for x in row) for v in values]
                wants = [[[x * Fraction(int(k), q) for x in row] for row in as_rows(members[m])]
                         for m, k in zip(kidx.tolist(), kcoef.tolist())]
                held = [v == w for v, w in zip(values, wants)]
                for want, expected in ((None, zero), ((kidx, kcoef, q), held)):
                    used.clear()
                    got = fam.equal(ia, ib, ic, want, sym=sym).tolist()
                    assert used == ["gather"]
                    assert got == dense.equal(ia, ib, ic, want, sym=sym).tolist() == expected
                    assert used[1:] == [np.dtype(np.float64)]
        pa, pb = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        for star_first in (False, True):
            products = [ref_product(mats[a].adjoint(), mats[b]) if star_first
                        else ref_product(mats[a], mats[b].adjoint()) for a, b in zip(pa, pb)]
            expected = [all(not x for row in p for x in row) for p in products]
            assert fam.vanish(pa, pb, star_first).tolist() == expected
            assert dense.vanish(pa, pb, star_first).tolist() == expected

    @pytest.mark.parametrize("side,sym,value,coef,q,gathers", GATHER_EDGES,
                             ids=[f"{e[0]}-{'sym' if e[1] else 'plain'}-{'below' if e[5] else 'at'}"
                                  for e in GATHER_EDGES])
    def test_bound(self, monkeypatch, side, sym, value, coef, q, gathers):
        used = _rungs(monkeypatch)
        fam = ExactFamily([one(value)])
        got = fam.equal([0], [0], [0], scaled_members([0], coef, q), sym=sym).tolist()
        assert got == [value ** 3 * q == coef * value] == [side != "coef"]
        assert used == (["gather"] if gathers else [np.dtype(object)])

    @pytest.mark.parametrize("rows,want,held", [
        # a b* c = S D = -D S = -c b* a: {a,b,c} = 0, its terms are not
        ([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]], None, [True, False]),
        # a b* c = e_12 and c b* a = e_33 - e_11: row 1 of {a,b,c} has two
        # entries, which no one-member want holds; 2 {a,b,c} = e_33 there
        # only if the entries of row 1 were summed into one column
        ([[[0, 0, -1], [0, 0, 0], [-1, 0, 0]], [[0, -1, 0], [0, 0, 0], [0, 0, -1]],
          [[0, 0, -1], [-1, 0, 0], [0, 1, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]],
         scaled_members([3], 1, 2), [False, False])], ids=["cancel", "two-columns"])
    def test_rows_of_two_entries(self, rows, want, held):
        mats = [ExactMatrix.from_rows(r) for r in rows]
        fam = ExactFamily(mats)
        dense = ExactFamily(mats + [ExactMatrix(*mats[0].shape, [1] * mats[0].rows ** 2)])
        assert fam._gathers() is not None and dense._gathers() is None
        for f in (fam, dense):
            assert [f.equal([0], [1], [2], want, sym=sym)[0] for sym in (True, False)] == held

    def test_chunks_agree_with_one_chunk(self, monkeypatch):
        from jcgrid import grids, numlin
        mats = grids.hermitian_grid(3).matrices()
        mats += [mats[1].scale(ExactScalar(0, Fraction(1, 3))), ExactMatrix.zeros(3, 3)]
        ia, ib, ic = _all_triples(len(mats))
        want = scaled_members(ic, 1, 2)

        def evaluate():
            fresh = ExactFamily(mats)
            assert fresh._gathers() is not None
            return [fresh.equal(ia, ib, ic, want, sym=sym) for sym in (False, True)] + \
                [fresh.equal(ia, ib, ic)]

        whole = evaluate()
        monkeypatch.setattr(numlin, "_CHUNK_CELLS", 1)
        split = evaluate()
        assert all(w.any() and not w.all() for w in whole[:2])
        for a, b in zip(whole, split):
            assert (a == b).all()


def _state(fam):
    """Everything an ExactFamily holds, as plain data."""
    return (fam.shape, fam.den, fam.mag, fam.re.dtype, fam.re.tolist(),
            None if fam.im is None else (fam.im.dtype, fam.im.tolist()))


# one member each: zero, den 1, den 2 and 3, complex, numerators from 2^62 up
STACK_MEMBERS = {
    "zero": ExactMatrix.zeros(2, 2),
    "integer": ExactMatrix.from_rows([[1, -2], [0, 3]]),
    "halves": ExactMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(-3, 2)]]),
    "thirds-complex": ExactMatrix.from_rows([[ExactScalar(Fraction(1, 3), 1), 0],
                                             [0, ExactScalar(0, Fraction(-2, 3))]]),
    "wide": ExactMatrix.from_rows([[LIMIT + 1, 0], [1, -LIMIT]]),
    "wide-over-5": ExactMatrix.from_rows([[Fraction(LIMIT, 5), 1], [0, 0]]),
}


class TestFamilyStacks:
    """``ExactFamily(_stacks=...)``: numerator stacks joined over the lcm of
    their denominators, against ``ExactFamily(mats)`` of the same members."""

    @pytest.mark.parametrize("names", [
        ("zero", "integer"), ("zero", "halves"), ("halves", "thirds-complex", "zero"),
        ("thirds-complex",), ("zero", "zero"), ("wide", "integer"), ("zero", "wide-over-5"),
        ("halves", "wide", "thirds-complex"), tuple(STACK_MEMBERS)], ids="+".join)
    def test_parts_join_as_the_members(self, names):
        mats = [STACK_MEMBERS[n] for n in names]
        whole = ExactFamily(mats)
        assert whole.members() == mats
        for cut in range(len(mats) + 1):
            parts = [ExactFamily(half).part() for half in (mats[:cut], mats[cut:]) if half]
            assert _state(ExactFamily(_stacks=parts)) == _state(whole)
        # a part of a family, in any order, is the family of those members
        order = list(range(len(mats)))[::-1]
        assert _state(ExactFamily(_stacks=[whole.part(order)])) == \
            _state(ExactFamily([mats[k] for k in order]))

    def test_storage(self):
        fam = ExactFamily([STACK_MEMBERS["halves"], STACK_MEMBERS["thirds-complex"]])
        assert (fam.den, fam.mag, fam.re.dtype, fam.im.dtype) == (6, 9, np.int64, np.int64)
        real = ExactFamily([STACK_MEMBERS["zero"], STACK_MEMBERS["halves"]])
        assert real.im is None and real.den == 2
        wide = ExactFamily([STACK_MEMBERS["wide"], STACK_MEMBERS["halves"]])
        assert wide.re.dtype == object and wide.mag == 2 * (LIMIT + 1) and wide.im is None
        # Python-int numerators that fit come back to int64; an all-zero
        # stack over any denominator is zero over 1
        small = ExactFamily(_stacks=[(np.array([[[4, 6]]], dtype=object), None, 10)])
        assert small.re.dtype == np.int64 and (small.den, small.re.tolist()) == (5, [[[2, 3]]])
        zero = ExactFamily(_stacks=[(np.zeros((2, 1, 1), dtype=np.int64),
                                     np.zeros((2, 1, 1), dtype=np.int64), 7 ** 30)])
        assert (zero.den, zero.mag, zero.im) == (1, 0, None)

    def test_member_tests_and_sums(self):
        mats = list(STACK_MEMBERS.values()) + [STACK_MEMBERS["halves"]]
        fam, n = ExactFamily(mats), len(mats)
        xs, zs = np.repeat(np.arange(n), n), np.tile(np.arange(n), n)
        assert fam.same(xs, zs).tolist() == [mats[x] == mats[z] for x, z in zip(xs, zs)]
        assert fam.nonzero(np.arange(n)).tolist() == [not m.is_zero() for m in mats]
        real = ExactFamily(mats[:3])
        assert real.im is None and real.same([0, 1], [1, 1]).tolist() == [False, True]
        kidx = [[0, 1, 2], [3, 3, 3], [4, 5, 1]]
        kcoef = [[2, -1, 0], [1, 1, -3], [-1, 7, 2]]
        got = ExactFamily(_stacks=[fam.sums(kidx, kcoef)]).members()
        assert got == [sum((mats[k].scale(c) for k, c in zip(ks, cs)), ExactMatrix.zeros(2, 2))
                       for ks, cs in zip(kidx, kcoef)]

    def test_same_holds_a_chunk_at_a_time(self):
        # 8 distinct complex 16 x 16 members, each 5 times: 1,600 pairs, whose
        # operands gathered whole would hold 409,600 cells per part
        rng = np.random.default_rng(7)
        base = rng.integers(-2, 3, size=(2, 8, 16, 16))
        fam = ExactFamily(_stacks=[(np.tile(base[0], (5, 1, 1)), np.tile(base[1], (5, 1, 1)), 1)])
        xs, zs = np.repeat(np.arange(40), 40), np.tile(np.arange(40), 40)
        tracemalloc.start()
        try:
            same = fam.same(xs, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same.tolist() == (xs % 8 == zs % 8).tolist()
        assert peak < 6 * _CHUNK_CELLS * fam.re.itemsize

    @settings(max_examples=25, deadline=None)
    @given(_stacks())
    def test_ternary_stack_is_the_products(self, stack):
        rows, cols, mats = stack
        fam = ExactFamily(mats)
        ia, ib, ic = _all_triples(len(mats))
        products = [mats[a] * mats[b].adjoint() * mats[c] for a, b, c in zip(ia, ib, ic)]
        got = ExactFamily(_stacks=[fam.ternary(ia, ib, ic), fam.part()])
        assert _state(got) == _state(ExactFamily(products + mats))
        assert got.members() == products + mats


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

    def test_a_shared_operand_is_cast_once(self, monkeypatch, rng):
        from jcgrid import numlin
        # dense 20 x 15 operands on the float64 rung: their Gram products
        # have columns of many nonzeros and keep no diagonal (this test read
        # two basis elements of H(7,4) while those Grams were dense too)
        a, b = (_real(random_exact(rng, 20, 15, density=0.8)) for _ in range(2))
        left, right = a.gram(), a.adjoint().gram()
        assert left._diag is None and right._diag is None
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

    def test_the_hnk_triple_forms_no_float_dot(self, monkeypatch):
        from jcgrid.hnk import build_hnk
        a, b = build_hnk(7, 4).basis[:2]  # 35 x 35 signed sums of matrix units
        left, right = a.gram(), a.adjoint().gram()
        assert left._diag is not None and right._diag is not None
        used = _dot_dtypes(monkeypatch)
        # {a,a,b} = b/2: the two terms are a row and a column scaling of b
        assert triple_product(a, a, b) == b.scale(EX_HALF)
        assert used == []

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionError, match="cannot multiply 2x3 by 2x3"):
            ExactMatrix.zeros(2, 3) * ExactMatrix.zeros(2, 3)
        with pytest.raises(DimensionError):
            _product_sum([(ExactMatrix.zeros(2, 2), ExactMatrix.zeros(2, 2)),
                          (ExactMatrix.zeros(1, 2), ExactMatrix.zeros(2, 2))])


# shapes r x c whose Gram products a a* and a* a, and the product of two
# r x r Grams, take at least _BLAS_MIN_SIZE multiplications
SCALING_SHAPES = [(13, 13), (13, 14), (14, 13)]
assert all(min(r * r * c, c * c * r, r ** 3) >= _BLAS_MIN_SIZE for r, c in SCALING_SHAPES)


@st.composite
def _one_per_column(draw, rows, cols, complex_, monomial):
    """At most one nonzero per column, with values over denominators 1 to
    3; with ``monomial`` also at most one per row."""
    if monomial:
        perm = draw(st.permutations(range(max(rows, cols))))
        at = [(r, perm[r]) for r in range(rows) if perm[r] < cols and draw(st.booleans())]
    else:
        at = [(r, c) for c, r in enumerate(draw(st.lists(
            st.integers(-1, rows - 1), min_size=cols, max_size=cols))) if r >= 0]
    entries = [[0] * cols for _ in range(rows)]
    for r, c in at:
        entries[r][c] = ExactScalar(draw(_SMALL_PARTS),
                                    draw(_SMALL_PARTS | st.just(0)) if complex_ else 0)
    return ExactMatrix.from_rows(entries)


def _dense_factor(rows, cols, complex_):
    """A seeded random matrix with denominators 1 to 3, or the zero matrix."""
    def make(seed, density):
        m = random_exact(np.random.default_rng(seed), rows, cols, density)
        return m if complex_ else _real(m)

    return st.builds(make, st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.3, 1.0]))


def _kept_diagonal(n, value):
    """The Gram product of value * I_n: a kept diagonal of |value|^2."""
    g = ExactMatrix.identity(n).scale(value).gram()
    assert g._diag is not None
    return g


class TestScalingRung:
    """Gram products of matrices with at most one nonzero per column are kept
    diagonals, and every product with one, at and above _BLAS_MIN_SIZE,
    scales rows or columns on int64: checked against Fraction arithmetic."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(SCALING_SHAPES), st.booleans(), st.data())
    def test_against_fractions(self, shape, complex_, data):
        rows, cols = shape
        draw = data.draw
        a = draw(_one_per_column(rows, cols, complex_, False))
        mono = draw(_one_per_column(rows, cols, complex_, True))
        b, e = (draw(_dense_factor(rows, cols, complex_)) for _ in range(2))
        q = draw(st.integers(1, 3))
        left, right = a.gram(), mono.adjoint().gram()
        ref_left = ref_product(a, a.adjoint())
        ref_right = ref_product(mono.adjoint(), mono)
        for got, ref in ((left, ref_left), (right, ref_right)):
            assert got._diag is not None
            assert as_rows(got) == ref
            assert_canonical_storage(got)
        with pytest.MonkeyPatch.context() as mp:
            used = _dot_dtypes(mp)
            # shaped like triple_product, (u u* b + e v* v) / q: a row and a
            # column scaling, over den(a)^2 den(b) and den(e) den(v)^2
            got = _product_sum([(left, b), (e, right)], q)
            ref = [[(x + y) / q for x, y in zip(r1, r2)] for r1, r2 in zip(
                ref_product(ExactMatrix.from_rows(ref_left), b),
                ref_product(e, ExactMatrix.from_rows(ref_right)))]
            assert as_rows(got) == ref
            assert_canonical_storage(got)
            # a term with one dense factor keeps no diagonal, diagonal or not
            assert got._diag is None and (left * b)._diag is None
            # diag x diag, one term or two, keeps its diagonal; a zero factor
            # leaves no term, and the zero matrix keeps none
            both = mono.gram()
            for terms in ([(left, both)], [(left, both), (both, left)]):
                got = _product_sum(terms, q)
                assert (got._diag is None) == (left.is_zero() or both.is_zero())
                assert (got.re == np.diag(np.diag(got.re))).all() and not got.im.any()
                ref = ref_product(left, both)
                if len(terms) == 2:
                    ref = [[x + y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(ref, ref_product(both, left))]
                assert as_rows(got) == [[x / q for x in row] for row in ref]
            assert used == []

    def test_a_column_of_two_nonzeros_keeps_no_diagonal(self, monkeypatch):
        n = SCALING_SHAPES[0][0]
        a = ExactMatrix.identity(n) + E(n, n, 1, 0, ExactScalar(Fraction(1, 2), -1))
        gram = a.gram()
        assert gram._diag is None
        assert as_rows(gram) == ref_product(a, a.adjoint())
        # u* u of the same matrix: one nonzero per column of a*
        assert a.adjoint().gram()._diag is None
        used = _dot_dtypes(monkeypatch)
        b = _filled(n, n, ExactScalar(1, 2))
        assert as_rows(gram * b) == ref_product(gram, b)
        assert used == [np.dtype(np.float64)] * 4

    def test_below_the_size_gate_no_diagonal_is_kept(self, monkeypatch):
        n = next(r for r in itertools.count(1) if (r + 1) ** 3 >= _BLAS_MIN_SIZE)
        gram = ExactMatrix.identity(n).gram()
        assert gram._diag is None and gram == ExactMatrix.identity(n)
        used = _dot_dtypes(monkeypatch)
        assert gram * gram == gram
        assert used == [np.dtype(np.int64)]

    @pytest.mark.parametrize("offset, kept", [(0, True), (1, False)], ids=["below", "at"])
    def test_gram_bound(self, monkeypatch, offset, kept):
        # 2 cols max|a|^2 < 2^62 keeps the diagonal; from the bound on, the
        # Gram is the product on Python ints
        n = SCALING_SHAPES[0][0]
        v = _largest_below(2 * n, 2, LIMIT) + offset
        a = ExactMatrix.identity(n) + E(n, n, 0, 0, v - 1)
        used = _dot_dtypes(monkeypatch)
        gram = a.gram()
        assert (gram._diag is not None) == kept
        assert used == ([] if kept else [np.dtype(object)])
        assert gram.entry(0, 0) == ExactScalar(v * v) and gram.entry(1, 1) == ExactScalar(1)
        assert gram == ExactMatrix.from_rows(ref_product(a, a.adjoint()))
        assert_canonical_storage(gram)

    @pytest.mark.parametrize("offset, rung", [(0, []), (1, [np.dtype(object)] * 2)],
                             ids=["below", "at"])
    def test_product_bound(self, monkeypatch, offset, rung):
        # one term: 2 * n * max|d| * max|y| < 2^62 scales on int64; from the
        # bound on, the term is a dot on Python ints
        n = SCALING_SHAPES[0][0]
        d = _kept_diagonal(n, 2)  # 4 I
        w = _largest_below(2 * n * 4, 1, LIMIT) + offset
        y = ExactMatrix(n, n, [ExactScalar(w, -w)] + [1] * (n * n - 1))
        used = _dot_dtypes(monkeypatch)
        for got, ref in ((d * y, ref_product(d, y)), (y * d, ref_product(y, d))):
            assert as_rows(got) == ref
            assert_canonical_storage(got)
        assert used == rung * 2

    def test_numerators_past_int64(self):
        # 4 * 2^61 = 2^63: Python ints hold both the dot and its result
        n = SCALING_SHAPES[0][0]
        d = _kept_diagonal(n, 2)
        y = E(n, n, 3, 3, 2 ** 61)
        got = d * y
        assert got.entry(3, 3) == ExactScalar(2 ** 63) and got.re.dtype == object
        assert got == y.scale(4)


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
    """The grid relation of the matrices v and w with 2{w,w,v} and 2{v,v,w}
    formed as separate products and one sum each."""
    if v == w:
        return GridRelation.EQUAL
    if (v.adjoint() * w).is_zero() and (v * w.adjoint()).is_zero():
        return GridRelation.ORTHOGONAL
    wwv = w * w.adjoint() * v + v * w.adjoint() * w
    vvw = v * v.adjoint() * w + w * v.adjoint() * v
    two_v, two_w = v.scale(2), w.scale(2)
    if wwv == v and vvw == w:
        return GridRelation.COLINEAR
    if wwv == v and vvw == two_w:
        return GridRelation.GOVERNS_FIRST_OVER_SECOND
    if vvw == w and wwv == two_v:
        return GridRelation.GOVERNS_SECOND_OVER_FIRST
    return GridRelation.UNCLASSIFIED


def test_triple_products_and_relations_on_grid_pairs():
    """Every ordered pair of the clean and corrupted grids of test_grids:
    the kernel's triple products and the batched relations against their
    definitions."""
    seen = set()
    for g in _grids_with_pairs():
        mats, n = g.matrices(), len(g)
        got = iter(classify_relation(g.family(), np.repeat(np.arange(n), n),
                                     np.tile(np.arange(n), n)))
        for a in mats:
            for b in mats:
                # the a-is-b and b-is-c shortcuts, and the general a b* c + c b* a
                assert triple_product(a, a, b) == _braces(a, a, b)
                assert triple_product(a, b, b) == _braces(a, b, b)
                assert triple_product(a, b, a) == _braces(a, b, a)
                rel = next(got)
                assert rel is _relation_by_definition(a, b)
                seen.add(rel)
    assert seen == set(GridRelation)
