"""Level norms and the separation witnesses."""

import math

import numpy as np
import pytest

from jcgrid.hnk import build_hnk
from jcgrid.numlin import ExactMatrix, ExactScalar
from jcgrid.opspace import (AmplifiedElement, cb_separation_report, col_witness,
                            level_norm, row_witness, support_sum_identities)


def _one_hot(n, i):
    return tuple(ExactScalar(1 if j == i else 0) for j in range(n))


class TestLevelNorm:
    def test_single_basis_vector(self):
        sp = build_hnk(4, 2)
        elem = AmplifiedElement(1, 1, ((_one_hot(4, 0),),))
        assert level_norm(list(sp.basis), elem) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_repetition(self):
        sp = build_hnk(3, 2)
        n = 3
        coeffs = tuple(tuple(_one_hot(n, 0) if r == c else
                             tuple(ExactScalar(0) for _ in range(n))
                             for c in range(2)) for r in range(2))
        elem = AmplifiedElement(2, 2, coeffs)
        assert level_norm(list(sp.basis), elem) == pytest.approx(1.0, abs=1e-12)

    def test_materialized_witness_matches_published(self):
        # the published 3x9 witness block row composes (-u_3, u_2, u_1); its
        # entries are 0 and +-1, so the float block is exact
        sp = build_hnk(3, 2)
        minus_u3 = tuple(ExactScalar(-1 if j == 2 else 0) for j in range(3))
        elem = AmplifiedElement(1, 3, ((minus_u3, _one_hot(3, 1), _one_hot(3, 0)),))
        want = ExactMatrix.from_rows([
            [0, -1, 0, 0, 0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0, 0, -1, 0]])
        assert np.array_equal(elem.materialize(list(sp.basis)), want.to_approx().array)

    def test_block_row_value(self):
        sp = build_hnk(3, 2)
        assert level_norm(list(sp.basis), row_witness(sp)) \
            == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_cross_norm_block_diag(self):
        sp = build_hnk(3, 2)
        n = 3
        zero = tuple(ExactScalar(0) for _ in range(n))
        coeffs = ((_one_hot(n, 0), zero),
                  (zero, tuple(ExactScalar(2 if j == 1 else 0) for j in range(n))))
        elem = AmplifiedElement(2, 2, coeffs)
        assert level_norm(list(sp.basis), elem) == pytest.approx(2.0, abs=1e-10)

    def test_block_row_norm_squared_is_support_sum_norm(self, rng):
        from jcgrid.numlin import operator_norm
        sp = build_hnk(4, 2)
        xs = []
        coeff_row = []
        for _ in range(3):
            vec = tuple(ExactScalar(int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                        for _ in range(4))
            coeff_row.append(vec)
            x = None
            for a, b in zip(vec, sp.basis):
                term = b.scale(a)
                x = term if x is None else x + term
            xs.append(x)
        elem = AmplifiedElement(1, 3, (tuple(coeff_row),))
        row_norm = level_norm(list(sp.basis), elem)
        gram = None
        for x in xs:
            t = x * x.adjoint()
            gram = t if gram is None else gram + t
        assert row_norm ** 2 == pytest.approx(operator_norm(gram), abs=1e-9)


class TestWitnesses:
    def test_row_witness_values(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                sp = build_hnk(n, k)
                assert level_norm(list(sp.basis), row_witness(sp)) \
                    == pytest.approx(math.sqrt(k), abs=1e-9)
                assert level_norm(list(sp.basis), col_witness(sp)) \
                    == pytest.approx(math.sqrt(n - k + 1), abs=1e-9)

    def test_row_space_case_matches_row_norm(self):
        sp = build_hnk(4, 4)
        assert level_norm(list(sp.basis), row_witness(sp)) \
            == pytest.approx(2.0, abs=1e-10)

    def test_support_sum_identities_exact(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert support_sum_identities(build_hnk(n, k)) == (True, True)


class TestSeparationReport:
    def test_3_2(self):
        rep = cb_separation_report(3, 2)
        assert rep.row_witness_norm == pytest.approx(math.sqrt(2), abs=1e-9)
        assert rep.row_image_norm == pytest.approx(math.sqrt(3), abs=1e-9)
        assert rep.ratio_vs_row_space == pytest.approx(math.sqrt(1.5), abs=1e-9)
        assert rep.ratio_vs_col_space == pytest.approx(math.sqrt(1.5), abs=1e-9)
        assert rep.sum_left_supports_is_k_identity
        assert rep.sum_right_supports_is_other_identity
        assert not rep.degenerate

    def test_4_3(self):
        rep = cb_separation_report(4, 3)
        assert rep.ratio_vs_row_space == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-9)

    def test_degenerate_column_case(self):
        rep = cb_separation_report(4, 1)
        assert rep.ratio_vs_col_space == pytest.approx(1.0, abs=1e-9)
        assert "column space" in rep.degenerate

    def test_degenerate_row_case(self):
        rep = cb_separation_report(2, 2)
        assert rep.ratio_vs_row_space == pytest.approx(1.0, abs=1e-9)
        assert "row space" in rep.degenerate
