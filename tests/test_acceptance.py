"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from conftest import cli_env
from jcgrid import opspace
from jcgrid.grids import (conjugate_grid, hermitian_grid,
                          hermitian_to_matrix_units, random_signed_permutation,
                          rectangular_grid, spin_grid, spin_system,
                          spin_to_spin_system, symplectic_grid,
                          symplectic_to_matrix_units, verify_grid)
from jcgrid.hnk import (build_hnk, diag_hnk, diag_rect, grid_support_split,
                        hnk_projection, hnk_projection_exact, indices,
                        ones_triple_coherence, peirce_split,
                        split_cross_orthogonal, ternary_matrix_unit_image,
                        trace_formula_check, verify_uIJ_grid)
from jcgrid.numlin import EX_HALF, ExactMatrix, operator_norm
from jcgrid.serialize import hnk_basis_from_json
from jcgrid.triple import isotope_product, triple_product

from test_hnk import EXAMPLE_N3K2, EXAMPLE_N4K3


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "jcgrid", *args],
                          capture_output=True, text=True, env=cli_env())


def report(num, ok, elapsed, desc):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} ({elapsed:6.2f}s)  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_example_one_reproduction():
    t0 = time.perf_counter()
    res = run_cli("construct", "hnk", "--n", "3", "--k", "2", "--format", "json")
    elapsed = time.perf_counter() - t0
    got = hnk_basis_from_json(json.loads(res.stdout))
    want = [ExactMatrix.from_rows(rows) for rows in EXAMPLE_N3K2]
    ok = res.returncode == 0 and got == want and elapsed < 1.0
    report(1, ok, elapsed, "construct hnk --n 3 --k 2 emits the published "
                           "3x3 matrices exactly, in under 1 s")


def test_criterion_02_example_two_reproduction():
    t0 = time.perf_counter()
    res = run_cli("construct", "hnk", "--n", "4", "--k", "3", "--format", "json")
    elapsed = time.perf_counter() - t0
    got = hnk_basis_from_json(json.loads(res.stdout))
    want = [ExactMatrix.from_rows(rows) for rows in EXAMPLE_N4K3]
    ok = res.returncode == 0 and got == want and elapsed < 1.0
    report(2, ok, elapsed, "construct hnk --n 4 --k 3 emits the published "
                           "4x6 matrices exactly, in under 1 s")


def test_criterion_03_cb_witness():
    t0 = time.perf_counter()
    res = run_cli("witness", "--n", "3", "--k", "2")
    ok = res.returncode == 0
    ok &= "norm=1.41421356" in res.stdout and "norm=1.73205081" in res.stdout
    rep = opspace.cb_separation_report(3, 2)
    ok &= abs(rep.row_witness_norm - math.sqrt(2)) <= 1e-9
    ok &= abs(rep.row_image_norm - math.sqrt(3)) <= 1e-9
    for n in range(1, 7):
        for k in range(1, n + 1):
            r = opspace.cb_separation_report(n, k)
            ok &= abs(r.row_witness_norm - math.sqrt(k)) <= 1e-9
            ok &= abs(r.col_witness_norm - math.sqrt(n - k + 1)) <= 1e-9
            ok &= r.sum_left_supports_is_k_identity
            ok &= r.sum_right_supports_is_other_identity
    report(3, ok, time.perf_counter() - t0,
           "witness norms sqrt(2)/sqrt(3) and generalized sqrt(k)/sqrt(n-k+1) "
           "for all n <= 6, with exact support-sum identities")


def test_criterion_04_grid_axioms():
    t0 = time.perf_counter()
    ok = True
    for p in range(1, 5):
        for q in range(1, 5):
            ok &= verify_grid(rectangular_grid(p, q)).passed
    for m in range(2, 7):
        ok &= verify_grid(hermitian_grid(m)).passed
    for m in range(4, 7):
        ok &= verify_grid(symplectic_grid(m)).passed
    for r in (2, 3, 4):
        for odd in (False, True):
            ok &= verify_grid(spin_grid(r, odd)).passed
    for n in range(1, 7):
        for k in range(1, n + 1):
            space = build_hnk(n, k)
            real = space.realization()
            ok &= verify_grid(space.as_grid()).passed
            ok &= indices(real) == (k, n - k + 1)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    ua, ub = real.matrix(a), real.matrix(b)
                    if a != b:
                        ok &= triple_product(ua, ua, ub) == ub.scale(EX_HALF)
                        ok &= triple_product(ua, ub, ua).is_zero()
                    for c in range(1, n + 1):
                        if len({a, b, c}) == 3:
                            ok &= triple_product(ua, ub, real.matrix(c)).is_zero()
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, ok, elapsed,
           "grid axioms pass with zero residual on rectangular (<=4x4), "
           "hermitian (m<=6), symplectic (m<=6), spin (r<=4, both parities) "
           "and all signed-combination bases n<=6, in under 60 s")


def test_criterion_05_word_calculus():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        for k in range(1, n + 1):
            space = build_hnk(n, k)
            real = space.realization()
            rep = verify_uIJ_grid(real, space)
            ok &= rep.passed
            checked, failures = ones_triple_coherence(real)
            ok &= failures == 0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(5, ok, elapsed,
           "for all n <= 5: the signed (I,J) family passes minimality/"
           "orthogonality/colinearity/quadrangle checks, the sum "
           "decomposition and decomposition into ones hold exactly, and "
           "sign * word = ambient unit, in under 120 s")


def test_criterion_06_matrix_unit_transforms():
    t0 = time.perf_counter()
    ok = True
    import random as _random
    for m in (5, 6):
        for build, to_units in ((hermitian_grid, hermitian_to_matrix_units),
                                (symplectic_grid, symplectic_to_matrix_units)):
            g = build(m)
            fam = to_units(g)  # raises on any violated relation
            ok &= all(fam.unit(i, j) == ExactMatrix.unit(m, m, i - 1, j - 1)
                      for i in range(1, m + 1) for j in range(1, m + 1))
            rng = _random.Random(20 * m)
            for _ in range(20):
                left = random_signed_permutation(m, rng)
                right = random_signed_permutation(m, rng)
                fam2 = to_units(conjugate_grid(g, left, right))
                ok &= all(
                    fam2.unit(i, j) == left * ExactMatrix.unit(m, m, i - 1, j - 1) * right
                    for i in range(1, m + 1) for j in range(1, m + 1))
    report(6, ok, time.perf_counter() - t0,
           "hermitian and symplectic transforms (m = 5, 6) return exact "
           "canonical units and are natural under 20 seeded signed-"
           "permutation conjugations each")


def test_criterion_07_spin():
    t0 = time.perf_counter()
    ok = True
    for k in range(2, 9):
        s = spin_system(k)
        n = s[0].rows
        two = ExactMatrix.identity(n).scale(2)
        zero = ExactMatrix.zeros(n, n)
        for i, a in enumerate(s):
            ok &= a.adjoint() == a
            for j, b in enumerate(s):
                ok &= (a * b + b * a) == (two if i == j else zero)
    for r in (2, 3, 4):
        for odd in (False, True):
            g = spin_grid(r, odd)
            v, system = spin_to_spin_system(g)  # validates every identity
            two_v = v.mat.scale(2)
            zero = ExactMatrix.zeros(*v.shape)
            for i, x in enumerate(system):
                for j, y in enumerate(system):
                    anti = isotope_product(v, x, y) + isotope_product(v, y, x)
                    ok &= anti == (two_v if i == j else zero)
    report(7, ok, time.perf_counter() - t0,
           "spin systems up to k = 8 anticommute exactly; spin grids r <= 4 "
           "convert to spin systems satisfying every isotope identity exactly")


def test_criterion_08_projection():
    t0 = time.perf_counter()
    ok = True
    worst_idem = 0.0
    worst_ratio = 0.0
    for n in range(1, 7):
        for k in range(1, n + 1):
            space = build_hnk(n, k)
            for b in space.basis:
                ok &= hnk_projection_exact(space, b) == b
            rows, cols = space.shape
            rng = np.random.default_rng(1000 * n + k)
            for _ in range(1000):
                x = rng.standard_normal((rows, cols)) \
                    + 1j * rng.standard_normal((rows, cols))
                px = hnk_projection(space, x).array
                ppx = hnk_projection(space, px).array
                denom = max(1.0, float(np.abs(px).max()))
                worst_idem = max(worst_idem, float(np.abs(ppx - px).max()) / denom)
                nx = operator_norm(x)
                npx = operator_norm(px)
                if nx > 1e-12:
                    worst_ratio = max(worst_ratio, npx / nx)
    ok &= worst_idem <= 1e-12
    ok &= worst_ratio <= 1.0 + 1e-9
    tr = trace_formula_check(build_hnk(5, 3), [1, -2, 0, 1, 3])
    ok &= tr.residual <= 1e-9 and tr.exact_verified
    ok &= abs(tr.sqrt_multiplicity_value - tr.rhs / math.sqrt(tr.multiplicity)) <= 1e-9
    res = run_cli("verify", "trace", "--n", "4", "--k", "2")
    ok &= res.returncode == 0 and "alternative_sqrt_normalization" in res.stdout
    report(8, ok, time.perf_counter() - t0,
           f"projection idempotent (worst {worst_idem:.2e} <= 1e-12), fixes "
           f"bases exactly, contractive over 21000 seeded samples (worst "
           f"ratio-1 {worst_ratio - 1:.2e} <= 1e-9); trace report carries "
           f"both normalizations with the literal one flagged")


def test_criterion_09_splittings():
    t0 = time.perf_counter()
    ok = True
    for n, ks in ((3, [2, 1]), (4, [3, 1])):
        real = diag_hnk(n, ks)
        p_part, q_part, p = peirce_split(real)
        ok &= verify_grid(p_part.as_grid()).passed
        ok &= q_part.n == n and verify_grid(q_part.as_grid()).passed
        ok &= indices(p_part)[0] > indices(q_part)[0]
        ok &= split_cross_orthogonal(real, p)
    for p_, q_ in ((2, 2), (3, 2)):
        g = diag_rect(p_, q_)
        ok &= verify_grid(g).passed
        p_grid, q_grid, _ = grid_support_split(g)
        ok &= verify_grid(p_grid).passed
        ok &= q_grid is not None and verify_grid(q_grid).passed
        ok &= ternary_matrix_unit_image(p_grid)
    report(9, ok, time.perf_counter() - t0,
           "peirce splits of the diagonal joins give two verified rank-1 "
           "grids with strictly decreasing support index and exact cross-"
           "orthogonality; the transpose-pair grids split onto exact matrix "
           "units")


def test_criterion_10_scope():
    t0 = time.perf_counter()
    # the infinite-dimensional and abstract classification content has no
    # finite realization; criteria 1-9 are its finite shadows and constitute
    # the whole property-based acceptance surface of this package
    covered = {1, 2, 3, 4, 5, 6, 7, 8, 9}
    ok = covered == set(range(1, 10))
    report(10, ok, time.perf_counter() - t0,
           "finite shadows only: criteria 1-9 form the acceptance suite; no "
           "infinite-dimensional claim is tested")
