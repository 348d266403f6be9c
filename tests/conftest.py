"""Shared strategies and independent numerical oracles."""

import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from jcgrid.numlin import ExactMatrix, ExactScalar

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env() -> dict:
    """The environment of a child ``python -m jcgrid``: this tree's ``src``
    first on PYTHONPATH, so that the child runs the package the tests import
    whether or not the caller set PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + os.pathsep + path if path else SRC}

_parts = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)

exact_scalars = st.builds(ExactScalar, _parts, _parts)


def exact_matrices(rows, cols):
    return st.lists(exact_scalars, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: ExactMatrix(rows, cols, e))


def square_exact(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: exact_matrices(n, n))


def random_exact(rng, rows, cols, density=0.5, halves=True):
    """Seeded random Gaussian-rational matrix (non-hypothesis paths)."""
    dens = [1, 2, 3] if halves else [1]
    entries = []
    for _ in range(rows * cols):
        if rng.random() < density:
            entries.append(ExactScalar(
                Fraction(int(rng.integers(-3, 4)), int(rng.choice(dens))),
                Fraction(int(rng.integers(-3, 4)), int(rng.choice(dens)))))
        else:
            entries.append(ExactScalar(0))
    return ExactMatrix(rows, cols, entries)


def svd_norms(a) -> tuple:
    """Oracle: (operator norm, trace norm) via numpy's full SVD."""
    arr = np.asarray(a, dtype=np.complex128)
    s = np.linalg.svd(arr, compute_uv=False)
    return float(s[0]) if s.size else 0.0, float(s.sum())


def power_iteration_norm(a, iters=5000) -> float:
    """Oracle: largest singular value by power iteration on the Gram matrix."""
    arr = np.asarray(a, dtype=np.complex128)
    h = arr @ arr.conj().T if arr.shape[0] <= arr.shape[1] else arr.conj().T @ arr
    n = h.shape[0]
    v = np.ones(n, dtype=np.complex128) + 0.1 * np.arange(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = h @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        w /= nw
        if abs(nw - lam) <= 1e-14 * max(1.0, nw):
            lam = nw
            break
        lam, v = nw, w
    return math.sqrt(lam)


def jacobi_eigenvalues(h) -> np.ndarray:
    """Oracle: eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Independent of LAPACK; Jacobi is the eigensolver of choice for accuracy
    (Demmel & Veselic, "Jacobi's method is more accurate than QR", SIAM J.
    Matrix Anal. Appl. 13, 1992).  Sweeps stop once the off-diagonal Frobenius mass drops
    below ``1e-14 * ||h||_F``.  Returns the eigenvalues sorted ascending.
    """
    a = np.array(h, dtype=np.complex128)
    n = a.shape[0]
    a = 0.5 * (a + a.conj().T)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(100):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-14 * scale:
            return np.sort(np.diag(a).real)
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r == 0.0:
                    continue
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * a[p, q] / r
                # rotate columns p, q then rows p, q: a <- g* a g
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - np.conj(s) * aq
                a[:, q] = s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = np.conj(s) * ap + c * aq
                a[p, q] = a[q, p] = 0.0
    raise AssertionError("Jacobi oracle did not converge in 100 sweeps")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
