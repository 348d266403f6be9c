"""Fixed reference kernels that measure how fast the host runs Python right now.

On a shared host the same code runs up to about 1.8x slower for stretches
of seconds to minutes, with CPU time equal to wall time, so a run's raw
times depend on when it ran.  Each benchmark run therefore also times one of
these kernels between its commands and divides each command's time by the
mean of the kernel times just before and after it; the median ratio times
REF_S is the command's time in seconds at the reference speed.

The kernels are frozen copies of the kinds of work the workloads do, so
that they slow down with them and never change with the program under test:

* ``exact``: a zero-skipping dense product of Gaussian-rational matrices
  held as (re, im) pairs of ints and Fractions (the exact layer's arithmetic);
* ``write``: a shorter such product plus the lossless JSON of a sparse exact
  matrix (construction and serialization);
* ``eigen``: cyclic complex Jacobi sweeps on small Hermitian matrices (the
  float layer's eigenvalue loop).
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

# Duration of each kernel in the host's fast state (low percentile of a few
# hundred runs on an x86_64 2-vCPU VM, Python 3.11.7): the scale of the
# reported seconds, so that they read as seconds on that host when it is quiet.
REF_S = {"exact": 0.0085, "eigen": 0.0058, "write": 0.0088}


def _exact_operands(n=8):
    def entry(i, j, salt):
        v = (i * 7 + j * 3 + salt) % 9 - 4
        if v == 0 or (i + j) % 3 == 0:
            return None
        re = Fraction(v, 2) if (i + salt) % 4 == 0 else v
        im = (j - i) % 3 - 1
        return (re, im)
    a = [[entry(i, j, 1) for j in range(n)] for i in range(n)]
    b = [[entry(i, j, 5) for j in range(n)] for i in range(n)]
    return a, b


def _norm(x):
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def exact_kernel(a, b, reps=4):
    n = len(a)
    for _ in range(reps):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                av = a[i][k]
                if av is None:
                    continue
                ar, ai = av
                for j in range(n):
                    bv = b[k][j]
                    if bv is None:
                        continue
                    br, bi = bv
                    re, im = _norm(ar * br - ai * bi), _norm(ar * bi + ai * br)
                    cur = out[i][j]
                    if cur is not None:
                        re, im = _norm(cur[0] + re), _norm(cur[1] + im)
                    out[i][j] = (re, im)
        a = [[v if v is None or v[0] or v[1] else None for v in row] for row in out]
    return a


def _eigen_operands(sizes=(6, 10, 14)):
    mats = []
    for n in sizes:
        h = [[complex((i * 7 + j * 3) % 5 - 2, (i - j) % 3 - 1) for j in range(n)]
             for i in range(n)]
        for i in range(n):
            h[i][i] = complex(h[i][i].real + n, 0.0)
            for j in range(i):
                h[i][j] = h[j][i].conjugate()
        mats.append(h)
    return mats


def eigen_kernel(mats, sweeps=4):
    out = []
    for h in mats:
        a = [row[:] for row in h]
        n = len(a)
        for _ in range(sweeps):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p][q]
                    r = abs(apq)
                    if r <= 1e-300:
                        continue
                    tau = (a[q][q].real - a[p][p].real) / (2.0 * r)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    ph = apq / r
                    phc = ph.conjugate()
                    for k in range(n):
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = c * akp - s * phc * akq
                        a[k][q] = s * ph * akp + c * akq
                    for k in range(n):
                        apk, aqk = a[p][k], a[q][k]
                        a[p][k] = c * apk - s * ph * aqk
                        a[q][k] = s * phc * apk + c * aqk
        out.append(sorted(a[i][i].real for i in range(n)))
    return out


def _write_operands(rows=24, cols=16):
    return [[(Fraction(i - j, 3) if (i * cols + j) % 7 == 0 else 0, 0)
             for j in range(cols)] for i in range(rows)]


def write_kernel(entries):
    """Lossless JSON of an exact matrix, as the serializer writes it."""
    payload = {"entries": [[{"re": {"num": str(Fraction(re).numerator),
                                    "den": str(Fraction(re).denominator)},
                             "im": {"num": str(Fraction(im).numerator),
                                    "den": str(Fraction(im).denominator)}}
                            for re, im in row] for row in entries]}
    return len(json.dumps(payload, indent=2, sort_keys=True))


class Reference:
    """One reference kernel with its fixed operands; ``time()`` runs it once."""

    def __init__(self, kind):
        self.kind = kind
        self.scale_s = REF_S[kind]
        if kind == "exact":
            operands = _exact_operands()
            self._run = lambda: exact_kernel(*operands)
        elif kind == "write":
            operands, entries = _exact_operands(), _write_operands()
            self._run = lambda: (exact_kernel(*operands, reps=2), write_kernel(entries))
        else:
            operands = _eigen_operands()
            self._run = lambda: eigen_kernel(operands)

    def time(self):
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start
