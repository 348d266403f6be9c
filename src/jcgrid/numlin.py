"""Exact and floating dense-matrix kernel.

``ExactScalar`` is a Gaussian rational a + b*i with ``int``/``Fraction`` parts,
so all algebraic identities can be checked with zero residual.  ``ExactMatrix``
is an immutable matrix of Gaussian rationals held as two integer numerator
arrays over one common denominator, (re + i*im) / den; its algebra is numpy
integer array arithmetic, on int64 while a bound on the result stays below
2^62 and on Python ints otherwise.  One kernel forms every exact product, or
sum of two products over one denominator, as one matrix, on one of three
rungs: float64 on BLAS when every partial sum of a dot is an integer below
2^53 and the products are large enough to pay for the casts, int64 below
2^62, Python ints above.  ``ApproxMatrix`` wraps a complex128 array
and carries the spectral computations (operator norm, trace norm) through
LAPACK's Hermitian eigensolver on the smaller Gram matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError


def _part(x):
    """Normalize a rational part: plain int when integral, Fraction otherwise.

    Integer-valued parts stay ints so the common all-integer arithmetic skips
    Fraction's gcd normalization; mixed int/Fraction arithmetic is exact.
    """
    t = type(x)
    if t is int:
        return x
    if t is Fraction:
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    return _part(Fraction(x))


class ExactScalar:
    """Gaussian rational re + im*i; immutable, always in lowest terms."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    @classmethod
    def coerce(cls, value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        if isinstance(value, tuple) and len(value) == 2:
            return cls(value[0], value[1])
        raise TypeError(f"cannot coerce {value!r} to ExactScalar")

    def __add__(self, other):
        other = ExactScalar.coerce(other)
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactScalar.coerce(other)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ExactScalar.coerce(other) - self

    def __mul__(self, other):
        other = ExactScalar.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return ExactScalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactScalar.coerce(other)
        den = Fraction(other.re) * other.re + Fraction(other.im) * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero ExactScalar")
        a, b, c, d = self.re, self.im, other.re, -other.im
        return ExactScalar((a * c - b * d) / den, (a * d + b * c) / den)

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.re, -self.im)

    def abs2(self):
        """|z|^2, exact (int or Fraction)."""
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, tuple)):
            other = ExactScalar.coerce(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{istr}"

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"


EX_ZERO = ExactScalar(0)
EX_ONE = ExactScalar(1)
EX_MINUS_ONE = ExactScalar(-1)
EX_I = ExactScalar(0, 1)
EX_HALF = ExactScalar(Fraction(1, 2))


# Numerators are stored as int64 while every one of them is below this bound;
# an operation whose result could reach it runs on Python ints (dtype=object).
_INT64_LIMIT = 1 << 62
# Integers below this convert to float64 without rounding.
_FLOAT_EXACT = 1 << 53
# Fewest scalar multiplications (rows * cols * other.cols) for which an exact
# product runs in float64 on BLAS: numpy's int64 matmul does not use BLAS, but
# the casts to float64 and back cost more than it saves on small products.
# Measured with one BLAS thread (Python 3.11, numpy 2.4, x86_64, 2 cores), in
# microseconds per real product (int64 np.dot vs float64 with both casts):
#   6x6x6 1.3 vs 2.5, 10x10x10 2.3 vs 2.5, 12x12x12 2.6 vs 2.9,
#   15x10x15 3.3 vs 3.2, 14x14x14 3.9 vs 3.2, 20x15x20 6.8 vs 5.0,
#   56x28x56 90 vs 12, 64x64x64 237 vs 24.
_BLAS_MIN_SIZE = 2000
_OBJECT = np.dtype(object)
# shape -> the read-only int64 zero array that is the imaginary part of every
# real int64 matrix of that shape
_ZERO_IMS = {}


def _zero_im(shape) -> np.ndarray:
    z = _ZERO_IMS.get(shape)
    if z is None:
        z = _ZERO_IMS[shape] = np.zeros(shape, dtype=np.int64)
        z.flags.writeable = False
    return z


def _is_zero_im(im: np.ndarray) -> bool:
    return im is _ZERO_IMS.get(im.shape)


def _scalar_parts(s: ExactScalar):
    """(re numerator, im numerator, common denominator) of a Gaussian rational."""
    re, im = s.re, s.im  # int or Fraction: both have numerator and denominator
    q = math.lcm(re.denominator, im.denominator)
    return re.numerator * (q // re.denominator), im.numerator * (q // im.denominator), q


def _abs_max(a: np.ndarray) -> int:
    return int(np.abs(a).max())


def _gcd_all(a: np.ndarray) -> int:
    return int(np.gcd.reduce(a.ravel()))


def _canonical(re: np.ndarray, im: np.ndarray, den: int):
    """Lowest terms (gcd(den, numerators) == 1, den == 1 for zero) and int64
    storage whenever every numerator is below ``_INT64_LIMIT``."""
    if den != 1:
        g = math.gcd(den, _gcd_all(re))
        if g != 1:
            g = math.gcd(g, _gcd_all(im))
        if g == den and not (re.any() or im.any()):
            den = 1  # zero: den may not fit the int64 numerators it would divide
        elif g != 1:
            re, im, den = re // g, im // g, den // g
    if re.dtype is _OBJECT or im.dtype is _OBJECT:
        if max(_abs_max(re), _abs_max(im)) < _INT64_LIMIT:
            re, im = re.astype(np.int64), im.astype(np.int64)
        else:
            re, im = re.astype(object), im.astype(object)
    return re, im, den


def _as_numerators(parts, den: int, shape) -> np.ndarray:
    """Exact parts (int or Fraction) times ``den`` as an integer array."""
    if den != 1:
        parts = [x.numerator * (den // x.denominator) for x in parts]
    big = max(map(abs, parts)) >= _INT64_LIMIT
    return np.array(parts, dtype=object if big else np.int64).reshape(shape)


def _times(x: np.ndarray, f: int) -> np.ndarray:
    return x if f == 1 else x * f


def _float_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.dot of integer-valued float64 arrays, back on int64: exact in any
    summation order while every partial sum is an integer below 2^53."""
    return np.dot(x, y).astype(np.int64)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    (xr, xc), (yr, yc) = x.shape, y.shape
    return (x[:, None, :, None] * y[None, :, None, :]).reshape(xr * yr, xc * yc)


class ExactMatrix:
    """Immutable dense rectangular matrix over Gaussian rationals.

    Stored as ``(re + i*im) / den``: ``re`` and ``im`` are read-only integer
    numerator arrays of shape rows x cols and ``den`` is a positive int, kept
    in lowest terms (``den == 1`` for the zero matrix).  Numerators are int64
    while all of them are below 2^62; every product, sum, scale and Kronecker
    product first bounds its result from the operands' largest numerators and
    runs on Python ints (``dtype=object``) when the bound could reach 2^62, so
    no operation can overflow.  Products go through one kernel,
    ``_product_sum``, which forms a product or a sum of products (as in
    ``triple.triple_product``) as one matrix on one of three rungs: Python
    ints from that bound up; float64 on BLAS when every real dot has every
    partial sum below 2^53 (``cols * max|a| * max|b|``) and a product takes
    at least ``_BLAS_MIN_SIZE`` scalar multiplications, each dot cast back to
    int64, which is exact; int64 otherwise.  Canonical form makes ``==`` and
    ``hash`` exact comparisons of (shape, den, re, im).  Real int64 matrices
    of one shape share one read-only zero array as ``im``; a producer that
    knows its result is real passes ``im`` as None.  ``adjoint`` and ``gram``
    keep their results.
    """

    __slots__ = ("rows", "cols", "re", "im", "den", "_adj", "_gram", "_mag")

    def __init__(self, rows: int, cols: int, entries: Sequence = None, *, _arrays=None):
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        if _arrays is None:
            scalars = [ExactScalar.coerce(e) for e in entries]
            if len(scalars) != rows * cols:
                raise DimensionError(f"expected {rows * cols} entries, got {len(scalars)}")
            res = [s.re for s in scalars]
            ims = [s.im for s in scalars]
            den = math.lcm(*{x.denominator for x in res + ims})
            re = _as_numerators(res, den, (rows, cols))
            im = _as_numerators(ims, den, (rows, cols)) if any(ims) else None
        else:
            re, im, den = _arrays
        zero = None
        if im is None:
            im = zero = _zero_im((rows, cols))
        re, im, den = _canonical(re, im, den)
        if im is not zero and zero is not None and im.dtype is not _OBJECT:
            im = zero  # _canonical may have copied it
        re.flags.writeable = False
        im.flags.writeable = False
        self.rows = rows
        self.cols = cols
        self.re = re
        self.im = im
        self.den = den
        self._adj = None
        self._gram = None
        self._mag = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise DimensionError("ragged rows")
        return cls(rows, cols, [e for r in data for e in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, _arrays=(np.zeros((rows, cols), dtype=np.int64), None, 1))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, _arrays=(np.eye(n, dtype=np.int64), None, 1))

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int, value=EX_ONE) -> "ExactMatrix":
        """Matrix with a single entry ``value`` at 0-based position (i, j)."""
        vr, vi, q = _scalar_parts(ExactScalar.coerce(value))
        dtype = np.int64 if max(abs(vr), abs(vi)) < _INT64_LIMIT else object
        re = np.zeros((rows, cols), dtype=dtype)
        re[i, j] = vr
        im = None
        if vi:
            im = np.zeros((rows, cols), dtype=dtype)
            im[i, j] = vi
        return cls(rows, cols, _arrays=(re, im, q))

    # -- accessors ---------------------------------------------------------

    def _scalar(self, re: int, im: int) -> ExactScalar:
        if not (re or im):
            return EX_ZERO
        if self.den == 1:
            return ExactScalar(re, im)
        return ExactScalar(Fraction(re, self.den), Fraction(im, self.den))

    @property
    def entries(self) -> tuple:
        """Row-major tuple of the entries; zeros are ``EX_ZERO``."""
        return tuple(map(self._scalar, self.re.ravel().tolist(), self.im.ravel().tolist()))

    def entry(self, i: int, j: int) -> ExactScalar:
        return self._scalar(int(self.re[i, j]), int(self.im[i, j]))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _mags(self) -> tuple:
        """Largest absolute real and imaginary numerators."""
        if self._mag is None:
            im = self.im
            self._mag = (_abs_max(self.re), 0 if _is_zero_im(im) else _abs_max(im))
        return self._mag

    def _bound(self) -> int:
        return max(self._mags())

    def is_zero(self) -> bool:
        if self._mag is not None:
            return self._mag == (0, 0)
        return not (np.count_nonzero(self.re) or np.count_nonzero(self.im))

    def nnz(self) -> int:
        return int(np.count_nonzero(self.re | self.im))

    def support(self) -> list:
        """0-based (i, j, value) triples of the nonzero entries, row-major."""
        ii, jj = np.nonzero(self.re | self.im)
        return [(i, j, self._scalar(r, m)) for i, j, r, m in
                zip(ii.tolist(), jj.tolist(), self.re[ii, jj].tolist(), self.im[ii, jj].tolist())]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        """self + sign * other over the common denominator."""
        self._same_shape(other)
        # a zero operand (den 1) would be lifted by the other's whole denominator
        if not other._bound():
            return self
        if not self._bound():
            return other if sign == 1 else -other
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        if self._bound() * fa + other._bound() * fb >= _INT64_LIMIT:
            ar, ai, br, bi = (x.astype(object) for x in (ar, ai, br, bi))
        op = np.add if sign == 1 else np.subtract
        im = None
        if self._mag[1] or other._mag[1]:
            im = op(_times(ai, fa), _times(bi, fb))
        return ExactMatrix(self.rows, self.cols,
                           _arrays=(op(_times(ar, fa), _times(br, fb)), im, den))

    def __neg__(self) -> "ExactMatrix":
        im = None if _is_zero_im(self.im) else -self.im
        return ExactMatrix(self.rows, self.cols, _arrays=(-self.re, im, self.den))

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            return _product_sum(((self, other),))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __matmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "ExactMatrix":
        """c * self for a Gaussian rational c = (cr + i ci) / q."""
        cr, ci, q = _scalar_parts(ExactScalar.coerce(c))
        if (cr, ci, q) == (1, 0, 1):
            return self
        re, im = self.re, self.im
        if (abs(cr) + abs(ci)) * self._bound() >= _INT64_LIMIT:
            re, im = re.astype(object), im.astype(object)
        mr, mi = self._mag
        # im is None where the magnitudes show the result is real
        if not ci:
            re, im = _times(re, cr), _times(im, cr) if cr and mi else None
        elif not cr:
            re, im = im * -ci, re * ci if mr else None
        else:
            re, im = re * cr - im * ci, im * cr + re * ci
        return ExactMatrix(self.rows, self.cols, _arrays=(re, im, self.den * q))

    def adjoint(self) -> "ExactMatrix":
        adj = self._adj
        if adj is None:
            im = None if _is_zero_im(self.im) else -self.im.T
            adj = ExactMatrix(self.cols, self.rows, _arrays=(self.re.T, im, self.den))
            adj._adj = self
            adj._mag = self._mag
            self._adj = adj
        return adj

    def gram(self) -> "ExactMatrix":
        """self self*, formed on first use; every call returns the same object.

        The right Gram product self* self is ``self.adjoint().gram()``, kept
        on the adjoint, which this matrix keeps.
        """
        if self._gram is None:
            self._gram = self * self.adjoint()
        return self._gram

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; the (i, j) block of the result is self[i, j] * other."""
        ar, ai, br, bi = self.re, self.im, other.re, other.im
        if 2 * self._bound() * other._bound() >= _INT64_LIMIT:
            ar, ai, br, bi = (x.astype(object) for x in (ar, ai, br, bi))
        if self._mag[1] or other._mag[1]:
            re, im = _kron(ar, br) - _kron(ai, bi), _kron(ar, bi) + _kron(ai, br)
        else:
            re, im = _kron(ar, br), None
        return ExactMatrix(self.rows * other.rows, self.cols * other.cols,
                           _arrays=(re, im, self.den * other.den))

    def trace(self) -> ExactScalar:
        if self.rows != self.cols:
            raise DimensionError("trace of a non-square matrix")
        return ExactScalar(Fraction(sum(self.re.diagonal().tolist()), self.den),
                           Fraction(sum(self.im.diagonal().tolist()), self.den))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols, self.den) != (other.rows, other.cols, other.den):
            return False
        if self.re.dtype is _OBJECT or other.re.dtype is _OBJECT:
            # canonical storage: equal matrices have equal dtypes
            return bool((self.re == other.re).all()) and bool((self.im == other.im).all())
        return (self.re.tobytes() == other.re.tobytes()
                and self.im.tobytes() == other.im.tobytes())

    def __hash__(self):
        if self.re.dtype is _OBJECT:
            parts = (tuple(self.re.ravel().tolist()), tuple(self.im.ravel().tolist()))
        else:
            parts = (self.re.tobytes(), self.im.tobytes())
        return hash((self.rows, self.cols, self.den) + parts)

    def to_approx(self) -> "ApproxMatrix":
        re, im, den = self.re, self.im, self.den
        if re.dtype is _OBJECT or self._bound() >= _FLOAT_EXACT or den >= _FLOAT_EXACT:
            # exact ints: Python's int / int is correctly rounded at any size
            re, im = re.astype(object), im.astype(object)
        arr = np.empty((self.rows, self.cols), dtype=np.complex128)
        arr.real = re / den
        arr.imag = im / den
        return ApproxMatrix(arr)

    def __str__(self):
        den = self.den
        memo = {}

        def cell(re, im):
            key = (re, im)
            if key not in memo:
                memo[key] = str(ExactScalar(Fraction(re, den), Fraction(im, den)))
            return memo[key]

        cells = [list(map(cell, r, i)) for r, i in zip(self.re.tolist(), self.im.tolist())]
        widths = [max(len(row[j]) for row in cells) for j in range(self.cols)]
        return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def _cast(a: np.ndarray, dtype, casts: dict) -> np.ndarray:
    """``a`` as ``dtype``, cast once per kernel call (an operand of two
    terms is read twice)."""
    c = casts.get(id(a))
    if c is None:
        c = casts[id(a)] = a.astype(dtype)
    return c


def _product_sum(terms, q: int = 1) -> ExactMatrix:
    """(x_1 y_1 + x_2 y_2 + ...) / q for ``terms``, a sequence of (x, y)
    ``ExactMatrix`` pairs whose products share one shape, as one canonical
    matrix: one bound, one dot per nonzero part of each term and one
    construction.  ``ExactMatrix.__mul__`` is the one-term call.

    The sum runs over den, the lcm of the terms' x.den * y.den; a term is
    lifted by f = den / (x.den * y.den).  Every partial sum of one real dot
    of a term is at most inner = x.cols * max|x| * max|y|, and every partial
    sum of the whole at most the total of 2 * f * inner.  The rung:
      - Python ints when that total reaches 2^62;
      - float64 on BLAS when every inner is below 2^53 and some term takes
        at least ``_BLAS_MIN_SIZE`` scalar multiplications; each dot is cast
        back to int64 before the int64 sums that join it;
      - int64 otherwise.
    A term with a zero factor adds nothing: it forms no dot and lifts no den.
    """
    x, y = terms[0]
    rows, cols = x.rows, y.cols
    # total: the sum over the terms so far of inner * den / (x.den * y.den)
    den, total, widest, size = 1, 0, 0, 0
    live = []
    for x, y in terms:
        if x.cols != y.rows:
            raise DimensionError(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
        if x.rows != rows or y.cols != cols:
            raise DimensionError(f"cannot add a {x.rows}x{y.cols} product to {rows}x{cols}")
        inner = x.cols * max(x._mags()) * max(y._mags())
        if not inner:
            continue  # den may not fit the int64 zeros a zero term would be lifted by
        d = x.den * y.den
        if d == den:
            total += inner
        else:
            lift = math.lcm(den, d)
            total = total * (lift // den) + inner * (lift // d)
            den = lift
        widest = inner if inner > widest else widest
        mults = x.rows * x.cols * y.cols
        size = mults if mults > size else size
        live.append((x, y, d))
    if not live:
        return ExactMatrix.zeros(rows, cols)
    dot, cast = np.dot, None
    if 2 * total >= _INT64_LIMIT:
        cast = _OBJECT
    elif widest < _FLOAT_EXACT and size >= _BLAS_MIN_SIZE:
        dot, cast = _float_dot, np.float64
    casts = {}
    re = im = None
    for x, y, d in live:
        xr, xi, yr, yi = x.re, x.im, y.re, y.im
        x_im, y_im = x._mag[1], y._mag[1]
        if cast is not None:
            xr, yr = _cast(xr, cast, casts), _cast(yr, cast, casts)
            xi = _cast(xi, cast, casts) if x_im else xi
            yi = _cast(yi, cast, casts) if y_im else yi
        # products with an all-zero imaginary part are skipped
        r = dot(xr, yr)
        if x_im and y_im:
            r = r - dot(xi, yi)
            i = dot(xr, yi) + dot(xi, yr)
        elif x_im:
            i = dot(xi, yr)
        elif y_im:
            i = dot(xr, yi)
        else:
            i = None
        if d != den:
            f = den // d
            r, i = r * f, None if i is None else i * f
        re = r if re is None else re + r
        if i is not None:
            im = i if im is None else im + i
    return ExactMatrix(rows, cols, _arrays=(re, im, den * q))


def _assemble(rows: int, cols: int, placed) -> ExactMatrix:
    """One matrix from blocks placed at (row offset, col offset), over the
    least common denominator of the blocks; uncovered entries are zero."""
    den = math.lcm(*(p.den for _, _, p in placed))
    big = max(p._bound() * (den // p.den) for _, _, p in placed) >= _INT64_LIMIT
    dtype = object if big else np.int64
    re = np.zeros((rows, cols), dtype=dtype)
    im = np.zeros((rows, cols), dtype=dtype) if any(p._mag[1] for _, _, p in placed) else None
    for r0, c0, p in placed:
        if not p._bound():
            continue
        f = den // p.den
        pre, pim = (p.re.astype(object), p.im.astype(object)) if big else (p.re, p.im)
        re[r0:r0 + p.rows, c0:c0 + p.cols] = _times(pre, f)
        if im is not None:
            im[r0:r0 + p.rows, c0:c0 + p.cols] = _times(pim, f)
    return ExactMatrix(rows, cols, _arrays=(re, im, den))


def block_row(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    """Horizontal concatenation [p_1 p_2 ... p_m]."""
    parts = list(parts)
    if not parts:
        raise DimensionError("block_row of no blocks")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise DimensionError("block_row requires equal row counts")
    offsets = np.cumsum([0] + [p.cols for p in parts]).tolist()
    return _assemble(rows, offsets[-1], [(0, c0, p) for c0, p in zip(offsets, parts)])


def block_col(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    """Vertical concatenation."""
    parts = list(parts)
    if not parts:
        raise DimensionError("block_col of no blocks")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise DimensionError("block_col requires equal column counts")
    offsets = np.cumsum([0] + [p.rows for p in parts]).tolist()
    return _assemble(offsets[-1], cols, [(r0, 0, p) for r0, p in zip(offsets, parts)])


def block_diag(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    parts = list(parts)
    if not parts:
        raise DimensionError("block_diag of no blocks")
    roffs = np.cumsum([0] + [p.rows for p in parts]).tolist()
    coffs = np.cumsum([0] + [p.cols for p in parts]).tolist()
    return _assemble(roffs[-1], coffs[-1], list(zip(roffs, coffs, parts)))


def block_grid(blocks: Sequence[Sequence[ExactMatrix]]) -> ExactMatrix:
    """Assemble an array of equally shaped blocks into one matrix."""
    if not blocks or not blocks[0]:
        raise DimensionError("block_grid of no blocks")
    br, bc = blocks[0][0].rows, blocks[0][0].cols
    ncols = len(blocks[0])
    for row in blocks:
        if len(row) != ncols:
            raise DimensionError("ragged block grid")
        for blk in row:
            if blk.rows != br or blk.cols != bc:
                raise DimensionError("block_grid requires equally shaped blocks")
    return _assemble(len(blocks) * br, ncols * bc,
                     [(i * br, j * bc, blk) for i, row in enumerate(blocks)
                      for j, blk in enumerate(row)])


# -- batched family tables ------------------------------------------------------

# Most numerator cells one chunk of a batched evaluation gathers per operand,
# so that a table over many triples is never held whole.
_CHUNK_CELLS = 1 << 13


def _ctake(x, idx):
    """Index the leading axis of an (re, im) pair; im None is an all-zero part."""
    re, im = x
    return re[idx], None if im is None else im[idx]


def _cstar(x):
    """Conjugate transpose of the last two axes of an (re, im) pair."""
    re, im = x
    return np.swapaxes(re, -1, -2), None if im is None else -np.swapaxes(im, -1, -2)


def _cmatmul(x, y):
    """Batched complex matmul of (re, im) pairs, skipping all-zero parts."""
    (xr, xi), (yr, yi) = x, y
    re = np.matmul(xr, yr)
    if xi is None and yi is None:
        return re, None
    if xi is None:
        return re, np.matmul(xr, yi)
    if yi is None:
        return re, np.matmul(xi, yr)
    return re - np.matmul(xi, yi), np.matmul(xr, yi) + np.matmul(xi, yr)


def _cells_equal(x, y) -> np.ndarray:
    """Per leading index: two (re, im) stacks with the same parts agree
    everywhere; a scalar part broadcasts."""
    same = (x[0] == y[0]).all(axis=(1, 2))
    if x[1] is not None:
        same &= (x[1] == y[1]).all(axis=(1, 2))
    return same


def combination(rows: Sequence[dict]) -> tuple:
    """The ``want`` argument of ``ExactFamily.equal`` for one
    {member position: int or Fraction coefficient} dict per triple; the
    coefficients are int64 while all of them are below 2^62."""
    width = max(map(len, rows), default=0)
    q = math.lcm(*{v.denominator for row in rows for v in row.values()})
    nums = [[v.numerator * (q // v.denominator) for v in row.values()] for row in rows]
    big = max((abs(x) for row in nums for x in row), default=0) >= _INT64_LIMIT
    kidx = np.zeros((len(rows), width), dtype=np.intp)
    kcoef = np.zeros((len(rows), width), dtype=object if big else np.int64)
    for t, (row, num) in enumerate(zip(rows, nums)):
        if row:
            kidx[t, :len(row)] = list(row)
            kcoef[t, :len(row)] = num
    return kidx, kcoef, q


def scaled_members(kidx, coef=1, q: int = 1) -> tuple:
    """The ``want`` argument of ``ExactFamily.equal`` for coef[t] / q times
    the single member kidx[t] per triple; ``coef`` may be one number.  The
    coefficients are int64 while all of them are below 2^62."""
    kidx = np.asarray(kidx, dtype=np.intp)[:, None]
    coef = np.asarray(coef).reshape(-1, 1)
    if coef.dtype.kind != "i" or (coef.size and
                                  max(int(coef.max()), -int(coef.min())) >= _INT64_LIMIT):
        coef = coef.astype(object)
    return kidx, np.broadcast_to(coef, kidx.shape), q


def _scaled_coefficients(kcoef, factor: int) -> np.ndarray:
    """kcoef * factor, on int64 while max|kcoef| * factor stays below 2^62
    (times the width, so that every row's sum of absolute values fits too;
    and factor itself, for all-zero coefficients), else on Python ints."""
    kcoef = np.asarray(kcoef)
    small = kcoef.dtype != _OBJECT
    if small:
        top = max(int(kcoef.max()), -int(kcoef.min())) if kcoef.size else 0
        small = factor * max(1, top * kcoef.shape[1]) < _INT64_LIMIT
    return kcoef.astype(np.int64 if small else object) * factor


class ExactFamily:
    """Equally shaped exact matrices, stacked for batched products.

    The members' numerators over one common denominator ``den`` are the
    (N, rows, cols) integer arrays ``re`` and ``im`` (``im`` is None when
    every member is real).  ``equal`` compares a b* c, or the triple product
    {a,b,c} = (a b* c + c b* a)/2, with a rational combination of members for
    arrays of index triples; ``vanish`` tests a b* or a* b for zero;
    ``ternary`` and ``matrices`` return a b* c.  Triples are sorted by their
    first, then middle index and evaluated in chunks of at most
    ``_CHUNK_CELLS`` cells per operand; a chunk forms each of its distinct
    products a b* (and b* a) once where that is the smaller square.

    Every evaluation first bounds each product and partial sum it can form
    from the largest numerator ``mag``: a b* c sums 2·rows·cols terms of at
    most 2·mag^3, so |a b* c| <= 4·rows·cols·mag^3 and the triple product
    doubles that.  Below 2^53 the evaluation runs in float64 on BLAS, where
    every such integer is exact in any summation order; otherwise on Python
    ints (dtype=object).
    """

    def __init__(self, mats: Sequence[ExactMatrix]):
        mats = list(mats)
        self.shape = mats[0].shape
        if any(m.shape != self.shape for m in mats):
            raise DimensionError("family members must share one shape")
        self.den = math.lcm(*(m.den for m in mats))
        # a zero member is not lifted: den may not fit the int64 zeros it would scale
        factors = [self.den // m.den if m._bound() else 1 for m in mats]
        self.mag = max(m._bound() * f for m, f in zip(mats, factors))
        big = self.mag >= _INT64_LIMIT

        def stack(parts):
            return np.stack([_times(p.astype(object) if big else p, f)
                             for p, f in zip(parts, factors)])

        self.re = stack([m.re for m in mats])
        self.im = stack([m.im for m in mats]) if any(m._mags()[1] for m in mats) else None
        self._rungs = {}

    def __len__(self):
        return len(self.re)

    def _stack(self, bound: int):
        """The numerators as float64 when ``bound`` < 2^53, else as Python ints."""
        dtype = np.float64 if bound < _FLOAT_EXACT else _OBJECT
        if dtype not in self._rungs:
            self._rungs[dtype] = (self.re.astype(dtype),
                                  None if self.im is None else self.im.astype(dtype))
        return self._rungs[dtype]

    def _ternary_bound(self, sym: bool) -> int:
        rows, cols = self.shape
        return (8 if sym else 4) * rows * cols * self.mag ** 3

    def _chunks(self, fam, ia, ib, ic, sym: bool):
        """Yield (positions, (re, im)): a b* c, or a b* c + c b* a with
        ``sym``, over den^3 for the triples at those positions.

        Each product is associated so that its inner factor is the smaller
        square: a b* (rows x rows) or b* a (cols x cols) once per distinct
        pair when that side is the short one, else b* c or c b* per triple.
        No intermediate then has more cells than an operand."""
        nr, nc = self.shape
        per = max(1, _CHUNK_CELLS // (nr * nc))
        order = np.lexsort((ib, ia))
        size = len(self)
        for s in range(0, len(order), per):
            rows = order[s:s + per]
            pairs, inv = np.unique(ia[rows] * size + ib[rows], return_inverse=True)
            a, b = _ctake(fam, pairs // size), _ctake(fam, pairs % size)
            c = _ctake(fam, ic[rows])
            if nr <= nc:
                re, im = _cmatmul(_ctake(_cmatmul(a, _cstar(b)), inv), c)
            else:
                re, im = _cmatmul(_ctake(a, inv), _cmatmul(_cstar(_ctake(b, inv)), c))
            if sym:
                if nc <= nr:
                    re2, im2 = _cmatmul(c, _ctake(_cmatmul(_cstar(b), a), inv))
                else:
                    re2, im2 = _cmatmul(_cmatmul(c, _cstar(_ctake(b, inv))), _ctake(a, inv))
                re, im = re + re2, None if im is None else im + im2
            yield rows, (re, im)

    def equal(self, ia, ib, ic, want=None, sym: bool = False) -> np.ndarray:
        """For each triple t, whether a b* c (with ``sym``, {a,b,c}) at
        a, b, c = ia[t], ib[t], ic[t] equals the combination ``want``.

        ``want`` is (kidx, kcoef, q): (T, K) integer arrays and a positive
        int, standing for sum_k kcoef[t, k] / q * member kidx[t, k] (see
        ``combination``); None is the zero matrix.
        """
        ia, ib, ic = (np.asarray(x, dtype=np.intp) for x in (ia, ib, ic))
        if want is None:
            want = np.zeros((len(ia), 0), dtype=np.intp), np.zeros((len(ia), 0), np.int64), 1
        kidx, kcoef, q = want
        ok = np.empty(len(ia), dtype=bool)
        if not len(ia):
            return ok
        # P / den^3 (2 den^3 with sym) == W / (q den)  <=>  q P == factor W
        factor = self.den ** 2 * (2 if sym else 1)
        kcoef = _scaled_coefficients(kcoef, factor)
        weight = int(np.abs(kcoef).sum(axis=1).max())
        fam = self._stack(max(q * self._ternary_bound(sym), weight * self.mag))
        kcoef = kcoef.astype(fam[0].dtype)
        for rows, (re, im) in self._chunks(fam, ia, ib, ic, sym):
            wr = wi = 0
            for k in range(kidx.shape[1]):
                w, idx = kcoef[rows, k][:, None, None], kidx[rows, k]
                wr = wr + w * fam[0][idx]
                if im is not None:
                    wi = wi + w * fam[1][idx]
            if q != 1:
                re, im = re * q, None if im is None else im * q
            ok[rows] = _cells_equal((re, im), (wr, wi))
        return ok

    def vanish(self, ia, ib, star_first: bool = False) -> np.ndarray:
        """For each pair t, whether a b* (with ``star_first``, a* b) is zero
        at a, b = ia[t], ib[t]."""
        ia, ib = (np.asarray(x, dtype=np.intp) for x in (ia, ib))
        rows, cols = self.shape
        fam = self._stack(2 * (rows if star_first else cols) * self.mag ** 2)
        per = max(1, _CHUNK_CELLS // max(self.shape) ** 2)
        out = np.empty(len(ia), dtype=bool)
        for s in range(0, len(ia), per):
            a, b = _ctake(fam, ia[s:s + per]), _ctake(fam, ib[s:s + per])
            re, im = _cmatmul(_cstar(a), b) if star_first else _cmatmul(a, _cstar(b))
            nonzero = re.any(axis=(1, 2))
            if im is not None:
                nonzero |= im.any(axis=(1, 2))
            out[s:s + per] = ~nonzero
        return out

    def ternary(self, ia, ib, ic, sym: bool = False) -> tuple:
        """(re, im): the integer numerators over den^3 of a b* c (with
        ``sym``, of a b* c + c b* a) for every triple, as (T, rows, cols)
        arrays held whole; im is None for a real family."""
        ia, ib, ic = (np.asarray(x, dtype=np.intp) for x in (ia, ib, ic))
        fam = self._stack(self._ternary_bound(sym))
        exact = np.int64 if fam[0].dtype == np.float64 else _OBJECT
        re = np.zeros((len(ia),) + self.shape, dtype=exact)
        im = None if self.im is None else np.zeros_like(re)
        for rows, (pr, pi) in self._chunks(fam, ia, ib, ic, sym):
            re[rows] = pr
            if im is not None:
                im[rows] = pi
        return re, im

    def matrices(self, ia, ib, ic) -> list:
        """a b* c for every triple, as ``ExactMatrix`` values."""
        re, im = self.ternary(ia, ib, ic)
        rows, cols = self.shape
        den = self.den ** 3
        ims = [None] * len(re) if im is None else im
        return [ExactMatrix(rows, cols, _arrays=(r, i, den)) for r, i in zip(re, ims)]


class ApproxMatrix:
    """Dense complex128 matrix, or a stack of them in an array of shape
    ``(..., rows, cols)``; the carrier for norms and singular values."""

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.array(array, dtype=np.complex128, copy=True)
        if arr.ndim < 2:
            raise DimensionError("ApproxMatrix requires an array of at least 2 dimensions")
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def from_exact(cls, m: ExactMatrix) -> "ApproxMatrix":
        return m.to_approx()

    @property
    def rows(self) -> int:
        return self.array.shape[-2]

    @property
    def cols(self) -> int:
        return self.array.shape[-1]

    def __repr__(self):
        return f"ApproxMatrix({self.rows}x{self.cols})"


def _as_array(a) -> np.ndarray:
    if isinstance(a, ApproxMatrix):
        arr = a.array
    elif isinstance(a, ExactMatrix):
        arr = a.to_approx().array
    else:
        arr = np.asarray(a, dtype=np.complex128)
        if arr.ndim < 2:
            raise DimensionError("expected a 2-d array or a stack of them")
    if not np.isfinite(arr).all():
        raise NumericError("matrix has non-finite entries")
    return arr


def singular_values(a) -> np.ndarray:
    """All singular values, descending, via LAPACK ``eigvalsh`` on the smaller
    Gram matrix.  A stack of shape ``(..., r, c)`` gives one row of values
    per matrix, shape ``(..., min(r, c))``, from one ``eigvalsh`` call.

    Gram eigenvalues below the numerical-rank cutoff (relative to the largest
    of their matrix) are treated as exact zeros; squaring would otherwise
    inflate them to sqrt(eps)-sized spurious singular values.
    """
    arr = _as_array(a)
    if arr.shape[-2] <= arr.shape[-1]:
        gram = arr @ arr.conj().swapaxes(-1, -2)
    else:
        gram = arr.conj().swapaxes(-1, -2) @ arr
    try:
        eigs = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigenvalues did not converge: {exc}") from exc
    eigs = np.clip(eigs, 0.0, None)
    if eigs.size:
        cutoff = eigs[..., -1:] * max(arr.shape[-2:]) * 8.0 * np.finfo(np.float64).eps
        eigs[eigs <= cutoff] = 0.0
    return np.sqrt(eigs)[..., ::-1]


def operator_norm(a):
    """Largest singular value: a float, or one per matrix of a stack."""
    s = singular_values(a)
    top = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    return float(top) if s.ndim == 1 else top


def trace_norm(a):
    """Sum of singular values: a float, or one per matrix of a stack.  For the
    wide/tall Gram reduction this counts only min(rows, cols) values, which
    is all of the nonzero ones."""
    s = singular_values(a)
    return float(np.sum(s)) if s.ndim == 1 else np.sum(s, axis=-1)


# -- exact linear algebra helpers -------------------------------------------


def exact_rank(vectors: Iterable[Sequence[ExactScalar]]) -> int:
    """Rank of a family of exact vectors by Gaussian elimination."""
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = EX_ONE / rows[rank][col]
        rows[rank] = [inv * e for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def span_contains(basis: Sequence[ExactMatrix], target: ExactMatrix) -> bool:
    """Exact membership of ``target`` in the complex span of ``basis``."""
    vecs = [b.entries for b in basis]
    r0 = exact_rank(vecs)
    return exact_rank(vecs + [target.entries]) == r0


def exact_linearly_independent(mats: Sequence[ExactMatrix]) -> bool:
    """Independence via the exact Gram matrix of the trace inner product."""
    n = len(mats)
    if n == 0:
        return True
    gram = []
    adj = [m.adjoint() for m in mats]
    for i in range(n):
        gram.append([(mats[i] * adj[j]).trace() for j in range(n)])
    return exact_rank(gram) == n
