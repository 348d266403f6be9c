"""Exact and floating dense-matrix kernel.

``ExactScalar`` is a Gaussian rational a + b*i with ``int``/``Fraction`` parts,
so all algebraic identities can be checked with zero residual.  ``ExactMatrix``
is an immutable matrix of Gaussian rationals held as two integer numerator
arrays over one common denominator, (re + i*im) / den; its algebra is numpy
integer array arithmetic, on int64 while a bound on the result stays below
2^62 and on Python ints otherwise.  One kernel forms every exact product
as one matrix, on one of four rungs.  On products large enough to pay for
casts: a row or column scaling on int64 where a factor is a kept diagonal
(a Gram product with at most one nonzero per column, such as a support
projection of H(n,k)), else float64 on BLAS when every partial sum of a
dot is an integer below 2^53.  Else int64 dots below 2^62, and Python ints
above.  ``ExactFamily`` stacks equally shaped exact matrices, and every
operation on its numerator stacks is one of its methods; ``part``,
``ternary``, ``sums`` and ``conjugate`` return (re, im, den) stacks to
join, and a family whose members are all monomial compares and tests its
products by index gathers.  Every overflow bound of the package is taken
in this module.  ``ApproxMatrix`` wraps a complex128 array and carries the
spectral computations (operator norm, trace norm) through LAPACK's
Hermitian eigensolver on the smaller Gram matrix.
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


def _abs_max(a) -> int:
    return 0 if a is None else int(np.abs(a).max())


def _gcd_all(a: np.ndarray) -> int:
    return int(np.gcd.reduce(a.ravel()))


def _canonical(re: np.ndarray, im, den: int):
    """Lowest terms (gcd(den, numerators) == 1, den == 1 for zero) and int64
    storage whenever every numerator is below ``_INT64_LIMIT``, for numerator
    arrays of any shape; ``im`` None is an all-zero part."""
    if den != 1:
        g = math.gcd(den, _gcd_all(re))
        if g != 1 and im is not None:
            g = math.gcd(g, _gcd_all(im))
        if g != 1:  # an all-zero int64 part may not hold g: it is not divided
            re, im = (x if x is None or not x.any() else x // g for x in (re, im))
            den //= g
    if re.dtype is _OBJECT or im is not None and im.dtype is _OBJECT:
        dtype = np.int64 if max(_abs_max(re), _abs_max(im)) < _INT64_LIMIT else object
        re, im = re.astype(dtype), None if im is None else im.astype(dtype)
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
    ``_product``, which forms each as one matrix on the rung its bound and
    size allow: a row or column scaling by a kept diagonal, float64 on
    BLAS, int64 or Python ints.  Canonical form makes ``==`` and ``hash``
    exact comparisons of (shape, den, re, im).  Real int64 matrices of one shape
    share one read-only zero array as ``im``; a producer that knows its
    result is real passes ``im`` as None.  ``adjoint`` and ``gram`` keep
    their results.

    ``_diag`` is None or the int64 numerators of the diagonal of a real
    diagonal matrix, kept where the kernel may scale by it: on a ``gram``
    read off the row norms (at least ``_BLAS_MIN_SIZE`` multiplications,
    at most one nonzero per column) and on a product of kept diagonals of
    that size.  Every other matrix keeps none, diagonal or not.
    """

    __slots__ = ("rows", "cols", "re", "im", "den", "_adj", "_gram", "_mag", "_diag")

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
        re, im, den = _canonical(re, im, den)
        if im is None:
            im = _zero_im((rows, cols)) if re.dtype is not _OBJECT else np.zeros_like(re)
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
        self._diag = None

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
            return _product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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
        on the adjoint, which this matrix keeps.  A large enough matrix with at
        most one nonzero per column gives a kept diagonal, read off its row
        norms with no product (``_diagonal_gram``).
        """
        if self._gram is None:
            gram = self._diagonal_gram()
            self._gram = self * self.adjoint() if gram is None else gram
        return self._gram

    def _diagonal_gram(self):
        """self self* as a kept diagonal, or None.  Where every column holds
        at most one nonzero, entry (i, j) of self self* has a term only if
        i == j: it is the diagonal of the squared row norms over den^2, each
        at most 2 cols max|self|^2.  Read off so only where the product would
        take at least ``_BLAS_MIN_SIZE`` multiplications and that bound stays
        below 2^62; its numerators are kept as ``_diag``."""
        rows, cols = self.shape
        if rows * rows * cols < _BLAS_MIN_SIZE or 2 * cols * self._bound() ** 2 >= _INT64_LIMIT:
            return None
        re, im = self.re, self.im if self._mag[1] else None
        on = re != 0 if im is None else (re != 0) | (im != 0)
        if np.count_nonzero(on) > np.count_nonzero(on.any(axis=0)):
            return None  # some column holds two nonzeros
        norms = (re * re).sum(axis=1)
        if im is not None:
            norms += (im * im).sum(axis=1)
        diag = np.zeros((rows, rows), dtype=np.int64)
        np.fill_diagonal(diag, norms)
        out = ExactMatrix(rows, rows, _arrays=(diag, None, self.den ** 2))
        out._diag = out.re.diagonal()
        return out

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
        # real matrices of one shape share their zero im
        return (self.re.tobytes() == other.re.tobytes()
                and (self.im is other.im or self.im.tobytes() == other.im.tobytes()))

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


def _product(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """x y as one canonical matrix: one bound, one dot or scaling per
    nonzero part and one construction.  ``ExactMatrix.__mul__`` calls it.

    Every partial sum of one real dot is at most inner = x.cols * max|x| *
    max|y|, and an entry sums two such dots.  The rung:
      - Python ints when 2 * inner reaches 2^62;
      - at ``_BLAS_MIN_SIZE`` scalar multiplications and above: where a
        factor is a kept diagonal (``_diag``), the rows of y, or the columns
        of x, scaled by it on int64, with no dot; else float64 on BLAS when
        inner is below 2^53, each dot cast back to int64 before the int64
        sums that join it, and int64 dots otherwise.  A product of two kept
        diagonals keeps its diagonal;
      - int64 dots otherwise, whatever the factors keep.
    A zero factor gives the zero matrix: no dot, and its den is not kept.
    """
    if x.cols != y.rows:
        raise DimensionError(f"cannot multiply {x.rows}x{x.cols} by {y.rows}x{y.cols}")
    rows, cols = x.rows, y.cols
    inner = x.cols * max(x._mags()) * max(y._mags())
    if not inner:
        return ExactMatrix.zeros(rows, cols)
    dot, cast, scaling = np.dot, None, False
    if 2 * inner >= _INT64_LIMIT:
        cast = _OBJECT
    elif rows * x.cols * cols >= _BLAS_MIN_SIZE:
        scaling = True
        if inner < _FLOAT_EXACT:
            dot, cast = _float_dot, np.float64
    xr, xi, yr, yi = x.re, x.im, y.re, y.im
    x_im, y_im = x._mag[1], y._mag[1]
    if scaling and x._diag is not None:
        s = x._diag[:, None]  # the rows of y scaled by the real diagonal of x
        re, im = s * yr, s * yi if y_im else None
    elif scaling and y._diag is not None:
        s = y._diag  # the columns of x scaled by the real diagonal of y
        re, im = xr * s, xi * s if x_im else None
    else:
        if cast is not None:
            xr, yr = xr.astype(cast), yr.astype(cast)
            xi = xi.astype(cast) if x_im else xi
            yi = yi.astype(cast) if y_im else yi
        # products with an all-zero imaginary part are skipped
        re = dot(xr, yr)
        if x_im and y_im:
            re = re - dot(xi, yi)
            im = dot(xr, yi) + dot(xi, yr)
        elif x_im:
            im = dot(xi, yr)
        elif y_im:
            im = dot(xr, yi)
        else:
            im = None
    out = ExactMatrix(rows, cols, _arrays=(re, im, x.den * y.den))
    if scaling and x._diag is not None and y._diag is not None:
        out._diag = out.re.diagonal()
    return out


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


def block_diag(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    parts = list(parts)
    if not parts:
        raise DimensionError("block_diag of no blocks")
    roffs = np.cumsum([0] + [p.rows for p in parts]).tolist()
    coffs = np.cumsum([0] + [p.cols for p in parts]).tolist()
    return _assemble(roffs[-1], coffs[-1], list(zip(roffs, coffs, parts)))


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


def _chase(g, shape, a, b, c) -> tuple:
    """Every row r of a b* c on the gather form ``g`` of a monomial family
    (``ExactFamily._gathers``), for member index arrays a, b, c of length T:
    (column, re, im) as (rows, T) arrays, im None for a real family.  Row r
    of a meets b* only at k = col_a[r], column k of b* c only at the row s
    of b holding column k, and row s of c only at col_c[s]: the one entry
    of the row is a[r] conj(b[s]) c[s], at column col_c[s], and a row where
    a link is missing ends at the padding column with the entry 0."""
    col, row, vr, vi = g
    nr, nc = shape
    at_a = a * (nr + 1) + np.arange(nr)[:, None]
    s = row[b * (nc + 1) + col[at_a]]
    at_b, at_c = b * (nr + 1) + s, c * (nr + 1) + s
    if vi is None:
        return col[at_c], vr[at_a] * vr[at_b] * vr[at_c], None
    ar, ai, br, bi, cr, ci = vr[at_a], vi[at_a], vr[at_b], vi[at_b], vr[at_c], vi[at_c]
    xr, xi = ar * br + ai * bi, ai * br - ar * bi  # a conj(b)
    return col[at_c], xr * cr - xi * ci, xr * ci + xi * cr


def blocks(idx, size: int, count: int) -> np.ndarray:
    """The member indices ``idx`` of one block of ``size`` members, for
    each of ``count`` blocks stacked one after the other: block b's copy
    shifted by b * size, the copies joined along the first axis."""
    idx = np.asarray(idx, dtype=np.intp)
    shift = size * np.arange(count).reshape((-1,) + (1,) * idx.ndim)
    return (shift + idx).reshape((-1,) + idx.shape[1:])


def scaled_members(kidx, coef=1, q: int = 1) -> tuple:
    """The ``want`` argument of ``ExactFamily.equal`` for coef[t] / q times
    member kidx[t] per triple; ``coef`` may be one number.  The
    coefficients are int64 while all of them are below 2^62."""
    kidx, coef = np.asarray(kidx, dtype=np.intp), np.asarray(coef)
    if coef.dtype.kind != "i" or (coef.size and
                                  max(int(coef.max()), -int(coef.min())) >= _INT64_LIMIT):
        coef = coef.astype(object)
    return kidx, np.broadcast_to(coef, kidx.shape), q


def _scaled_coefficients(kcoef, factor: int) -> np.ndarray:
    """kcoef * factor, on int64 while max|kcoef| * factor stays below 2^62
    (and factor itself, for all-zero coefficients), else on Python ints."""
    kcoef = np.asarray(kcoef)
    small = kcoef.dtype != _OBJECT
    if small:
        top = max(int(kcoef.max()), -int(kcoef.min())) if kcoef.size else 0
        small = factor * max(1, top) < _INT64_LIMIT
    return kcoef.astype(np.int64 if small else object) * factor


class ExactFamily:
    """Equally shaped exact matrices, stacked for batched products.

    The members' numerators over one common denominator ``den`` are the
    (N, rows, cols) integer arrays ``re`` and ``im`` (``im`` is None when
    every member is real), in lowest terms over the whole stack.
    ``ExactFamily(_stacks=parts)`` joins (re, im, den) numerator stacks in
    order over the lcm of their denominators, such as a ``ternary`` result
    over den^3 or a ``part`` of a family; ``ExactFamily(mats)`` joins the
    matrices as one-member stacks.  A single read-only stack in lowest terms
    is kept as it is, not copied.  ``equal`` compares a b* c, or the triple
    product {a,b,c} = (a b* c + c b* a)/2, with a rational multiple of one
    member for arrays of index triples; ``vanish`` tests a b* or a* b for
    zero.  ``same`` and ``nonzero`` test members, and ``meets`` tells which
    of them share a nonzero row or column; ``ternary``, ``sums`` and
    ``conjugate`` form a b* c, sums of members and left u right as stacks to
    join, ``span_sum`` the matrix sum_i trace(x U_i*) U_i / q.  Triples are
    evaluated in chunks of at most ``_CHUNK_CELLS`` cells per operand (on
    the gather rung, (row, triple) cells).  The dense rung sorts them by
    their first, then middle index, and a chunk forms each of its distinct
    products a b* (and b* a) once where that is the smaller square.

    Every evaluation first bounds each product and partial sum it can form
    from the largest numerator ``mag``, and the members and the bound pick
    its rung:
      - gathers on int64, where every member is monomial (at most one
        nonzero per row and per column, as in the grids of type 1 to 3, the
        basis of H(n,k) and their signed-permutation conjugates; read once
        and kept, ``_gathers``).  Then a b* c is monomial, and row r of it is
        one chase of indices with the entry a[r] conj(b[s]) c[s]: one product
        of three numerators, at most 4·mag^3 and doubled for the triple
        product.  ``equal`` runs there while q times that bound, and the
        want's coefficient times mag, stay below 2^62; ``vanish`` reads its
        verdicts off ``meets``, since each entry of a b* or a* b is then one
        term.
      - otherwise the dense products: a b* c sums 2·rows·cols terms of at
        most 2·mag^3, so |a b* c| <= 4·rows·cols·mag^3 and the triple
        product doubles that.  Below 2^53 the evaluation runs in float64 on
        BLAS, where every such integer is exact in any summation order;
        otherwise on Python ints (dtype=object).
    ``sums``, ``conjugate`` and ``span_sum`` bound their results likewise,
    on int64 below 2^62.
    """

    def __init__(self, mats: Sequence[ExactMatrix] = (), *, _stacks=None):
        if _stacks is None:
            mats = list(mats)
            if any(m.shape != mats[0].shape for m in mats):
                raise DimensionError("family members must share one shape")
            _stacks = [(m.re[None], None if _is_zero_im(m.im) else m.im[None], m.den)
                       for m in mats]
        den = math.lcm(*(d for _, _, d in _stacks))

        def lift(x, f):  # zeros are not lifted: den may not fit the int64 zeros it would scale
            top = 0 if f == 1 else _abs_max(x)
            return x if not top else (x.astype(object) if top * f >= _INT64_LIMIT else x) * f

        def join(parts):  # one read-only stack is kept, not copied
            one = len(parts) == 1 and not parts[0].flags.writeable
            return parts[0] if one else np.concatenate(parts)

        re, im = join([lift(r, den // d) for r, _, d in _stacks]), None
        if any(i is not None for _, i, _ in _stacks):
            im = join([np.zeros_like(r) if i is None else lift(i, den // d)
                       for r, i, d in _stacks])
        re, im, self.den = _canonical(re, im, den)
        tops = _abs_max(re), _abs_max(im)
        self.re, self.im, self.mag, self.shape = re, im if tops[1] else None, max(tops), re.shape[1:]
        self._rungs, self._meets, self._gather = {}, None, None

    def __len__(self):
        return len(self.re)

    def part(self, idx=slice(None)) -> tuple:
        """The members at ``idx`` as a (re, im, den) stack, to join."""
        return self.re[idx], None if self.im is None else self.im[idx], self.den

    def member(self, k: int) -> ExactMatrix:
        """Member ``k`` as an ``ExactMatrix``."""
        return ExactMatrix(*self.shape, _arrays=self.part(k))

    def members(self) -> list:
        """Every member as an ``ExactMatrix``."""
        return [self.member(k) for k in range(len(self))]

    def same(self, xs, zs) -> np.ndarray:
        """For each t, whether members xs[t] and zs[t] are equal, gathered
        at most ``_CHUNK_CELLS`` cells per operand at a time."""
        xs, zs = (np.asarray(x, dtype=np.intp) for x in (xs, zs))
        rows, cols = self.shape
        per = max(1, _CHUNK_CELLS // (rows * cols))
        same = np.empty(len(xs), dtype=bool)
        for s in range(0, len(xs), per):
            x, z = xs[s:s + per], zs[s:s + per]
            ok = (self.re[x] == self.re[z]).all(axis=(1, 2))
            if self.im is not None:
                ok &= (self.im[x] == self.im[z]).all(axis=(1, 2))
            same[s:s + per] = ok
        return same

    def nonzero(self, idx) -> np.ndarray:
        """For each t, whether member idx[t] is nonzero."""
        nonzero = self.re[idx].any(axis=(1, 2))
        if self.im is not None:
            nonzero |= self.im[idx].any(axis=(1, 2))
        return nonzero

    def meets(self) -> tuple:
        """(rows, cols): N x N bool arrays, whether members a and b have a
        nonzero row, and a nonzero column, in common.  a* b = 0 where
        rows[a, b] is False and a b* = 0 where cols[a, b] is False.  Read
        once off the numerators and kept."""
        if self._meets is None:
            nonzero = self.re != 0
            if self.im is not None:
                nonzero |= self.im != 0
            # a float32 matmul of the 0/1 line indicators counts the shared
            # lines on BLAS (a bool matmul does not use it); exact, as every
            # count is below 2^24
            on = [x.astype(np.float32) for x in (nonzero.any(axis=2), nonzero.any(axis=1))]
            self._meets = tuple(x @ x.T > 0 for x in on)
        return self._meets

    def _gathers(self):
        """The gather form of a monomial family, or None where some member
        has two nonzeros in one row or column (or the stack is on Python
        ints); read once off the numerators and kept.  (col, row, re, im),
        flattened from (N + 1, rows + 1), (N + 1, cols + 1) and (N + 1,
        rows + 1): col[n, r] the column of the nonzero of row r of member
        n, row[n, c] the row holding column c, and re, im the numerators of
        the entry of row r (im None for a real family).  An empty row
        points at the padding column ``cols``, an empty column at the
        padding row ``rows``, and the padding row holds the entry 0 at the
        padding column, so every chase of indices stays in bounds; the
        padding member N is the zero matrix."""
        if self._gather is None:
            self._gather = False
            on = self.re != 0
            if self.im is not None:
                on |= self.im != 0
            if self.re.dtype != _OBJECT and max(on.sum(axis=2).max(), on.sum(axis=1).max()) <= 1:
                n, (nr, nc) = len(self) + 1, self.shape
                m, r, c = np.nonzero(on)
                col = np.full((n, nr + 1), nc, dtype=np.intp)
                row = np.full((n, nc + 1), nr, dtype=np.intp)
                col[m, r], row[m, c] = c, r
                parts = []
                for part in (self.re, self.im):
                    if part is not None:
                        v = np.zeros((n, nr + 1), dtype=np.int64)
                        v[m, r] = part[m, r, c]
                        part = v.ravel()
                    parts.append(part)
                self._gather = (col.ravel(), row.ravel(), *parts)
        return self._gather or None

    def sums(self, kidx, kcoef) -> tuple:
        """sum_k kcoef[t, k] member kidx[t, k] per row t, as a (re, im, den)
        stack to join; on Python ints where sum_k |kcoef[t, k]| mag could
        reach 2^62."""
        kidx, kcoef = np.asarray(kidx, dtype=np.intp), np.asarray(kcoef, dtype=np.int64)
        big = int(np.abs(kcoef).sum(axis=1).max()) * self.mag >= _INT64_LIMIT

        def total(part):
            part = part.astype(object) if big else part
            return (kcoef[:, :, None, None] * part[kidx]).sum(axis=1)

        return total(self.re), None if self.im is None else total(self.im), self.den

    def conjugate(self, lefts: Sequence[ExactMatrix], rights: Sequence[ExactMatrix]) -> tuple:
        """lefts[p] u rights[p] for every pair p and member u, pair by pair,
        as a (re, im, den) stack to join: two batched products over all
        pairs, on Python ints where their bound 4 rows cols max|left| mag
        max|right| could reach 2^62."""
        rows, cols = self.shape
        left, right = ExactFamily(lefts), ExactFamily(rights)
        if len(left) != len(right):
            raise DimensionError("conjugation needs as many left as right factors")
        if (left.shape[1], right.shape[0]) != self.shape:
            raise DimensionError("conjugation needs left.cols x right.rows members")
        big = 4 * rows * cols * left.mag * self.mag * right.mag >= _INT64_LIMIT
        lr, li, rr, ri = (None if p is None else (p.astype(object) if big else p)[:, None]
                          for p in (left.re, left.im, right.re, right.im))
        re, im = _cmatmul(_cmatmul((lr, li), (self.re, self.im)), (rr, ri))
        shape = (-1,) + re.shape[2:]
        return (re.reshape(shape), None if im is None else im.reshape(shape),
                left.den * self.den * right.den)

    def span_sum(self, x: ExactMatrix, q: int) -> ExactMatrix:
        """sum_i trace(x U_i*) U_i / q over the members U_i.  On the
        numerators B (a row per member), the traces are conj(B) x and the
        sum c B: two contractions and one construction, on Python ints where
        their bound 4 N rows cols max|x| mag^2 could reach 2^62."""
        if x.shape != self.shape:
            raise DimensionError(f"expected shape {self.shape}, got {x.shape}")
        n, (rows, cols) = len(self), self.shape
        parts = self.re, self.im, x.re, x.im if x._mags()[1] else None
        if 4 * n * rows * cols * x._bound() * self.mag ** 2 >= _INT64_LIMIT:
            parts = tuple(None if p is None else p.astype(object) for p in parts)
        br, bi, xr, xi = (None if p is None else p.reshape(shape) for p, shape in
                          zip(parts, [(n, -1)] * 2 + [(-1, 1)] * 2))
        cr, ci = _cmatmul((br, None if bi is None else -bi), (xr, xi))
        re, im = _cmatmul((cr.T, None if ci is None else ci.T), (br, bi))
        return ExactMatrix(rows, cols, _arrays=(re.reshape(rows, cols),
                                                None if im is None else im.reshape(rows, cols),
                                                x.den * self.den ** 2 * q))

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

    def _gather_bound(self, sym: bool) -> int:
        """Every entry of a b* c on a monomial family is one product of
        three numerators: its parts are at most 4 mag^3, doubled for
        a b* c + c b* a.  mag is taken as at least 1, so that the bound
        also keeps q and the coefficients of a zero family on int64."""
        return (8 if sym else 4) * max(self.mag, 1) ** 3

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
        a, b, c = ia[t], ib[t], ic[t] equals the scaled member ``want``.

        ``want`` is (kidx, kcoef, q): integer arrays of length T and a
        positive int, standing for kcoef[t] / q * member kidx[t]
        (``scaled_members``, and the grids' triple rules); a coefficient of
        0, or ``want=None``, is the zero matrix.  On a monomial family the
        want is compared row by row on index gathers (``_gather_equal``)
        while its bounds stay below 2^62; every other evaluation forms the
        dense products.
        """
        ia, ib, ic = (np.asarray(x, dtype=np.intp) for x in (ia, ib, ic))
        if want is None:
            want = np.zeros(len(ia), dtype=np.intp), np.zeros(len(ia), dtype=np.int64), 1
        kidx, kcoef, q = want
        ok = np.empty(len(ia), dtype=bool)
        if not len(ia):
            return ok
        # P / den^3 (2 den^3 with sym) == W / (q den)  <=>  q P == factor W
        factor = self.den ** 2 * (2 if sym else 1)
        kcoef = _scaled_coefficients(kcoef, factor)
        top = int(np.abs(kcoef).max())
        if (max(q * self._gather_bound(sym), top * max(self.mag, 1)) < _INT64_LIMIT
                and self._gathers() is not None):
            return self._gather_equal(ia, ib, ic, kidx, kcoef.astype(np.int64), q, sym)
        fam = self._stack(max(q * self._ternary_bound(sym), top * self.mag))
        kcoef = kcoef.astype(fam[0].dtype)
        for rows, (re, im) in self._chunks(fam, ia, ib, ic, sym):
            w, idx = kcoef[rows][:, None, None], kidx[rows]
            if q != 1:
                re, im = re * q, None if im is None else im * q
            same = (re == w * fam[0][idx]).all(axis=(1, 2))
            ok[rows] = same if im is None else same & (im == w * fam[1][idx]).all(axis=(1, 2))
        return ok

    def _gather_equal(self, ia, ib, ic, kidx, kcoef, q: int, sym: bool) -> np.ndarray:
        """``equal`` on the gather form, on int64 below ``_gather_bound``, a
        chunk of at most ``_CHUNK_CELLS`` (row, triple) cells at a time.

        Every row of a b* c and of the want holds at most one entry, and an
        entry is nonzero exactly where its column is not the padding one, so
        they are equal row by row iff the columns and the values agree.  A
        want of coefficient 0 is the padding member: the zero matrix.  With
        ``sym`` a row of a b* c + c b* a has two entries; it can equal the
        want only where they share a column, or one of them is the padding
        entry 0, and where their sum cancels the row is zero whatever its
        column."""
        g, (nr, nc) = self._gathers(), self.shape
        kidx = np.where(kcoef == 0, len(self), kidx)
        ok = np.empty(len(ia), dtype=bool)
        per = max(1, _CHUNK_CELLS // nr)
        for s in range(0, len(ia), per):
            a, b, c, w, k = (x[s:s + per] for x in (ia, ib, ic, kidx, kcoef))
            col, re, im = _chase(g, self.shape, a, b, c)
            if sym:
                col2, re2, im2 = _chase(g, self.shape, c, b, a)
                one = (col == col2) | (np.maximum(col, col2) == nc)
                col, re, im = np.minimum(col, col2), re + re2, None if im is None else im + im2
            if q != 1:
                re, im = re * q, None if im is None else im * q
            at = w * (nr + 1) + np.arange(nr)[:, None]
            same = re == k * g[2][at]
            if im is not None:
                same &= im == k * g[3][at]
            hit = col == g[0][at]
            if sym:
                zero = re == 0 if im is None else (re == 0) & (im == 0)
                hit = (hit | zero) & one
            ok[s:s + per] = (same & hit).all(axis=0)
        return ok

    def vanish(self, ia, ib, star_first: bool = False) -> np.ndarray:
        """For each pair t, whether a b* (with ``star_first``, a* b) is zero
        at a, b = ia[t], ib[t].  On a monomial family each entry of the
        product is one term, so the product is zero exactly where the
        columns (the rows) of a and b do not meet (``meets``)."""
        ia, ib = (np.asarray(x, dtype=np.intp) for x in (ia, ib))
        if self._gathers() is not None:
            return ~self.meets()[0 if star_first else 1][ia, ib]
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
        """a b* c (with ``sym``, a b* c + c b* a) for every triple, as a
        (re, im, den^3) stack to join: (T, rows, cols) numerator arrays held
        whole; im is None for a real family."""
        ia, ib, ic = (np.asarray(x, dtype=np.intp) for x in (ia, ib, ic))
        fam = self._stack(self._ternary_bound(sym))
        exact = np.int64 if fam[0].dtype == np.float64 else _OBJECT
        re = np.zeros((len(ia),) + self.shape, dtype=exact)
        im = None if self.im is None else np.zeros_like(re)
        for rows, (pr, pi) in self._chunks(fam, ia, ib, ic, sym):
            re[rows] = pr
            if im is not None:
                im[rows] = pi
        return re, im, self.den ** 3


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

    def __repr__(self):
        rows, cols = self.array.shape[-2:]
        return f"ApproxMatrix({rows}x{cols})"


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
