"""Exact and floating dense-matrix kernel.

``ExactScalar`` is a Gaussian rational a + b*i with ``Fraction`` parts, so all
algebraic identities can be checked with zero residual.  ``ExactMatrix`` is a
dense row-major immutable matrix over such scalars; its products skip zero
entries, so unit-like matrices multiply in time proportional to their support.
``ApproxMatrix`` wraps a complex128 array and carries the spectral computations
(operator norm, trace norm) through LAPACK's Hermitian eigensolver on the
smaller Gram matrix.
"""

from __future__ import annotations

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


def _normalize(value) -> ExactScalar:
    s = ExactScalar.coerce(value)
    return s if s else EX_ZERO


class ExactMatrix:
    """Immutable dense rectangular matrix over Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries", "_adj")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        entries = tuple(_normalize(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._adj = None

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
        return cls(rows, cols, [EX_ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        e = [EX_ZERO] * (n * n)
        for i in range(n):
            e[i * n + i] = EX_ONE
        return cls(n, n, e)

    @classmethod
    def unit(cls, rows: int, cols: int, i: int, j: int, value=EX_ONE) -> "ExactMatrix":
        """Matrix with a single entry ``value`` at 0-based position (i, j)."""
        e = [EX_ZERO] * (rows * cols)
        e[i * cols + j] = ExactScalar.coerce(value)
        return cls(rows, cols, e)

    # -- accessors ---------------------------------------------------------

    def entry(self, i: int, j: int) -> ExactScalar:
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(e is EX_ZERO for e in self.entries)

    def nnz(self) -> int:
        return sum(1 for e in self.entries if e is not EX_ZERO)

    def support(self) -> list:
        """0-based (i, j, value) triples of the nonzero entries."""
        c = self.cols
        return [(idx // c, idx % c, e) for idx, e in enumerate(self.entries) if e is not EX_ZERO]

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(self.rows, self.cols,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, [-e for e in self.entries])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise DimensionError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            a, b = self.entries, other.entries
            ac, bc = self.cols, other.cols
            out = [EX_ZERO] * (self.rows * bc)
            for i in range(self.rows):
                ia = i * ac
                io = i * bc
                for k in range(ac):
                    av = a[ia + k]
                    if av is EX_ZERO:
                        continue
                    ib = k * bc
                    for j in range(bc):
                        bv = b[ib + j]
                        if bv is EX_ZERO:
                            continue
                        cur = out[io + j]
                        if cur is EX_ZERO:
                            out[io + j] = av * bv
                        else:
                            out[io + j] = cur + av * bv
            return ExactMatrix(self.rows, bc, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __matmul__(self, other):
        return self.__mul__(other)

    def scale(self, c) -> "ExactMatrix":
        c = ExactScalar.coerce(c)
        return ExactMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def adjoint(self) -> "ExactMatrix":
        adj = self._adj
        if adj is None:
            e, r, c = self.entries, self.rows, self.cols
            adj = ExactMatrix(c, r, [e[i * c + j].conjugate() for j in range(c) for i in range(r)])
            adj._adj = self
            self._adj = adj
        return adj

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product; the (i, j) block of the result is self[i, j] * other."""
        a, b = self.entries, other.entries
        ac, br, bc = self.cols, other.rows, other.cols
        cols = ac * bc
        out = [EX_ZERO] * (self.rows * br * cols)
        for i in range(self.rows):
            for j in range(ac):
                av = a[i * ac + j]
                if av is EX_ZERO:
                    continue
                for p in range(br):
                    ro = (i * br + p) * cols + j * bc
                    bo = p * bc
                    for q in range(bc):
                        bv = b[bo + q]
                        if bv is not EX_ZERO:
                            out[ro + q] = av * bv
        return ExactMatrix(self.rows * br, cols, out)

    def trace(self) -> ExactScalar:
        if self.rows != self.cols:
            raise DimensionError("trace of a non-square matrix")
        t = EX_ZERO
        for i in range(self.rows):
            t = t + self.entries[i * self.cols + i]
        return t

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def to_approx(self) -> "ApproxMatrix":
        arr = np.zeros((self.rows, self.cols), dtype=np.complex128)
        for i, j, e in self.support():
            arr[i, j] = complex(e)
        return ApproxMatrix(arr)

    def __str__(self):
        cells = [[str(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join("  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols))
                         for i in range(self.rows))

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def block_row(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    """Horizontal concatenation [p_1 p_2 ... p_m]."""
    parts = list(parts)
    if not parts:
        raise DimensionError("block_row of no blocks")
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise DimensionError("block_row requires equal row counts")
    cols = sum(p.cols for p in parts)
    out = [EX_ZERO] * (rows * cols)
    off = 0
    for p in parts:
        for i, j, e in p.support():
            out[i * cols + off + j] = e
        off += p.cols
    return ExactMatrix(rows, cols, out)


def block_col(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    """Vertical concatenation."""
    parts = list(parts)
    if not parts:
        raise DimensionError("block_col of no blocks")
    cols = parts[0].cols
    if any(p.cols != cols for p in parts):
        raise DimensionError("block_col requires equal column counts")
    rows = sum(p.rows for p in parts)
    out = [EX_ZERO] * (rows * cols)
    off = 0
    for p in parts:
        for i, j, e in p.support():
            out[(off + i) * cols + j] = e
        off += p.rows
    return ExactMatrix(rows, cols, out)


def block_diag(parts: Sequence[ExactMatrix]) -> ExactMatrix:
    parts = list(parts)
    if not parts:
        raise DimensionError("block_diag of no blocks")
    rows = sum(p.rows for p in parts)
    cols = sum(p.cols for p in parts)
    out = [EX_ZERO] * (rows * cols)
    ro = co = 0
    for p in parts:
        for i, j, e in p.support():
            out[(ro + i) * cols + co + j] = e
        ro += p.rows
        co += p.cols
    return ExactMatrix(rows, cols, out)


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
    return block_col([block_row(row) for row in blocks])


class ApproxMatrix:
    """Dense complex128 matrix; the carrier for norms and singular values."""

    __slots__ = ("array",)

    def __init__(self, array):
        arr = np.array(array, dtype=np.complex128, copy=True)
        if arr.ndim != 2:
            raise DimensionError("ApproxMatrix requires a 2-d array")
        arr.setflags(write=False)
        self.array = arr

    @classmethod
    def from_exact(cls, m: ExactMatrix) -> "ApproxMatrix":
        return m.to_approx()

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __repr__(self):
        return f"ApproxMatrix({self.rows}x{self.cols})"


def _as_array(a) -> np.ndarray:
    if isinstance(a, ApproxMatrix):
        arr = a.array
    elif isinstance(a, ExactMatrix):
        arr = a.to_approx().array
    else:
        arr = np.asarray(a, dtype=np.complex128)
        if arr.ndim != 2:
            raise DimensionError("expected a 2-d array")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise NumericError("matrix has non-finite entries")
    return arr


def singular_values(a) -> np.ndarray:
    """All singular values, descending, via LAPACK ``eigvalsh`` on the smaller
    Gram matrix.

    Gram eigenvalues below the numerical-rank cutoff (relative to the largest)
    are treated as exact zeros; squaring would otherwise inflate them to
    sqrt(eps)-sized spurious singular values.
    """
    arr = _as_array(a)
    if arr.shape[0] <= arr.shape[1]:
        gram = arr @ arr.conj().T
    else:
        gram = arr.conj().T @ arr
    try:
        eigs = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigenvalues did not converge: {exc}") from exc
    eigs = np.clip(eigs, 0.0, None)
    if eigs.size:
        cutoff = eigs[-1] * max(arr.shape) * 8.0 * np.finfo(np.float64).eps
        eigs[eigs <= cutoff] = 0.0
    return np.sqrt(eigs)[::-1]


def operator_norm(a) -> float:
    """Largest singular value."""
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def trace_norm(a) -> float:
    """Sum of singular values.  For the wide/tall Gram reduction this counts
    only min(rows, cols) values, which is all of the nonzero ones."""
    return float(np.sum(singular_values(a)))


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
