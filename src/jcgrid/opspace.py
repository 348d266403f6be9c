"""Level-m norms and the witnesses separating the signed-combination spaces
from the row and column spaces.

An ``AmplifiedElement`` is a block array of coefficient vectors over a basis.
The ratio of its materialized norms over two bases is a certified lower bound
on the cb-norm of the coefficient transport between them (witness direction
only; no upper bounds are ever claimed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import DimensionError
from .hnk import HnkSpace, build_hnk
from .numlin import ExactMatrix, ExactScalar, operator_norm


@dataclass(frozen=True)
class AmplifiedElement:
    """A block_rows x block_cols array of coefficient vectors over a basis."""

    block_rows: int
    block_cols: int
    coeffs: Tuple[Tuple[Tuple, ...], ...]

    def __post_init__(self):
        if len(self.coeffs) != self.block_rows:
            raise DimensionError("coefficient grid has wrong number of block rows")
        if any(len(r) != self.block_cols for r in self.coeffs):
            raise DimensionError("coefficient grid has ragged block rows")

    def materialize(self, basis: Sequence[ExactMatrix]) -> np.ndarray:
        dim = len(basis)
        rows, cols = basis[0].rows, basis[0].cols
        arrays = [b.to_approx().array for b in basis]
        out = np.zeros((self.block_rows * rows, self.block_cols * cols),
                       dtype=np.complex128)
        for br in range(self.block_rows):
            for bc in range(self.block_cols):
                vec = self.coeffs[br][bc]
                if len(vec) != dim:
                    raise DimensionError("coefficient vector length != basis size")
                block = out[br * rows:(br + 1) * rows, bc * cols:(bc + 1) * cols]
                for a, arr in zip(vec, arrays):
                    z = complex(a)
                    if z != 0:
                        block += z * arr
        return out


def level_norm(basis: Sequence[ExactMatrix], elem: AmplifiedElement) -> float:
    """Operator norm of the materialized block matrix."""
    return operator_norm(elem.materialize(basis))


def _unit_vector(n: int, i: int) -> Tuple:
    return tuple(ExactScalar(1) if j == i else ExactScalar(0) for j in range(n))


def row_witness(space: HnkSpace) -> AmplifiedElement:
    """The 1 x n block row [u_1 ... u_n]; its norm is sqrt(k)."""
    n = space.n
    return AmplifiedElement(1, n, (tuple(_unit_vector(n, i) for i in range(n)),))


def col_witness(space: HnkSpace) -> AmplifiedElement:
    """The n x 1 block column; its norm is sqrt(n - k + 1)."""
    n = space.n
    return AmplifiedElement(n, 1, tuple((_unit_vector(n, i),) for i in range(n)))


def row_space_basis(n: int) -> List[ExactMatrix]:
    """Basis of the length-n row space: units e_{1j} in 1 x n matrices."""
    return [ExactMatrix.unit(1, n, 0, j) for j in range(n)]


def col_space_basis(n: int) -> List[ExactMatrix]:
    """Basis of the length-n column space: units e_{i1} in n x 1 matrices."""
    return [ExactMatrix.unit(n, 1, i, 0) for i in range(n)]


@dataclass(frozen=True)
class CbSeparationReport:
    """Witness norms and ratios against the row and column spaces.

    The ratios are certified lower bounds for the cb-norm of any isometric
    coefficient transport (the row/column spaces are homogeneous, so one
    witness rules out all of them); a ratio of 1 means no separation is
    claimed in that direction.
    """

    n: int
    k: int
    row_witness_norm: float
    row_image_norm: float
    ratio_vs_row_space: float
    col_witness_norm: float
    col_image_norm: float
    ratio_vs_col_space: float
    sum_left_supports_is_k_identity: bool
    sum_right_supports_is_other_identity: bool
    degenerate: str

    def mismatches(self) -> List[str]:
        """What disagrees with the exact values: a false support identity, or
        a float norm off by more than 1e-9 relative.  The identities fix the
        norms: sqrt(k) for the row witness, sqrt(n - k + 1) for the column
        witness and sqrt(n) for both images."""
        out = []
        if not self.sum_left_supports_is_k_identity:
            out.append("sum u_i u_i* != k.I")
        if not self.sum_right_supports_is_other_identity:
            out.append("sum u_i* u_i != (n-k+1).I")
        n, k = self.n, self.k
        for name, got, square, label in (
                ("row witness norm", self.row_witness_norm, k, "sqrt(k)"),
                ("col witness norm", self.col_witness_norm, n - k + 1, "sqrt(n-k+1)"),
                ("image-in-row-space norm", self.row_image_norm, n, "sqrt(n)"),
                ("image-in-col-space norm", self.col_image_norm, n, "sqrt(n)")):
            want = math.sqrt(square)
            if not abs(got - want) <= 1e-9 * want:
                out.append(f"{name}={got:.12f} but {label}={want:.12f}")
        return out

    def lines(self) -> List[str]:
        out = [
            f"space n={self.n} k={self.k}",
            f"row witness: norm={self.row_witness_norm:.8f} "
            f"image-in-row-space norm={self.row_image_norm:.8f} "
            f"ratio={self.ratio_vs_row_space:.8f}",
            f"col witness: norm={self.col_witness_norm:.8f} "
            f"image-in-col-space norm={self.col_image_norm:.8f} "
            f"ratio={self.ratio_vs_col_space:.8f}",
            "exact support identities: "
            f"sum u_i u_i* = k.I: {self.sum_left_supports_is_k_identity}, "
            f"sum u_i* u_i = (n-k+1).I: {self.sum_right_supports_is_other_identity}",
        ]
        mismatches = self.mismatches()
        if self.degenerate:
            out.append(self.degenerate)
        if mismatches:
            out.append("not certified: " + "; ".join(mismatches))
        elif not self.degenerate:
            out.append(
                "certified: no isometric coefficient transport onto the row or "
                "column space is completely contractive (lower bounds above)")
        return out


def support_sum_identities(space: HnkSpace) -> Tuple[bool, bool]:
    """Exact checks sum u_i u_i* = k.I and sum u_i* u_i = (n-k+1).I."""
    rows, cols = space.shape
    left = ExactMatrix.zeros(rows, rows)
    right = ExactMatrix.zeros(cols, cols)
    for u in space.rank_one.elements:
        left = left + u.left_support()
        right = right + u.right_support()
    k_id = ExactMatrix.identity(rows).scale(ExactScalar(space.k))
    o_id = ExactMatrix.identity(cols).scale(ExactScalar(space.n - space.k + 1))
    return left == k_id, right == o_id


def cb_separation_report(n: int, k: int) -> CbSeparationReport:
    """Witness norms for H(n, k) against the row and column spaces.

    For 1 < k < n both ratios exceed 1: sqrt(n/k) against the row space and
    sqrt(n/(n-k+1)) against the column space.  For k = n (row space itself)
    and k = 1 (column space itself) the matching ratio is 1 and no separation
    is claimed.  ``build_hnk`` rejects an invalid (n, k) and caps n.
    """
    space = build_hnk(n, k)
    left_ok, right_ok = support_sum_identities(space)
    rw = row_witness(space)
    cw = col_witness(space)
    h_basis = list(space.basis)
    rnorm = level_norm(h_basis, rw)
    cnorm = level_norm(h_basis, cw)
    r_image = level_norm(row_space_basis(n), rw)
    c_image = level_norm(col_space_basis(n), cw)
    degenerate = ""
    if k == n:
        degenerate = "degenerate: H(n,n) is the row space; ratio vs row space is 1"
    elif k == 1:
        degenerate = "degenerate: H(n,1) is the column space; ratio vs column space is 1"
    return CbSeparationReport(
        n=n, k=k,
        row_witness_norm=rnorm, row_image_norm=r_image,
        ratio_vs_row_space=r_image / rnorm,
        col_witness_norm=cnorm, col_image_norm=c_image,
        ratio_vs_col_space=c_image / cnorm,
        sum_left_supports_is_k_identity=left_ok,
        sum_right_supports_is_other_identity=right_ok,
        degenerate=degenerate,
    )
