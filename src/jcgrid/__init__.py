"""Concrete matrix realizations of operator-space grids, with exact and
floating-point verification of their defining identities.

The exact layer works over Gaussian rationals (zero-residual checks); the
floating layer computes operator and trace norms for the block witnesses.
"""

from .errors import (CapacityError, DecompositionError, DimensionError,
                     NumericError, TransformError)
from .grids import (Grid, MatrixUnitFamily, hermitian_grid,
                    hermitian_to_matrix_units, rectangular_grid, spin_grid,
                    spin_system, spin_to_spin_system, symplectic_grid,
                    symplectic_to_matrix_units, verify_grid)
from .hnk import (Combination, HnkSpace, RankOneRealization, SignedUnit,
                  build_hnk, build_uIJ, combinations, decompose_into_ones,
                  diag_hnk, diag_rect, hnk_projection, hnk_projection_exact,
                  indices, peirce_split, signature_general, signature_one,
                  support_product, trace_formula_check, verify_uIJ_grid)
from .numlin import (ApproxMatrix, ExactMatrix, ExactScalar, block_diag,
                     operator_norm, trace_norm)
from .opspace import (AmplifiedElement, cb_separation_report, col_witness,
                      level_norm, row_witness)
from .report import VerificationReport
from .triple import (GridRelation, PartialIsometry, classify_relation,
                     isotope_involution, isotope_product, triple_product)

__version__ = "0.1.0"

# Selects nothing; perfbench/run.py records it, perfbench/compare.py refuses records that differ.
BACKEND = "python"
