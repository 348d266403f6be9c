"""Shared exception types."""


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class NumericError(ArithmeticError):
    """Floating-point input is not finite or an iteration failed to converge."""


class CapacityError(ValueError):
    """Requested size exceeds the supported desk-scale caps."""


class TransformError(RuntimeError):
    """A grid-to-matrix-unit transform violated one of its defining identities."""


class DecompositionError(RuntimeError):
    """A factor in a word decomposition vanished or violated uniqueness."""
