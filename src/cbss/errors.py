"""Exception types shared across the package."""


class CbssError(Exception):
    """Base class for all package errors."""


class DimensionError(CbssError, ValueError):
    """Array shapes are incompatible with the requested operation."""


class NumericalError(CbssError, ArithmeticError):
    """A numerical procedure failed (singularity, non-convergence, ...)."""


class SingularMatrixError(NumericalError):
    """Matrix is singular to working tolerance."""


class NotPositiveDefiniteError(NumericalError):
    """Matrix has an eigenvalue at or below the positive-definiteness tolerance."""


class NonConvergenceError(NumericalError):
    """Iterative solver hit its iteration cap without converging."""


class NonFiniteError(NumericalError, ValueError):
    """Input or intermediate array holds a NaN or an infinity."""


class NotHermitianError(CbssError, ValueError):
    """Matrix is not conjugate symmetric to working tolerance."""


class PhaseError(CbssError, ValueError):
    """Row phase is undefined (zero diagonal entry or orthogonal reference row)."""


class ConfigError(CbssError, ValueError):
    """Invalid configuration or input file."""


class ExperimentError(CbssError, RuntimeError):
    """A Monte-Carlo experiment exceeded its allowed failure budget."""
