"""Exception types shared across the package."""


class PrecondlabError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(PrecondlabError):
    """Operands have incompatible shapes."""


class NotHermitianError(PrecondlabError):
    """A matrix required to be Hermitian fails the symmetry check."""


class NoConvergenceError(PrecondlabError):
    """An eigenvalue or singular-value computation failed to converge."""


class NotUnitaryError(PrecondlabError):
    """A constructed transform matrix fails the unitarity check."""


class NotPositiveDefiniteError(PrecondlabError):
    """A matrix required to be Hermitian positive definite is not."""


class InsufficientLadderError(PrecondlabError):
    """A size ladder is too short or not geometrically doubling."""


class MaxIterationsError(PrecondlabError):
    """An iterative solver hit its iteration cap before converging."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InvariantViolationError(PrecondlabError):
    """A checked mathematical invariant failed at run time."""


class ParseError(PrecondlabError):
    """A config file, symbol file, or preset expression failed to parse."""


class UsageError(PrecondlabError):
    """Invalid command-line arguments."""
