"""Exception types shared across the package."""


class CicError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CicError, ValueError):
    """Containers that must share a length or shape do not."""


class NonBinaryTreatment(CicError, ValueError):
    """Treatment indicator contains values other than 0 and 1."""


class DegenerateArm(CicError, ValueError):
    """A sample is all-treated or all-control where both arms are required."""


class NonFiniteValue(CicError, ValueError):
    """An outcome, a covariate or an estimate is NaN or infinite."""


class FoldTooSmall(CicError, ValueError):
    """More folds were requested than there are observations."""


class InsufficientData(CicError, ValueError):
    """Too few observations to fit the requested object."""


class NoTreatedInEvaluation(CicError, ValueError):
    """The estimating equation has no treated units to identify the target."""


class NoBracket(CicError, ValueError):
    """Root bracketing failed: no sign change over the supplied interval."""


class ParseError(CicError, ValueError):
    """A CSV row or config entry could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvalidTransform(CicError, ValueError):
    """An outcome transform spec is not strictly increasing or malformed."""
