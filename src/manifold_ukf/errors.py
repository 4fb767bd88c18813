"""Exception types shared across the package.

Everything raised on purpose derives from ManifoldUkfError so callers can
catch the whole family with one clause.  Numerical failures inside a filter
recursion are wrapped in FilterStepError, which records the 1-based step
index where the recursion died.
"""


class ManifoldUkfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ManifoldUkfError):
    """Array shapes do not agree with the operation's contract, or an
    argument is not a numeric array (a string, a ragged nested list)."""


class NotARotation(ManifoldUkfError):
    """Matrix is not orthogonal with determinant +1 within tolerance."""


class NearPiRotation(ManifoldUkfError):
    """Rotation angle is too close to pi for the logarithm to be reliable."""


class MalformedEmbedding(ManifoldUkfError):
    """Bottom block rows of a group embedding are not exactly [0 I]."""


class NonFiniteState(ManifoldUkfError):
    """A Euclidean state block, a translation column of a group element or
    a measurement holds NaN or inf."""


class NonPSDCovariance(ManifoldUkfError):
    """Covariance matrix is not symmetric positive semidefinite."""


class InvalidAlpha(ManifoldUkfError):
    """Sigma-point spread parameter is outside (0, 1]."""


class CholeskyFailure(ManifoldUkfError):
    """Covariance factorization failed even after the jitter retry."""


class SingularInnovationCovariance(ManifoldUkfError):
    """Innovation covariance could not be factorized during an update."""


class SingularCovariance(ManifoldUkfError):
    """State covariance is singular where an inverse is required."""


class FilterStepError(ManifoldUkfError):
    """A filter recursion failed; carries the failing step and the cause."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"filter step {step} failed: {cause!r}")
