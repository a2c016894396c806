"""Exception hierarchy shared across the library.

Every numerical failure mode has its own class so callers (and the CLI)
can map them to exit codes without string matching.
"""


class MagflowError(Exception):
    """Base class for all library errors."""


class DomainViolation(MagflowError):
    """A coordinate vector failed the chart's domain guard."""


class DegeneratePlane(MagflowError):
    """The two vectors spanning a plane are (numerically) parallel."""


class ZeroVector(MagflowError):
    """A nonzero vector was required."""


class NonpositiveSpeed(MagflowError):
    """Speed parameters must be strictly positive."""


class NonUnitVector(MagflowError):
    """A g-unit vector was required."""


class NonOrthonormalFrame(MagflowError):
    """The supplied (v, w) pair is not g-orthonormal."""


class NotTangent(MagflowError):
    """A vector expected to be tangent to a submanifold is not."""


class RankDeficient(MagflowError):
    """A parametrization Jacobian dropped rank."""


class DomainExit(MagflowError):
    """An orbit left the chart guard.  Carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NonFiniteState(MagflowError):
    """An orbit reached a state with an infinite or NaN coordinate, as
    when the step is past the RK4 stability limit of a strong field.  Not
    a `DomainViolation`: a chart-free blow-up is no exit from the chart."""


class NonFiniteResult(MagflowError):
    """A result to be written holds an infinite or NaN value."""


class StepLimitExceeded(MagflowError):
    """The integrator hit its step budget."""


class GridMismatch(MagflowError):
    """A sampled field does not match the trajectory's time grid."""


class NotPeriodic(MagflowError):
    """Period refinement failed to close the orbit."""


class ProjectionFailure(MagflowError):
    """Gauss-Newton projection onto a submanifold did not converge."""


class DegenerateImage(MagflowError):
    """A pushed basis became rank-deficient."""


class BadDimension(MagflowError):
    """A dimension parameter is outside its admissible range."""


class UnreliableSplitting(MagflowError):
    """Finite-time expansion too weak to estimate a stable subspace."""
