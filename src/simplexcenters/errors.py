"""Exception hierarchy for geometric failure modes."""


class SimplexError(Exception):
    """Base class for all geometric errors raised by this package."""


class NotEmbeddable(SimplexError):
    """Edge lengths admit no Euclidean realization (negative Gram eigenvalue)."""


class Degenerate(SimplexError):
    """A simplex or sub-simplex has zero volume."""


class PointAtInfinity(SimplexError):
    """Homogeneous coordinate sum is zero; the point has no affine image."""


class ZeroCoordinate(SimplexError):
    """An operation requires all barycentric coordinates to be nonzero."""


class OnSideplane(ZeroCoordinate):
    """The point lies on a sideplane (some coordinate is zero)."""


class NotATriangle(SimplexError):
    """Three lengths violate the triangle inequality."""


class ParallelLine(SimplexError):
    """A line does not meet the requested sideplane."""


class UnboundedAntipedal(SimplexError):
    """The antipedal construction is unbounded (singular vertex system)."""


class CenterAtVertex(SimplexError):
    """An inversion center coincides with a simplex vertex."""


class AtVertex(SimplexError):
    """The point coincides with a simplex vertex where a distance must not vanish."""


class MaxIterationsExceeded(SimplexError):
    """A solver run ended without an answer: it did not converge within its
    budget, stalled or escaped.  Its record, whose ``reason`` says why, is
    attached as ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
