"""Exception hierarchy for geometric failure modes."""


class SimplexError(Exception):
    """Base class for all geometric errors raised by this package."""


class NotEmbeddable(SimplexError):
    """Edge lengths admit no Euclidean realization (negative Gram eigenvalue),
    such as sides that violate the triangle inequality: raised by
    ``embed_from_edge_lengths``, ``restrict_to_facet`` and ``yiu_triangle_test``."""


class Degenerate(SimplexError):
    """A simplex or sub-simplex has zero volume."""


class PointAtInfinity(SimplexError):
    """Homogeneous coordinate sum is zero; the point has no affine image, such as
    the hit point of ``restrict_to_facet`` on a line parallel to the facet, or
    a ``collinear_cross_ratio`` whose denominator is zero."""


class ZeroCoordinate(SimplexError):
    """A barycentric coordinate that must be nonzero vanishes: the point lies
    on a sideplane (Apollonian spheres, isodynamic points, the antipedal and
    the polar simplex, the isogonal conjugate and the Fermat solver)."""


class AtVertex(SimplexError):
    """The point coincides with a simplex vertex where a distance must not
    vanish (pedal, antipedal, Weiszfeld steps, triad angles, the center of
    ``inversive_image``, the opposite vertex of ``restrict_to_facet``)."""


class MaxIterationsExceeded(SimplexError):
    """A solver run ended without an answer: it did not converge within its
    budget, stalled or escaped.  Its record, whose ``reason`` says why, is
    attached as ``trace``."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
