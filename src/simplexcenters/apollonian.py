"""Generalized Apollonian spheres and isodynamic points.

For a point P = [p_1 : ... : p_{n+1}] off the sideplanes, the sphere for
the vertex pair (i, j) has diameter endpoints [p_i : p_j] and [-p_i : p_j]
(slots i, j) and is the locus where distances to the two vertices satisfy
d(A_i, X) : d(A_j, X) = 1/|p_i| : 1/|p_j|.  When |p_i| = |p_j| the sphere
degenerates to the perpendicular bisector hyperplane of the edge, which is
recorded as a sphere with no center and infinite radius.

Every sphere meets the circumsphere orthogonally, and the common points
of the family lie on one line through the circumcenter.  Number the
vertices A_0 ... A_n and the weights p_0 ... p_n from zero.  In a model's
frame (A_0 = 0, rows A_1 ... A_n of V) a common point X has
p_i^2 |X - A_i|^2 = mu for every i.  Less the i = 0 equation this is the
linear system 2 V X = |A_i|^2 - mu w, with w_i = 1/p_i^2 - 1/p_0^2, so
X = c - mu e with c the circumcenter and 2 V e = w; then |X|^2 = mu/p_0^2
leaves one quadratic in mu,

    |e|^2 mu^2 - (2 c.e + 1/p_0^2) mu + |c|^2 = 0,

which decides existence.  It is solved along the line: with u = e/|e|,
k = 1/(p_0^2 |e|) and F = c - (c.u) u the foot of the perpendicular from
A_0, X = F - tau u and

    tau^2 - k tau + |F|^2 - k (c.u) = 0,

which keeps the digits that c - mu e loses when the points lie close
together compared with the circumradius.  Membership in every sphere is
then measured, not assumed.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .barycentric import (
    BarycentricPoint,
    EdgeLengthTable,
    SimplexModel,
    _all_equal,
    _frozen,
    _gram_defect,
    _lapack,
    _nonzero,
    _stored,
    _vertex_index,
    _zero_entries,
    as_point,
    embed_from_edge_lengths,
)
from .errors import AtVertex, NotEmbeddable, PointAtInfinity, ZeroCoordinate

# Window on the squared distance between the two isodynamic points, relative
# to the squared circumradius, inside which they are one tangency point.
_TANGENCY_REL = 1e-12


@dataclass(frozen=True, eq=False)
class ApollonianSphere:
    """One generalized Apollonian sphere of a vertex pair.

    ``cart_center`` is the midpoint of the diameter ends, the point
    [-p_i^2 : p_j^2] (slots i, j), as a read-only Cartesian array, and
    ``radius`` half the distance between the ends.  A perpendicular-bisector
    sphere (|p_i| = |p_j|) has ``cart_center`` ``None`` and ``radius`` infinite.
    """

    i: int
    j: int
    diameter_ends: tuple[BarycentricPoint, BarycentricPoint]
    cart_center: np.ndarray | None
    radius: float

    @property
    def is_degenerate(self) -> bool:
        return self.cart_center is None


@dataclass(frozen=True, eq=False)
class IsodynamicResult:
    """Common points of all Apollonian spheres of a point, if any.

    ``residuals`` holds the worst distance-ratio residual of each point.
    ``note`` is None unless every sphere is a perpendicular bisector (all
    magnitudes equal) and the one point is the circumcenter.
    """

    points: list[BarycentricPoint]
    residuals: list[float]
    note: str | None = None


@dataclass(frozen=True, eq=False)
class YiuVerdict:
    """Outcome of the circumcircle test for common points of the three
    Apollonian circles of a weighted triangle."""

    point: BarycentricPoint
    outside: bool
    distance: float
    circumradius: float

    @property
    def circles_meet(self) -> bool:
        return not self.outside


def _slot_point(n: int, i: int, j: int, vi: float, vj: float) -> BarycentricPoint:
    c = np.zeros(n + 1)
    c[i] = vi
    c[j] = vj
    return BarycentricPoint(c)


def apollonian_sphere(p, i: int, j: int, model: SimplexModel) -> ApollonianSphere:
    """Sphere of the vertex pair (i, j) for the given point (0-based indices)."""
    coords = as_point(p, model.n).coords
    i, j = (_vertex_index(k, model.n, "vertex indices") for k in (i, j))
    if i == j:
        raise ValueError(f"vertex indices must be distinct, got ({i}, {j})")
    if _zero_entries(coords)[[i, j]].any():
        raise ZeroCoordinate("Apollonian sphere needs nonzero coordinates at both vertices")
    pi, pj = float(coords[i]), float(coords[j])

    end_in = _slot_point(model.n, i, j, pi, pj)
    end_out = _slot_point(model.n, i, j, -pi, pj)
    if _all_equal(np.abs(coords[[i, j]])):
        # equal-magnitude coordinates: the locus is the perpendicular
        # bisector of edge (i, j)
        return ApollonianSphere(i=i, j=j, diameter_ends=(end_in, end_out),
                                cart_center=None, radius=math.inf)

    c1, c2 = (model._frame(end) for end in (end_in, end_out))
    gap = c1 - c2
    return ApollonianSphere(i=i, j=j, diameter_ends=(end_in, end_out),
                            cart_center=_frozen(model._from_frame(0.5 * (c1 + c2))),
                            radius=float(model._absolute(0.5 * math.sqrt(gap @ gap))))


def sphere_family(p, model: SimplexModel) -> list[ApollonianSphere]:
    """All C(n+1, 2) Apollonian spheres of a point."""
    return [apollonian_sphere(p, i, j, model)
            for i, j in itertools.combinations(range(model.n + 1), 2)]


def _frame_residual(p, y: np.ndarray, model: SimplexModel) -> float:
    """Worst relative violation of the distance-ratio conditions at a point
    of the model's frame: zero exactly on the common locus
    d(A_i, y) |p_i| = d(A_j, y) |p_j|."""
    w = model._rays(y)[1] * np.abs(as_point(p, model.n).coords)
    hi = w.max()
    return float((hi - w.min()) / hi) if hi > 0 else 0.0


def isodynamic_points(p, model: SimplexModel) -> IsodynamicResult:
    """Common points of all Apollonian spheres of a point, on X = c - mu e.

    Returns zero, one, or two points, interior ones first, then by distance
    from the circumcenter.  Two points are inverses with respect to the
    circumsphere; a single point is a tangency on it.  If all coordinate
    magnitudes are equal, e = 0: every sphere is a perpendicular bisector
    and the circumcenter is returned with a note.
    """
    pt = as_point(p, model.n)
    points, frame_points, note = _common_points(pt.coords, model)
    return IsodynamicResult(points=points,
                            residuals=[_frame_residual(pt, y, model) for y in frame_points],
                            note=note)


def _common_points(coords: np.ndarray, model: SimplexModel,
                   ) -> tuple[list[BarycentricPoint], list[np.ndarray], str | None]:
    """:func:`isodynamic_points`' points of the point stored as ``coords``, in
    its order, with their frame positions and its note, which is None unless
    the axis is degenerate; no residual is measured."""
    _nonzero(coords, "isodynamic points need all coordinates nonzero")
    center, radius = model._circumcenter
    if _all_equal(coords ** 2):
        return ([BarycentricPoint(model._coords(center))], [center],
                "all coordinate magnitudes equal; spheres degenerate to "
                "perpendicular bisectors meeting at the circumcenter")

    inverse_squares = (coords / np.maximum.reduce(np.abs(coords))) ** -2   # 1/p_i^2, max |p_i| = 1
    e = _lapack.solve1(2.0 * model._local[1:], inverse_squares[1:] - inverse_squares[0],
                       signature="dd->d")
    norm = math.sqrt(e @ e)
    u, k = e / norm, inverse_squares[0] / norm
    s = float(center @ u)
    foot = center - s * u
    product = float(foot @ foot) - k * s   # of the two roots tau
    half_gap = 0.25 * k * k - product   # |X_+ - X_-|^2 / 4
    window = 0.25 * _TANGENCY_REL * radius ** 2
    if half_gap < -window:
        return [], [], None
    root = math.sqrt(half_gap) if half_gap > window else 0.0
    far = 0.5 * k + root   # the near root is product / far, without cancellation
    taus = [product / far, far] if root else [far]
    frame_points = [foot - tau * u for tau in taus]
    points = [BarycentricPoint(model._coords(y)) for y in frame_points]
    # tau + c.u = mu |e| is the distance from the circumcenter
    order = sorted(range(len(taus)), key=lambda j: (min(points[j].coords.tolist()) <= 0, taus[j]))
    return [points[j] for j in order], [frame_points[j] for j in order], None


def yiu_triangle_test(d23: float, d13: float, d12: float,
                      a1: float, a2: float, a3: float) -> YiuVerdict:
    """Circumcircle criterion for common points of weighted Apollonian circles.

    The circles in question are those of the point [a1 : a2 : a3] with
    respect to the triangle with side d23 opposite the first vertex, d13
    the second, d12 the third.  The returned point is the pole of the
    circle-centers line with respect to the circumcircle: the circles have
    no common point precisely when it falls outside the circumcircle.  The
    pole is homogeneous in the sides and the weights: it is computed in
    plain floats on the sides scaled by the power of two that brings the
    longest into [1/2, 1), and only the distances are scaled back.  The
    sides' Gram matrix raises ``Degenerate`` or ``NotEmbeddable`` where
    ``embed_from_edge_lengths`` would, such as ``NotEmbeddable`` for a
    violated triangle inequality; no model is built.
    """
    sides = (float(d23), float(d13), float(d12))
    if min(sides) <= 0 or min(a1, a2, a3) <= 0:
        raise ValueError("side lengths and weights must be positive")
    if not all(map(math.isfinite, sides)):
        raise ValueError("edge lengths must be finite")

    exponent = math.frexp(max(sides))[1]
    a, b, c = (math.ldexp(s, -exponent) for s in sides)
    # Gram matrix of the edges from the first vertex to the second and third
    g01 = 0.5 * (c * c + b * b - a * a)
    defect = _gram_defect(np.array([[c * c, g01], [g01, b * b]]))
    if defect is not None:
        raise defect
    # its Cholesky factor by hand: the vertices (0, 0), (c, 0) and (x2, y2)
    x2 = g01 / c
    y2 = math.sqrt(b * b - x2 * x2)
    ox, oy = 0.5 * c, (x2 * (x2 - c) + y2 * y2) / (2.0 * y2)   # circumcenter
    radius = math.hypot(ox, oy)

    squares = np.array([a * a, b * b, c * c])   # d23^2, d13^2, d12^2
    given = np.array([a1, a2, a3], float)
    weights = _stored(given)[0]   # normalized as a point stores them
    if weights.min() < sys.float_info.min:   # normalized, the least weight underflows
        weights = given
    # the reciprocal weights over their largest, squared: no square overflows
    t = squares * (weights.min() / weights) ** 2
    point = BarycentricPoint(squares * (2.0 * t - t.sum()))   # d_i^2 (t_i - t_j - t_k)
    _, p1, p2 = point.coords.tolist()
    # a pole at infinity is certainly outside the circumcircle
    dist = math.hypot(p1 * c + p2 * x2 - ox, p2 * y2 - oy) if point.is_finite() else math.inf
    with np.errstate(over="ignore"):
        distance, circumradius = np.ldexp([dist, radius], exponent).tolist()
    return YiuVerdict(point=point, outside=dist > radius,
                      distance=distance, circumradius=circumradius)


def collinear_cross_ratio(a, b, c, d) -> float:
    """Signed cross-ratio of four collinear Cartesian points.

    Parametrizes the line through a and b and returns
    ((c-a)(d-b)) / ((c-b)(d-a)) in line parameters; a harmonic range listed
    in line order a, c, b, d gives -1.  The points must be finite vectors of
    one length with a != b, else ``ValueError``; a zero denominator, as at
    c = b or d = a, is the line's point at infinity, ``PointAtInfinity``.
    """
    points = np.array([a, b, c, d], dtype=float)
    if points.ndim != 2 or not np.isfinite(points).all():
        raise ValueError("points must be finite vectors of one length")
    # offsets from a, halved so none overflows, scaled so the largest is in [1/2, 1)
    gaps = 0.5 * points[1:] - 0.5 * points[0]
    gaps = np.ldexp(gaps, -math.frexp(float(np.abs(gaps).max(initial=0.0)))[1])
    square = float(gaps[0] @ gaps[0])
    if square == 0.0:   # b - a vanishes at the points' scale
        raise ValueError("points a and b must be distinct")
    u = gaps[0] / square
    ta, tb, tc, td = 0.0, 1.0, float(gaps[1] @ u), float(gaps[2] @ u)
    denominator = (tc - tb) * (td - ta)
    if denominator == 0.0 or (points[2] == points[1]).all():   # tc may round off tb
        raise PointAtInfinity("cross-ratio is infinite: its denominator (c-b)(d-a) is zero")
    return ((tc - ta) * (td - tb)) / denominator


def restrict_to_facet(p, model: SimplexModel,
                      facet_index: int) -> tuple[SimplexModel, BarycentricPoint]:
    """Project a point through the opposite vertex onto a facet.

    Returns the facet as its own (n-1)-model in canonical pose, together
    with the intersection of the line (vertex ``facet_index``) -- P with the
    facet's sideplane, expressed in the facet's own coordinates.  A
    triangle's facet is a segment, and the point on it is [p_j : p_k].
    """
    coords = as_point(p, model.n).coords
    i = _vertex_index(facet_index, model.n, "facet index")
    if np.delete(_zero_entries(coords), i).all():
        raise AtVertex("point coincides with the opposite vertex")
    # line A_i + span(P): zero out slot i, keep remaining coordinates
    hit = BarycentricPoint(np.delete(coords, i))
    if not hit.is_finite():
        raise PointAtInfinity("line through the opposite vertex misses the facet")
    keep = [j for j in range(model.n + 1) if j != i]
    d = model.edges.d[np.ix_(keep, keep)]
    if not np.isfinite(d).all():
        raise NotEmbeddable(f"facet {i} has an edge beyond float range and no embedding")
    facet_model = embed_from_edge_lengths(EdgeLengthTable(n=model.n - 1, d=_frozen(d)))
    return facet_model, hit
