"""Generalized Apollonian spheres and isodynamic points.

For a point P = [p_1 : ... : p_{n+1}] off the sideplanes, the sphere for
the vertex pair (i, j) has diameter endpoints [p_i : p_j] and [-p_i : p_j]
(slots i, j) and is the locus where distances to the two vertices satisfy
d(A_i, X) : d(A_j, X) = 1/|p_i| : 1/|p_j|.  When |p_i| = |p_j| the sphere
degenerates to the perpendicular bisector hyperplane of the edge, which is
recorded as a sphere with no center and infinite radius.

All sphere centers lie on the polar hyperplane of the componentwise square
of P, every sphere meets the circumsphere orthogonally, and any common
point of the family lies on the line through the circumcenter perpendicular
to that hyperplane.  Intersecting this axis with one sphere therefore
decides existence, and membership in the remaining spheres is verified
rather than assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .barycentric import (
    BarycentricPoint,
    Hyperplane,
    SimplexModel,
    _all_equal,
    _readonly,
    _zero_entries,
    _zero_sum,
    as_point,
    circumcenter_cart,
    embed_from_edge_lengths,
    EdgeLengthTable,
)
from .errors import (
    AtVertex,
    AxisUndefined,
    NotATriangle,
    ParallelLine,
    ZeroCoordinate,
)

# Discriminant window (relative to squared circumradius) inside which the
# axis-sphere intersection is reported as a single tangency point.
_TANGENCY_REL = 1e-12


@dataclass(frozen=True)
class ApollonianSphere:
    """One generalized Apollonian sphere of a vertex pair.

    ``center`` is the midpoint [-p_i^2 : p_j^2] (slots i, j) of the diameter
    ends, ``cart_center`` the same point as a read-only Cartesian array, and
    ``radius`` half the distance between the ends.  A perpendicular-bisector
    sphere (|p_i| = |p_j|) has both centers ``None`` and ``radius`` infinite.
    """

    i: int
    j: int
    diameter_ends: tuple[BarycentricPoint, BarycentricPoint]
    center: BarycentricPoint | None
    cart_center: np.ndarray | None
    radius: float

    @property
    def is_degenerate(self) -> bool:
        return self.center is None


@dataclass(frozen=True)
class IsodynamicResult:
    """Common points of all Apollonian spheres of a point, if any.

    ``residuals`` holds the worst distance-ratio residual of each point.
    ``degenerate_axis`` marks the all-equal case, where every sphere is a
    perpendicular bisector and the one point is the circumcenter.
    """

    points: list[BarycentricPoint]
    residuals: list[float]
    degenerate_axis: bool = False
    note: str | None = None


@dataclass(frozen=True)
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
    return BarycentricPoint.homogeneous(c)


def apollonian_sphere(p, i: int, j: int, model: SimplexModel) -> ApollonianSphere:
    """Sphere of the vertex pair (i, j) for the given point (0-based indices)."""
    coords = as_point(p, model.n).coords
    if i == j or not (0 <= i <= model.n and 0 <= j <= model.n):
        raise ValueError(f"vertex indices must be distinct and in 0..{model.n}, "
                         f"got ({i}, {j})")
    if _zero_entries(coords)[[i, j]].any():
        raise ZeroCoordinate("Apollonian sphere needs nonzero coordinates at both vertices")
    pi, pj = float(coords[i]), float(coords[j])

    end_in = _slot_point(model.n, i, j, pi, pj)
    end_out = _slot_point(model.n, i, j, -pi, pj)
    if _all_equal(np.abs(coords[[i, j]])):
        # equal-magnitude coordinates: the locus is the perpendicular
        # bisector of edge (i, j)
        return ApollonianSphere(i=i, j=j, diameter_ends=(end_in, end_out),
                                center=None, cart_center=None, radius=math.inf)

    c1 = model.bary_to_cart(end_in)
    c2 = model.bary_to_cart(end_out)
    return ApollonianSphere(i=i, j=j, diameter_ends=(end_in, end_out),
                            center=_slot_point(model.n, i, j, -pi ** 2, pj ** 2),
                            cart_center=_readonly(0.5 * (c1 + c2)),
                            radius=0.5 * float(np.linalg.norm(c1 - c2)))


def sphere_family(p, model: SimplexModel) -> list[ApollonianSphere]:
    """All C(n+1, 2) Apollonian spheres of a point."""
    return [apollonian_sphere(p, i, j, model)
            for i, j in itertools.combinations(range(model.n + 1), 2)]


def membership_residual(p, x: np.ndarray, model: SimplexModel) -> float:
    """Worst relative violation of the distance-ratio conditions at x.

    Zero exactly on the common locus d(A_i, x) |p_i| = d(A_j, x) |p_j|.
    """
    coords = np.abs(as_point(p, model.n).coords)
    dv = np.linalg.norm(model.vertices - np.asarray(x, float)[None, :], axis=1)
    w = dv * coords
    hi = w.max()
    return float((hi - w.min()) / hi) if hi > 0 else 0.0


def isodynamic_points(p, model: SimplexModel) -> IsodynamicResult:
    """Common points of all Apollonian spheres of a point, via the axis.

    Returns zero, one, or two points.  With two points, they are inverses
    with respect to the circumsphere; a single point is a tangency on the
    circumsphere.  If all coordinate magnitudes are equal every sphere is a
    perpendicular bisector and the circumcenter is returned with a note.
    """
    pt = as_point(p, model.n)
    coords = pt.coords
    if _zero_entries(coords).any():
        raise ZeroCoordinate("isodynamic points need all coordinates nonzero")

    center, radius = circumcenter_cart(model)

    if _all_equal(coords ** 2):
        # every sphere degenerates to a perpendicular bisector; the family
        # meets exactly at the circumcenter and the axis has no direction
        return IsodynamicResult(
            points=[model.cart_to_bary(center)],
            residuals=[membership_residual(pt, center, model)],
            degenerate_axis=True,
            note="all coordinate magnitudes equal; spheres degenerate to "
                 "perpendicular bisectors meeting at the circumcenter",
        )

    # polar plane of the componentwise square; its coefficients 1/p_i^2 need
    # no second zero test, the entry test above covers them
    direction = Hyperplane.from_bary_coeffs(1.0 / coords ** 2, model).cart_normal

    spheres = (apollonian_sphere(pt, i, j, model)
               for i, j in itertools.combinations(range(model.n + 1), 2))
    solving = next((s for s in spheres if not s.is_degenerate), None)
    if solving is None:  # pragma: no cover - excluded by the ptp check
        raise AxisUndefined("all spheres degenerate")

    oc = center - solving.cart_center
    b = 2.0 * float(direction @ oc)
    c0 = float(oc @ oc) - solving.radius ** 2
    disc = b * b - 4.0 * c0
    window = _TANGENCY_REL * radius ** 2

    if disc < -window:
        return IsodynamicResult(points=[], residuals=[])
    if disc <= window:
        ts = [-b / 2.0]
    else:
        root = math.sqrt(disc)
        ts = [(-b - root) / 2.0, (-b + root) / 2.0]

    pts_cart = [center + t * direction for t in ts]
    points = [model.cart_to_bary(x) for x in pts_cart]
    residuals = [membership_residual(pt, x, model) for x in pts_cart]

    def sort_key(item):
        point, x = item
        interior = bool(np.all(point.coords > 0))
        return (0 if interior else 1, float(np.linalg.norm(x - center)))

    order = sorted(range(len(points)), key=lambda k: sort_key((points[k], pts_cart[k])))
    return IsodynamicResult(points=[points[k] for k in order],
                            residuals=[residuals[k] for k in order])


def yiu_triangle_test(d23: float, d13: float, d12: float,
                      a1: float, a2: float, a3: float) -> YiuVerdict:
    """Circumcircle criterion for common points of weighted Apollonian circles.

    The circles in question are those of the point [a1 : a2 : a3] with
    respect to the triangle with side d23 opposite the first vertex, d13
    the second, d12 the third.  The returned point is the pole of the
    circle-centers line with respect to the circumcircle: the circles have
    no common point precisely when it falls outside the circumcircle.
    """
    sides = (float(d23), float(d13), float(d12))
    if min(sides) <= 0 or min(a1, a2, a3) <= 0:
        raise ValueError("side lengths and weights must be positive")
    s0, s1, s2 = sides
    if s0 >= s1 + s2 or s1 >= s0 + s2 or s2 >= s0 + s1:
        raise NotATriangle(f"lengths {sides} violate the triangle inequality")

    t1 = d23 ** 2 / a1 ** 2
    t2 = d13 ** 2 / a2 ** 2
    t3 = d12 ** 2 / a3 ** 2
    q = np.array([
        d23 ** 2 * (t1 - t2 - t3),
        d13 ** 2 * (t2 - t3 - t1),
        d12 ** 2 * (t3 - t1 - t2),
    ])
    point = BarycentricPoint.homogeneous(q)

    model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [d12, d13, d23]))
    center, radius = circumcenter_cart(model)
    if not point.is_finite():
        # the pole escapes to infinity; certainly outside the circumcircle
        return YiuVerdict(point=point, outside=True,
                          distance=math.inf, circumradius=radius)
    dist = math.sqrt(model.squared_distance(point, model.cart_to_bary(center)))
    return YiuVerdict(point=point, outside=dist > radius,
                      distance=dist, circumradius=radius)


def collinear_cross_ratio(a, b, c, d) -> float:
    """Signed cross-ratio of four collinear Cartesian points.

    Parametrizes the line through a and b and returns
    ((c-a)(d-b)) / ((c-b)(d-a)) in line parameters; a harmonic range listed
    in line order a, c, b, d gives -1.
    """
    a = np.asarray(a, float)
    u = np.asarray(b, float) - a
    u = u / float(u @ u)
    ta, tb, tc, td = (0.0, 1.0,
                      float((np.asarray(c, float) - a) @ u),
                      float((np.asarray(d, float) - a) @ u))
    return ((tc - ta) * (td - tb)) / ((tc - tb) * (td - ta))


def restrict_to_facet(p, model: SimplexModel,
                      facet_index: int) -> tuple[SimplexModel, BarycentricPoint]:
    """Project a point through the opposite vertex onto a facet.

    Returns the facet as its own (n-1)-model in canonical pose, together
    with the intersection of the line (vertex ``facet_index``) -- P with the
    facet's sideplane, expressed in the facet's own coordinates.  A
    triangle's facet is a segment, and the point on it is [p_j : p_k].
    """
    pt = as_point(p, model.n)
    coords = pt.coords
    i = facet_index
    if not 0 <= i <= model.n:
        raise ValueError(f"facet index must be in 0..{model.n}, got {i}")
    if np.delete(_zero_entries(coords), i).all():
        raise AtVertex("point coincides with the opposite vertex")
    # line A_i + span(P): zero out slot i, keep remaining coordinates
    hit = np.delete(coords, i)
    if _zero_sum(hit):
        raise ParallelLine("line through the opposite vertex misses the facet")
    keep = [j for j in range(model.n + 1) if j != i]
    facet_model = embed_from_edge_lengths(model.edges.subtable(keep))
    return facet_model, BarycentricPoint.homogeneous(hit)
