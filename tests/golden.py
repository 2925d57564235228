"""Expected values and independent oracle helpers shared by the tests.

The tables are float and array views of the one copy in
``simplexcenters.verify``; coordinate tables are normalized (sum 1).
Oracle helpers are deliberately written from first principles (cross
products, Heron's formula, direct circle intersection) so they stay
independent of the library code paths they check.
"""

import itertools
import math

import numpy as np

from simplexcenters import verify

# ---------------------------------------------------------------------------
# reference configuration: tetrahedron with edge lengths (13,11,9,12,5,11)
# whose Apollonian spheres share no point
# ---------------------------------------------------------------------------

# (d12, d13, d14, d23, d24, d34)
GAP_EDGES = tuple(float(v) for v in verify.GAP_TETRAHEDRON_DOC["edge_lengths"]["values"])
GAP_FACET_AREAS = verify.GAP_FACET_AREAS
# (d12, d13, d23) of the first facet
GAP_TRIANGLE_EDGES = tuple(
    float(v) for v in verify.GAP_FACET_TRIANGLE_DOC["edge_lengths"]["values"])
GAP_TRIANGLE_CIRCUMCENTER = tuple(float(f) for f in verify.GAP_FACET_CIRCUMCENTER)
GAP_TRIANGLE_CIRCUMRADIUS = verify.GAP_FACET_CIRCUMRADIUS
GAP_WITNESS = tuple(float(f) for f in verify.GAP_WITNESS)

# ---------------------------------------------------------------------------
# reference configuration: tetrahedron with five isogonic points
# ---------------------------------------------------------------------------

FIVE_VERTICES = np.array(verify.FIVE_ISOGONIC_DOC["vertices"], dtype=float)
FIVE_FACET_VOLUMES = verify.FIVE_FACET_VOLUMES
FIVE_VOLUME = 48.0

CONJUGATE_TABLE = np.array(verify.CONJUGATE_TABLE)
PEDAL_AREA_TABLE = verify.PEDAL_AREA_TABLE
ISOGONIC_TABLE = np.array(verify.ISOGONIC_TABLE)
ANTIPEDAL_AREA_TABLE = verify.ANTIPEDAL_AREA_TABLE
ISODYNAMIC_TABLE = np.array(verify.ISODYNAMIC_TABLE)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def heron_area(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    return math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))


def cross2(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def triangle_area_cross(p0, p1, p2) -> float:
    u = np.asarray(p1, float) - np.asarray(p0, float)
    v = np.asarray(p2, float) - np.asarray(p0, float)
    if u.size == 2:
        return 0.5 * abs(cross2(u, v))
    return 0.5 * float(np.linalg.norm(np.cross(u, v)))


def facet_areas_cross(vertices) -> np.ndarray:
    """Facet areas of a tetrahedron via cross products, entry i opposite i."""
    vertices = np.asarray(vertices, float)
    out = []
    for i in range(4):
        rest = np.delete(vertices, i, axis=0)
        out.append(triangle_area_cross(*rest))
    return np.array(out)


def circle_circle_intersections(c1, r1, c2, r2):
    """0/1/2 intersection points of two circles in the plane."""
    c1 = np.asarray(c1, float)
    c2 = np.asarray(c2, float)
    gap = c2 - c1
    d = float(np.linalg.norm(gap))
    if d > r1 + r2 or d < abs(r1 - r2) or d == 0.0:
        return []
    a = (r1 ** 2 - r2 ** 2 + d ** 2) / (2 * d)
    h2 = r1 ** 2 - a ** 2
    mid = c1 + a * gap / d
    perp = np.array([-gap[1], gap[0]]) / d
    if h2 <= 0.0:
        return [mid]
    h = math.sqrt(h2)
    return [mid + h * perp, mid - h * perp]


def apollonius_circle(a_cart, b_cart, ratio):
    """Circle of points X with |X - a| / |X - b| = ratio (ratio != 1),
    from the two division points of the segment, computed directly."""
    a_cart = np.asarray(a_cart, float)
    b_cart = np.asarray(b_cart, float)
    inner = (a_cart + ratio * b_cart) / (1 + ratio)
    outer = (a_cart - ratio * b_cart) / (1 - ratio)
    center = 0.5 * (inner + outer)
    return center, float(np.linalg.norm(inner - outer)) / 2.0


def weighted_circles_meet(tri_cart, weights) -> bool:
    """Do the three loci |X-A_i| w_i = |X-A_j| w_j share a point?

    Brute force: intersect two of the circles directly and test the third
    condition at the intersection points.  Degenerate (equal-weight) pairs
    are perpendicular bisectors and handled by falling back to another pair.
    """
    tri_cart = np.asarray(tri_cart, float)
    w = np.asarray(weights, float)
    circles = {}
    for i, j in itertools.combinations(range(3), 2):
        if abs(w[i] - w[j]) <= 1e-12 * max(w[i], w[j]):
            circles[(i, j)] = None
        else:
            # |X-A_i| w_i = |X-A_j| w_j  <=>  |X-A_i|/|X-A_j| = w_j/w_i
            circles[(i, j)] = apollonius_circle(tri_cart[i], tri_cart[j], w[j] / w[i])
    proper = [c for c in circles.values() if c is not None]
    if len(proper) < 2:
        return True  # two perpendicular bisectors always meet
    (c1, r1), (c2, r2) = proper[0], proper[1]
    pts = circle_circle_intersections(c1, r1, c2, r2)
    for x in pts:
        d = np.linalg.norm(tri_cart - x[None, :], axis=1) * w
        if (d.max() - d.min()) / d.mean() < 1e-6:
            return True
    return False


def distance_sum(vertices, x) -> float:
    vertices = np.asarray(vertices, float)
    return float(np.linalg.norm(vertices - np.asarray(x, float)[None, :], axis=1).sum())


def distance_sum_gradient(vertices, x) -> np.ndarray:
    vertices = np.asarray(vertices, float)
    x = np.asarray(x, float)
    g = np.zeros(vertices.shape[1])
    for v in vertices:
        g += (x - v) / np.linalg.norm(x - v)
    return g


def finite_difference_gradient(fun, x, h=1e-6) -> np.ndarray:
    x = np.asarray(x, float)
    g = np.empty_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def random_triangle_sides(rng, max_angle_deg=115.0, min_angle_deg=25.0):
    """(d12, d13, d23) of a scalene triangle with all angles below the bound."""
    while True:
        a = rng.uniform(min_angle_deg, max_angle_deg)
        b = rng.uniform(min_angle_deg, max_angle_deg)
        c = 180.0 - a - b
        if not min_angle_deg <= c <= max_angle_deg:
            continue
        if max(a, b, c) - min(a, b, c) < 2.0:
            continue
        scale = rng.uniform(0.5, 3.0)
        sides = scale * np.sin(np.radians([a, b, c]))  # opposite each angle
        return float(sides[2]), float(sides[1]), float(sides[0])
