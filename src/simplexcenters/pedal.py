"""Pedal, antipedal, polar and inversive simplices of a point.

All four constructions return a :class:`PedalResult` carrying the derived
vertex array together with a (possibly degenerate) simplex model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycentric import (
    BarycentricPoint,
    SimplexModel,
    _gram_defect,
    _zero_entries,
    as_point,
    facet_volumes_of_points,
)
from .errors import AtVertex, CenterAtVertex, OnSideplane, UnboundedAntipedal

# Condition-number cutoff beyond which an antipedal vertex system is treated
# as singular (two construction normals effectively coincide).
_COND_LIMIT = 1e14


@dataclass(frozen=True)
class PedalResult:
    """A derived simplex together with its provenance.

    ``feet_or_vertices`` holds the Cartesian points; ``simplex`` is built
    without the positive-volume check, since pedal figures may legitimately
    collapse.  ``degenerate`` is set, instead of raising, exactly when
    ``SimplexModel`` validation would raise ``Degenerate``: one
    scale-invariant O(n^3) test on the Gram spectrum of the edge vectors.
    """

    kind: str                       # pedal | antipedal | polar | inversive
    feet_or_vertices: np.ndarray
    source: BarycentricPoint
    simplex: SimplexModel
    degenerate: bool = False

    def __post_init__(self):
        pts = np.array(self.feet_or_vertices, dtype=float)
        pts.flags.writeable = False
        object.__setattr__(self, "feet_or_vertices", pts)


def _result(kind: str, points: np.ndarray, source: BarycentricPoint) -> PedalResult:
    model = SimplexModel(points, validate=False)
    edge_vectors = points[1:] - points[0]
    degenerate = _gram_defect(edge_vectors @ edge_vectors.T) is not None
    return PedalResult(kind=kind, feet_or_vertices=points, source=source,
                       simplex=model, degenerate=degenerate)


def pedal_simplex(p, model: SimplexModel) -> PedalResult:
    """Simplex of orthogonal projections of a point onto the sideplanes.

    Vertex i of the result is the foot of the perpendicular from the point
    to the sideplane opposite vertex i.
    """
    pt = as_point(p, model.n).normalized()
    if model._vertex_at(model.vertex_distances(pt)) is not None:
        raise AtVertex("pedal simplex is undefined at a vertex")
    x = model.bary_to_cart(pt)
    feet = model.pedal_feet(x)
    return _result("pedal", feet, pt)


def antipedal_simplex(p, model: SimplexModel) -> PedalResult:
    """Simplex whose i-th facet plane passes through vertex i, perpendicular
    to the line joining the point to that vertex.

    The pedal simplex of the point with respect to the result is the
    original simplex.
    """
    pt = as_point(p, model.n).normalized()
    if model._vertex_at(model.vertex_distances(pt)) is not None:
        raise AtVertex("antipedal simplex is undefined at a vertex")
    x = model.bary_to_cart(pt)
    v = model.vertices
    m = model.n + 1
    out = np.empty_like(v)
    for i in range(m):
        rows = [j for j in range(m) if j != i]
        a = x[None, :] - v[rows]
        b = np.einsum("ij,ij->i", a, v[rows])
        if np.linalg.cond(a) > _COND_LIMIT:
            raise UnboundedAntipedal(
                f"antipedal vertex {i} is unbounded for this point")
        out[i] = np.linalg.solve(a, b)
    return _result("antipedal", out, pt)


def polar_simplex(p, model: SimplexModel, radius: float = 1.0) -> PedalResult:
    """Simplex of poles of the sideplanes with respect to a sphere centered
    at the point.

    Vertex i is the inverse of the foot of the perpendicular onto the
    sideplane opposite vertex i; the barycentric coordinates of the point
    with respect to the result agree with those with respect to the
    original simplex.
    """
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    pt = as_point(p, model.n).normalized()
    if _zero_entries(pt.coords).any():
        raise OnSideplane("polar simplex needs all coordinates nonzero")
    x = model.bary_to_cart(pt)
    feet = model.pedal_feet(x)
    out = np.empty_like(feet)
    for i, foot in enumerate(feet):
        w = foot - x
        out[i] = x + radius ** 2 * w / (w @ w)
    return _result("polar", out, pt)


def inversive_image(model: SimplexModel, center, radius: float) -> PedalResult:
    """Image of the simplex vertices under inversion in a sphere."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    w = model.vertices - center
    norm2 = np.array([float(row @ row) for row in w])
    i = model._vertex_at(np.sqrt(norm2))
    if i is not None:
        raise CenterAtVertex(f"inversion center coincides with vertex {i}")
    out = center + radius ** 2 * w / norm2[:, None]
    return _result("inversive", out, model.cart_to_bary(center))


def equiareal_deviation(obj) -> float:
    """Relative spread (max - min) / mean of the facet volumes.

    Zero exactly when all facets have equal volume.  Accepts a model, a
    PedalResult or a raw vertex array.
    """
    if isinstance(obj, PedalResult):
        vols = facet_volumes_of_points(obj.feet_or_vertices)
    elif isinstance(obj, SimplexModel):
        vols = obj.facet_volumes
    else:
        vols = facet_volumes_of_points(np.asarray(obj, dtype=float))
    mean = float(vols.mean())
    if mean <= 0.0:
        return float("inf")
    return float((vols.max() - vols.min()) / mean)
