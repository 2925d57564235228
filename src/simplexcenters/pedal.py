"""Pedal, antipedal, polar and inversive simplices of a point.

All four constructions return the derived figure as a ``SimplexModel``
built with ``validate=False``, since such figures may legitimately collapse,
down to coincident points.  Its ``degenerate`` flag says whether it did; a
collapsed figure has vertices and volumes but no affine frame.
"""

from __future__ import annotations

import math

import numpy as np

from .barycentric import (
    SimplexModel,
    _leave_one_out,
    _zero_entries,
    as_point,
    facet_volumes_of_points,
)
from .errors import AtVertex, CenterAtVertex, OnSideplane, UnboundedAntipedal

# Condition-number cutoff beyond which an antipedal vertex system is treated
# as singular (two construction normals effectively coincide).
_COND_LIMIT = 1e14


def pedal_simplex(p, model: SimplexModel) -> SimplexModel:
    """Simplex of orthogonal projections of a point onto the sideplanes.

    Vertex i of the result is the foot of the perpendicular from the point
    to the sideplane opposite vertex i.
    """
    pt = as_point(p, model.n).normalized()
    if model._vertex_at(model.vertex_distances(pt)) is not None:
        raise AtVertex("pedal simplex is undefined at a vertex")
    x = model.bary_to_cart(pt)
    feet = model.pedal_feet(x)
    return SimplexModel(feet, validate=False)


def antipedal_simplex(p, model: SimplexModel) -> SimplexModel:
    """Simplex whose i-th facet plane passes through vertex i, perpendicular
    to the line joining the point to that vertex.

    The pedal simplex of the point with respect to the result is the
    original simplex.
    """
    pt = as_point(p, model.n).normalized()
    if model._vertex_at(model.vertex_distances(pt)) is not None:
        raise AtVertex("antipedal simplex is undefined at a vertex")
    x = model.bary_to_cart(pt)
    # system i: rows j != i of (x - v_j) . y = (x - v_j) . v_j
    others = model.vertices[_leave_one_out(model.n + 1)]
    a = x - others
    b = np.einsum("kij,kij->ki", a, others)
    unbounded = np.flatnonzero(np.linalg.cond(a) > _COND_LIMIT)
    if unbounded.size:
        raise UnboundedAntipedal(
            f"antipedal vertex {unbounded[0]} is unbounded for this point")
    out = np.linalg.solve(a, b[..., None])[..., 0]
    return SimplexModel(out, validate=False)


def polar_simplex(p, model: SimplexModel, radius: float = 1.0) -> SimplexModel:
    """Simplex of poles of the sideplanes with respect to a sphere centered
    at the point.

    Vertex i is the inverse of the foot of the perpendicular onto the
    sideplane opposite vertex i; the barycentric coordinates of the point
    with respect to the result agree with those with respect to the
    original simplex.
    """
    if not (radius > 0.0 and math.isfinite(radius * radius)):
        raise ValueError("radius must be positive and its square must be finite")
    pt = as_point(p, model.n).normalized()
    if _zero_entries(pt.coords).any():
        raise OnSideplane("polar simplex needs all coordinates nonzero")
    x = model.bary_to_cart(pt)
    feet = model.pedal_feet(x)
    out = np.empty_like(feet)
    for i, foot in enumerate(feet):
        w = foot - x
        out[i] = x + radius ** 2 * w / (w @ w)
    return SimplexModel(out, validate=False)


def inversive_image(model: SimplexModel, center, radius: float) -> SimplexModel:
    """Image of the simplex vertices under inversion in a sphere."""
    if not (radius > 0.0 and math.isfinite(radius * radius)):
        raise ValueError("radius must be positive and its square must be finite")
    center = np.asarray(center, dtype=float)
    if not np.isfinite(center).all():
        raise ValueError("inversion center must be finite")
    w = model.vertices - center
    norm2 = np.array([float(row @ row) for row in w])
    i = model._vertex_at(np.sqrt(norm2))
    if i is not None:
        raise CenterAtVertex(f"inversion center coincides with vertex {i}")
    out = center + radius ** 2 * w / norm2[:, None]
    return SimplexModel(out, validate=False)


def equiareal_deviation(obj) -> float:
    """Relative spread (max - min) / mean of the facet volumes.

    Zero exactly when all facets have equal volume.  Accepts a model (a
    derived figure included) or a raw vertex array.
    """
    if isinstance(obj, SimplexModel):
        vols = obj.facet_volumes
    else:
        vols = facet_volumes_of_points(np.asarray(obj, dtype=float))
    mean = float(vols.mean())
    if mean <= 0.0:
        return float("inf")
    return float((vols.max() - vols.min()) / mean)
