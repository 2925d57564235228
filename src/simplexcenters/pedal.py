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
)
from .errors import AtVertex, UnboundedAntipedal, ZeroCoordinate

# Condition-number cutoff beyond which an antipedal vertex system is treated
# as singular (two construction normals effectively coincide).
_COND_LIMIT = 1e14


def _squared_radius(radius, model: SimplexModel) -> float:
    """The radius squared in the model's frame; ``ValueError`` unless the
    radius is positive and that square finite."""
    try:
        square = float(model._absolute(float(radius), -1)) ** 2
    except OverflowError:
        square = math.inf
    if not (radius > 0.0 and math.isfinite(square)):
        raise ValueError("radius must be positive and its square must be finite")
    return square


def pedal_simplex(p, model: SimplexModel) -> SimplexModel:
    """Simplex of orthogonal projections of a point onto the sideplanes.

    Vertex i of the result is the foot of the perpendicular from the point
    to the sideplane opposite vertex i.
    """
    pt = as_point(p, model.n)
    if model._vertex_at(model._distances(pt)) is not None:
        raise AtVertex("pedal simplex is undefined at a vertex")
    feet = model._feet(model._frame(pt))
    return SimplexModel(model._from_frame(feet), validate=False)


def _antipedal_points(p, model: SimplexModel) -> np.ndarray:
    """Vertices of the antipedal simplex, in the model's frame."""
    pt = as_point(p, model.n)
    if model._vertex_at(model._distances(pt)) is not None:
        raise AtVertex("antipedal simplex is undefined at a vertex")
    y = model._frame(pt)
    # system i: rows j != i of (y - v_j) . z = (y - v_j) . v_j
    others = model._local[_leave_one_out(model.n + 1)]
    a = y - others
    b = np.einsum("kij,kij->ki", a, others)
    unbounded = np.flatnonzero(np.linalg.cond(a) > _COND_LIMIT)
    if unbounded.size:
        raise UnboundedAntipedal(
            f"antipedal vertex {unbounded[0]} is unbounded for this point")
    return np.linalg.solve(a, b[..., None])[..., 0]


def antipedal_simplex(p, model: SimplexModel) -> SimplexModel:
    """Simplex whose i-th facet plane passes through vertex i, perpendicular
    to the line joining the point to that vertex.

    The pedal simplex of the point with respect to the result is the
    original simplex.
    """
    return SimplexModel(model._from_frame(_antipedal_points(p, model)), validate=False)


def polar_simplex(p, model: SimplexModel, radius: float = 1.0) -> SimplexModel:
    """Simplex of poles of the sideplanes with respect to a sphere centered
    at the point.

    Vertex i is the inverse of the foot of the perpendicular onto the
    sideplane opposite vertex i; the barycentric coordinates of the point
    with respect to the result agree with those with respect to the
    original simplex.
    """
    square = _squared_radius(radius, model)
    pt = as_point(p, model.n)
    if _zero_entries(pt.normalized_coords).any():
        raise ZeroCoordinate("polar simplex needs all coordinates nonzero")
    y = model._frame(pt)
    w = model._feet(y) - y
    out = y + square * w / np.einsum("ij,ij->i", w, w)[:, None]
    return SimplexModel(model._from_frame(out), validate=False)


def inversive_image(model: SimplexModel, center, radius: float) -> SimplexModel:
    """Image of the simplex vertices under inversion in a sphere."""
    square = _squared_radius(radius, model)
    center = np.asarray(center, dtype=float)
    if not np.isfinite(center).all():
        raise ValueError("inversion center must be finite")
    y = model._to_frame(center)
    w = model._local - y
    norm2 = np.einsum("ij,ij->i", w, w)
    i = model._vertex_at(np.sqrt(norm2))
    if i is not None:
        raise AtVertex(f"inversion center coincides with vertex {i}")
    out = y + square * w / norm2[:, None]
    return SimplexModel(model._from_frame(out), validate=False)


def equiareal_deviation(model: SimplexModel) -> float:
    """Relative spread (max - min) / mean of a model's facet volumes, zero
    exactly when all are equal; a derived figure from this module, collapsed
    or not, is a model too."""
    return _spread(model._facets)


def _spread(vols: np.ndarray) -> float:
    """``equiareal_deviation`` of the given facet volumes; inf if they vanish."""
    mean = float(vols.mean())
    if mean <= 0.0:
        return float("inf")
    return float((vols.max() - vols.min()) / mean)
