"""Pedal, antipedal, polar and inversive simplices of a point.

All four constructions return the derived figure as a ``SimplexModel``
built with ``validate=False``, since such figures may legitimately collapse,
down to coincident points.  Its ``degenerate`` flag says whether it did; a
collapsed figure has vertices and volumes but no affine frame.  The
antipedal and the polar simplex exist where no coordinate is zero, that is,
off every sideplane; on one they raise ``ZeroCoordinate``.
"""

from __future__ import annotations

import math

import numpy as np

from .barycentric import (
    SimplexModel,
    _einsum,
    _lapack,
    _leave_one_out,
    _nonzero,
    _spread,
    as_point,
)
from .errors import Degenerate


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


def _figure(model: SimplexModel, points: np.ndarray) -> SimplexModel:
    """The unvalidated figure on frame points; ``Degenerate`` beyond float range."""
    vertices = model._from_frame(points)
    if not np.isfinite(vertices).all():
        raise Degenerate("vertex coordinates must be finite")
    return SimplexModel(vertices, validate=False)


def pedal_simplex(p, model: SimplexModel) -> SimplexModel:
    """Simplex of orthogonal projections of a point onto the sideplanes.

    Vertex i of the result is the foot of the perpendicular from the point
    to the sideplane opposite vertex i.
    """
    y = model._frame(as_point(p, model.n))
    model._rays(y, "pedal simplex is undefined at a vertex")
    return _figure(model, model._feet(y))


def _antipedal_points(p, model: SimplexModel) -> np.ndarray:
    """Vertices of the antipedal simplex, in the model's frame."""
    if model.degenerate:
        raise Degenerate("a collapsed simplex has no antipedal simplex")
    pt = as_point(p, model.n)
    rays, _ = model._rays(model._frame(pt), "antipedal simplex is undefined at a vertex")
    # system i is singular exactly when the point lies on sideplane i
    _nonzero(pt.coords, "antipedal vertex {i} is unbounded for this point")
    # system i: rows j != i of (v_j - y) . z = (v_j - y) . v_j, one dot per vertex
    leave = _leave_one_out(model.n + 1)
    a = rays.take(leave, axis=0)
    b = _einsum("ij,ij->i", rays, model._local)[leave]
    return _lapack.solve(a, b[..., None], signature="dd->d")[..., 0]


def antipedal_simplex(p, model: SimplexModel) -> SimplexModel:
    """Simplex whose i-th facet plane passes through vertex i, perpendicular
    to the line joining the point to that vertex.

    The pedal simplex of the point with respect to the result is the
    original simplex.
    """
    return _figure(model, _antipedal_points(p, model))


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
    _nonzero(pt.normalized_coords, "polar simplex needs all coordinates nonzero")
    y = model._frame(pt)
    w = model._feet(y) - y
    out = y + square * w / _einsum("ij,ij->i", w, w)[:, None]
    return _figure(model, out)


def inversive_image(model: SimplexModel, center, radius: float) -> SimplexModel:
    """Image of the simplex vertices under inversion in a sphere."""
    square = _squared_radius(radius, model)
    center = np.asarray(center, dtype=float)
    if not np.isfinite(center).all():
        raise ValueError("inversion center must be finite")
    y = model._to_frame(center)
    w, _ = model._rays(y, "inversion center coincides with vertex {i}")
    out = y + square * w / _einsum("ij,ij->i", w, w)[:, None]
    return _figure(model, out)


def equiareal_deviation(model: SimplexModel) -> float:
    """Relative spread (max - min) / mean of a model's facet volumes, zero
    exactly when all are equal; a derived figure from this module, collapsed
    or not, is a model too."""
    return _spread(model._facets)
