"""Weiszfeld-type iterations for the Fermat-Torricelli point.

The point minimizing the sum of distances to the vertices is computed by
fixed-point iterations expressed purely in barycentric coordinates:

    method "q": next = [sgn(p_1)/d_1 : ... : sgn(p_{n+1})/d_{n+1}]
    method "r": next = [1/(|p_1| d_1^2) : ... : 1/(|p_{n+1}| d_{n+1}^2)]

with d_i the distance from the current iterate to vertex i.  The public
steps apply these maps to signed coordinates; :func:`fermat_point` feeds
both the coordinate magnitudes, so both enter the interior after one step
and share their interior fixed point (coordinates proportional to the
reciprocal vertex distances).

The distance sum is convex, so Kuhn's first-order test decides before the
first step whether the minimizer is a vertex: vertex k is the minimizer iff
the gradient over the other vertices has norm <= 1 there (H. W. Kuhn,
Math. Programming 4, 1973).  Past that test no vertex is optimal, and an
iterate that comes within ``_NEAR_VERTEX`` of the diameter to a vertex is
moved off it along the descent direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricPoint, SimplexModel, _zero_entries, as_point
from .errors import AtVertex, MaxIterationsExceeded, ZeroCoordinate

METHODS = ("q", "r")

# An iterate this close to a vertex, relative to the diameter, is moved off.
_NEAR_VERTEX = 1e-9


@dataclass
class IterationTrace:
    """Record of one minimization run.

    ``objective_values[k]`` is the distance sum at ``iterates[k]``.  For a
    vertex optimum, ``iterations_used == 0`` and the iterates are the start
    and the vertex.
    """

    method: str
    iterates: list[BarycentricPoint] = field(default_factory=list)
    objective_values: list[float] = field(default_factory=list)
    converged: bool = False
    iterations_used: int = 0
    vertex_optimum: bool = False


def total_distance(p, model: SimplexModel) -> float:
    """Sum of distances from a point to all vertices."""
    return float(model.vertex_distances(p).sum())


def distance_sum_gradient(model: SimplexModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the distance sum at a Cartesian point, skipping vertices
    at zero distance (at a vertex: the gradient over the other vertices)."""
    g = np.zeros(model.n)
    for v in model.vertices:
        gap = x - v
        norm = np.linalg.norm(gap)
        if norm > 0:
            g += gap / norm
    return g


def z_correspondent(p, z_star, model: SimplexModel | None = None) -> BarycentricPoint:
    """Componentwise quotient [p_i / z*_i] of two coordinate vectors.

    ``z_star`` is read in the coordinates of the polar simplex of ``p``,
    which coincide numerically with coordinates in the original simplex.
    Identities: the all-ones vector maps p to itself, and z_star = p maps
    to the centroid.
    """
    n = model.n if model is not None else None
    pc = as_point(p, n).coords
    zc = as_point(z_star, len(pc) - 1).coords
    if _zero_entries(pc).any() or _zero_entries(zc).any():
        raise ZeroCoordinate("correspondent needs all coordinates nonzero")
    return BarycentricPoint(pc / zc)


def _step(coords: np.ndarray, dv: np.ndarray, method: str) -> np.ndarray:
    """Homogeneous coordinates of the next iterate (see the module docstring)."""
    if method == "q":
        return np.sign(coords) / dv
    return 1.0 / (np.abs(coords) * dv ** 2)


def weiszfeld_step_q(p, model: SimplexModel) -> BarycentricPoint:
    """One reciprocal-distance step: [sgn(p_i)/d(P, A_i)].

    For interior points this is the classical distance-weighted vertex
    average.  Equals the correspondent of P with the incenter of its polar
    simplex.
    """
    pt = as_point(p, model.n)
    dv = model.vertex_distances(pt)
    if model._vertex_at(dv) is not None:
        raise AtVertex("step is undefined at a vertex (zero distance)")
    return BarycentricPoint(_step(pt.coords, dv, "q"))


def weiszfeld_step_r(p, model: SimplexModel) -> BarycentricPoint:
    """One square-root-free step: [1/(|p_i| d(P, A_i)^2)].

    Uses the current iterate's coordinate magnitudes, so interior fixed
    points have coordinates proportional to reciprocal distances, exactly
    as for the "q" step.  Output coordinates are always positive.
    """
    pt = as_point(p, model.n)
    if _zero_entries(pt.normalized_coords).any():
        raise ZeroCoordinate("square-root-free step needs nonzero coordinates")
    dv = model.vertex_distances(pt)
    if model._vertex_at(dv) is not None:
        raise AtVertex("step is undefined at a vertex (zero distance)")
    return BarycentricPoint(_step(pt.coords, dv, "r"))


def _displaced_from_vertex(model: SimplexModel, k: int) -> BarycentricPoint:
    """Nudge off a non-optimal vertex along the descent direction."""
    x = model.vertices[k]
    g = distance_sum_gradient(model, x)
    return model.cart_to_bary(x - (1e-6 * model.diameter) * g / np.linalg.norm(g))


def fermat_point(model: SimplexModel, start=None, method: str = "q",
                 tol: float = 1e-12, max_iter: int = 10000,
                 ) -> tuple[BarycentricPoint, IterationTrace]:
    """Minimize the distance sum to the vertices.

    A vertex that passes Kuhn's first-order test (gradient over the other
    vertices of norm <= 1) is returned exactly, after zero iterations.
    Otherwise iterates from ``start`` (default: centroid; all coordinates
    must be nonzero) until successive normalized iterates differ by less
    than ``tol`` per coordinate.  Raises :class:`MaxIterationsExceeded`
    with the trace attached if the budget runs out.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if start is None:
        start = np.ones(model.n + 1)
    p = as_point(start, model.n)
    if _zero_entries(p.normalized_coords).any():
        raise ZeroCoordinate("start point must have all coordinates nonzero")

    trace = IterationTrace(method=method, iterates=[p])
    for k, v in enumerate(model.vertices):
        if np.linalg.norm(distance_sum_gradient(model, v)) <= 1.0:
            vertex = BarycentricPoint.vertex(k, model.n)
            trace.iterates.append(vertex)
            trace.objective_values = [total_distance(p, model),
                                      total_distance(vertex, model)]
            trace.converged = trace.vertex_optimum = True
            return vertex, trace

    # objective_values[k] of iterates[k] is read off the distances its step
    # computes; only an iterate that leaves the loop costs one more call
    for it in range(1, max_iter + 1):
        dv = model.vertex_distances(p)
        trace.objective_values.append(float(dv.sum()))
        k = int(np.argmin(dv))
        if dv[k] <= _NEAR_VERTEX * model.diameter:
            # past Kuhn's test this vertex is not optimal, but the step
            # would leave it only slowly
            p = _displaced_from_vertex(model, k)
            trace.iterates.append(p)
            continue
        nxt = BarycentricPoint(_step(np.abs(p.coords), dv, method))
        trace.iterates.append(nxt)
        step = float(np.abs(nxt.coords - p.coords).max())
        p = nxt
        if step < tol:
            trace.objective_values.append(total_distance(p, model))
            trace.converged = True
            trace.iterations_used = it
            return p, trace

    trace.objective_values.append(total_distance(p, model))
    trace.iterations_used = max_iter
    raise MaxIterationsExceeded(
        f"no convergence within {max_iter} iterations (method {method!r})",
        trace=trace)
