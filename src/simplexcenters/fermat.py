"""Weiszfeld-type iterations for the Fermat-Torricelli point.

The point minimizing the sum of distances to the vertices is computed by
fixed-point iterations expressed purely in barycentric coordinates:

    method "q":       next = [1/d_1 : ... : 1/d_{n+1}]
    method "r":       next = [1/(|p_1| d_1^2) : ... : 1/(|p_{n+1}| d_{n+1}^2)]
    method "classic": next = [p_1/d_1 : ... : p_{n+1}/d_{n+1}]

with d_i the distance from the current iterate to vertex i.  Both "q" and
"r" enter the interior after one step and share their interior fixed point
(coordinates proportional to the reciprocal vertex distances); "classic" is
retained for comparison only, as its fixed points are equidistant points
rather than distance-sum minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricPoint, SimplexModel, _zero_entries, as_point
from .errors import AtVertex, MaxIterationsExceeded, ZeroCoordinate

METHODS = ("q", "r", "classic")


@dataclass
class IterationTrace:
    """Record of one minimization run."""

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
    return BarycentricPoint.homogeneous(pc / zc)


def weiszfeld_step_q(p, model: SimplexModel) -> BarycentricPoint:
    """One reciprocal-distance step: [sgn(p_i)/d(P, A_i)].

    For interior points this is the classical distance-weighted vertex
    average.  Equals the correspondent of P with the incenter of its polar
    simplex.
    """
    pt = as_point(p, model.n).normalized()
    dv = model.vertex_distances(pt)
    if model._vertex_at(dv) is not None:
        raise AtVertex("step is undefined at a vertex (zero distance)")
    return BarycentricPoint.homogeneous(np.sign(pt.coords) / dv)


def weiszfeld_step_r(p, model: SimplexModel) -> BarycentricPoint:
    """One square-root-free step: [1/(|p_i| d(P, A_i)^2)].

    Uses the current iterate's coordinate magnitudes, so interior fixed
    points have coordinates proportional to reciprocal distances, exactly
    as for the "q" step.  Output coordinates are always positive.
    """
    pt = as_point(p, model.n).normalized()
    coords = pt.coords
    if _zero_entries(coords).any():
        raise ZeroCoordinate("square-root-free step needs nonzero coordinates")
    dv = model.vertex_distances(pt)
    if model._vertex_at(dv) is not None:
        raise AtVertex("step is undefined at a vertex (zero distance)")
    return BarycentricPoint.homogeneous(1.0 / (np.abs(coords) * dv ** 2))


def _iterate_once(p: BarycentricPoint, dv: np.ndarray, method: str) -> BarycentricPoint:
    if method == "q":
        return BarycentricPoint.homogeneous(1.0 / dv)
    if method == "r":
        mags = np.abs(p.coords)
        return BarycentricPoint.homogeneous(1.0 / (mags * dv ** 2))
    if method == "classic":
        return BarycentricPoint.homogeneous(p.coords / dv)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def _displaced_from_vertex(model: SimplexModel, k: int) -> BarycentricPoint:
    """Nudge off a non-optimal vertex along the descent direction."""
    x = model.vertices[k]
    g = distance_sum_gradient(model, x)
    return model.cart_to_bary(x - (1e-6 * model.diameter) * g / np.linalg.norm(g))


def fermat_point(model: SimplexModel, start=None, method: str = "q",
                 tol: float = 1e-12, max_iter: int = 10000,
                 ) -> tuple[BarycentricPoint, IterationTrace]:
    """Minimize the distance sum to the vertices.

    Iterates from ``start`` (default: centroid; all coordinates must be
    nonzero) until successive normalized iterates differ by less than
    ``tol`` per coordinate.  Vertex optima are detected via the first-order
    condition (gradient over the remaining vertices has norm <= 1) and
    returned exactly.  Raises :class:`MaxIterationsExceeded` with the trace
    attached if the budget runs out.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if start is None:
        start = np.ones(model.n + 1)
    p = as_point(start, model.n).normalized()
    if _zero_entries(p.coords).any():
        raise ZeroCoordinate("start point must have all coordinates nonzero")

    # objective_values[k] of iterates[k] is read off the distances its step
    # computes; only an iterate that leaves the loop costs one more call
    trace = IterationTrace(method=method)
    trace.iterates.append(p)

    for it in range(1, max_iter + 1):
        dv = model.vertex_distances(p)
        trace.objective_values.append(float(dv.sum()))
        k = model._vertex_at(dv)
        if k is not None:
            if np.linalg.norm(distance_sum_gradient(model, model.vertices[k])) <= 1.0:
                p = BarycentricPoint.vertex(k, model.n)
                trace.iterates.append(p)
                trace.objective_values.append(total_distance(p, model))
                trace.converged = True
                trace.vertex_optimum = True
                trace.iterations_used = it
                return p, trace
            # vertex is not optimal: restart slightly displaced toward the
            # interior along the descent direction (classical safeguard)
            p = _displaced_from_vertex(model, k)
            trace.iterates.append(p)
            continue

        nxt = _iterate_once(p, dv, method).normalized()
        trace.iterates.append(nxt)
        step = float(np.abs(nxt.coords - p.coords).max())
        p = nxt
        if step < tol:
            dv = model.vertex_distances(p)
            trace.objective_values.append(float(dv.sum()))
            top = int(np.argmax(p.coords))
            if p.coords[top] >= 1.0 - 1e-9:
                # the stop fired essentially at a vertex: accept only when
                # the vertex satisfies the first-order condition, otherwise
                # the small step is an artifact of starting too close to a
                # repelling vertex
                grad = distance_sum_gradient(model, model.vertices[top])
                if np.linalg.norm(grad) <= 1.0:
                    if dv[top] <= 1e-9 * model.diameter:
                        p = BarycentricPoint.vertex(top, model.n)
                        trace.iterates.append(p)
                        trace.objective_values.append(total_distance(p, model))
                        trace.vertex_optimum = True
                    trace.converged = True
                    trace.iterations_used = it
                    return p, trace
                p = _displaced_from_vertex(model, top)
                trace.iterates.append(p)
                continue
            trace.converged = True
            trace.iterations_used = it
            return p, trace

    trace.objective_values.append(total_distance(p, model))
    trace.iterations_used = max_iter
    raise MaxIterationsExceeded(
        f"no convergence within {max_iter} iterations (method {method!r})",
        trace=trace)
