"""The Fermat-Torricelli point, and one Newton kernel on signed distance sums.

The point minimizing the sum of distances to the vertices is reached in two
phases.  First one step of a Weiszfeld-type map, expressed purely in
barycentric coordinates:

    method "q": next = [sgn(p_1)/d_1 : ... : sgn(p_{n+1})/d_{n+1}]
    method "r": next = [1/(|p_1| d_1^2) : ... : 1/(|p_{n+1}| d_{n+1}^2)]

with d_i the distance from the current point to vertex i.  The public
steps apply these maps to signed coordinates; :func:`fermat_point` feeds
both the coordinate magnitudes, so this approach step puts any start inside
the simplex, where both maps fix the minimizer.

Then damped Newton on the gradient of the distance sum.  The kernel
``_newton`` solves the more general g_sigma(x) = sum_i sigma_i u_i = 0,
with u_i the unit vector from vertex A_i to x and sigma_i = +-1, whose
Jacobian is J = sum_i sigma_i (I - u_i u_i^T) / d_i.  The minimizer is the
root for sigma = +1 (M. L. Overton, Math. Programming 27, 1983); every
isogonic point is a root for its own sign pattern, which
:mod:`simplexcenters.isogonic` finds with the same kernel, deflated.
Kuhn's test decides before the first step whether a vertex is the
minimizer: vertex k is iff the gradient over the other vertices has norm
<= 1 there (H. W. Kuhn, Math. Programming 4, 1973).

Both solvers record a run in one :class:`SolverTrace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import BarycentricPoint, SimplexModel, _zero_entries, as_point
from .errors import AtVertex, MaxIterationsExceeded, ZeroCoordinate

METHODS = ("q", "r")

# step halvings before a Newton line search gives up (no Fermat run needs more)
_HALVINGS = 12


def total_distance(p, model: SimplexModel) -> float:
    """Sum of distances from a point to all vertices (summed in the frame)."""
    return float(model._absolute(model._distances(p).sum()))


def _signed_gradient(vertices: np.ndarray, sigma: np.ndarray, x: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """g_sigma(x) = sum_i sigma_i (x - A_i)/|x - A_i| and its Jacobian.

    Vertices at zero distance from x are left out of both.
    """
    gaps = x - vertices
    dist = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
    if not dist.all():
        keep = dist > 0
        gaps, dist, sigma = gaps[keep], dist[keep], sigma[keep]
    units = gaps / dist[:, None]
    w = sigma / dist
    jac = -(units.T * w) @ units
    jac.flat[::len(x) + 1] += w.sum()
    return sigma @ units, jac


def _pulls(model: SimplexModel, sigma: np.ndarray) -> np.ndarray:
    """Row k is c_k = sum_{i != k} sigma_i (A_k - A_i)/|A_k - A_i|, in the
    model's frame: g_sigma at vertex k over the other vertices."""
    local = model._local
    lengths = np.sqrt(model._sq_edges) + np.eye(model.n + 1)  # the diagonal adds zeros
    return (sigma[:, None] * (local[:, None] - local[None]) / lengths[..., None]).sum(axis=1)


# why a solver run stopped: only the first two give an answer, "escaped" and
# "rejected" end a catalog start whose root lies too far out or was refused
REASONS = ("converged", "vertex optimum", "out of budget", "stalled",
           "escaped", "rejected")


@dataclass
class SolverTrace:
    """One run of :func:`fermat_point` or of a catalog start.

    ``reason`` is one of :data:`REASONS`, empty while the run goes on.
    ``iterations_used`` counts Newton steps (plus the Fermat solver's
    approach step); ``gradient_evaluations`` counts evaluations of g_sigma,
    line-search trials included.  Only the Fermat solver records
    ``iterates`` (from ``seed`` on) and their distance sums.
    ``damping_used`` always reads 1.0; it stays because the benchmark's
    ``isogonic-catalog`` statistics read it from every trace.
    """

    seed: BarycentricPoint
    reason: str = ""
    iterations_used: int = 0
    gradient_evaluations: int = 0
    damping_used: float = 1.0
    iterates: list[BarycentricPoint] = field(default_factory=list)
    objective_values: list[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.reason in ("converged", "vertex optimum")

    @property
    def vertex_optimum(self) -> bool:
        return self.reason == "vertex optimum"


def _deflation(x: np.ndarray, known: np.ndarray, d2: float,
               ) -> tuple[float, np.ndarray | None]:
    """M(x) = prod_k (d2/|x - r_k|^2 + 1) and grad ln M, or (1, None)."""
    if not len(known):
        return 1.0, None
    gaps = x - known
    q = np.einsum("ij,ij->i", gaps, gaps)
    with np.errstate(all="ignore"):   # M is infinite at a known root
        return float(np.prod(d2 / q + 1.0)), (-2.0 * d2 / (q * (q + d2))) @ gaps


def _newton(model: SimplexModel, sigma: np.ndarray, coords: np.ndarray, tol: float,
            max_steps: int, residual: float = math.inf, roots=(),
            ) -> tuple[list[np.ndarray], int, bool]:
    """Damped Newton on g_sigma from the point with normalized barycentric
    coordinates ``coords``, in the model's frame.

    Known ``roots`` deflate it (P. E. Farrell, A. Birkisson & S. W. Funke,
    SIAM J. Sci. Comput. 37(4), 2015): it solves M g_sigma = 0 with
    M(x) = prod_k (D^2/|x - r_k|^2 + 1), D the diameter, and M = 1 without
    roots.  Each step solves J s = -g, scales s by 1/(1 - grad ln M . s),
    which turns it around near a known root, and halves it until
    M |g_sigma| falls by the Armijo factor 1 - t/1e4.  A step no longer
    than ``tol`` diameters is taken whole and ends the run, which succeeds
    if its scale was positive and |g_sigma| <= ``residual`` (checked only
    when finite).  A singular J ends the run; so does a line search that
    cannot lower M |g_sigma|, which succeeds if M |g_sigma| <= ``residual``
    there.
    Returns the accepted iterates in the frame (the start only when it
    succeeds without a step), the gradient evaluations, and whether the run
    succeeded; ``roots`` are frame points too.
    """
    local = model._local
    known = np.reshape(roots, (-1, model.n))
    d2 = model._local_diameter ** 2
    tol = tol * model._local_diameter
    x = local.T @ coords
    g, jac = _signed_gradient(local, sigma, x)
    weight, dlog = _deflation(x, known, d2)
    evaluations = 1
    path: list[np.ndarray] = []
    ok = False
    for _ in range(max_steps):
        try:
            step = -np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            break
        factor = 1.0
        if dlog is not None:
            factor = 1.0 / (1.0 - dlog @ step)
            step = factor * step
        if math.sqrt(step @ step) <= tol:
            x = x + step
            path.append(x)
            ok = factor > 0.0
            if math.isfinite(residual):
                evaluations += 1
                g = _signed_gradient(local, sigma, x)[0]
                ok = ok and math.sqrt(g @ g) <= residual
            break
        merit = weight * math.sqrt(g @ g)
        t = 1.0
        for _ in range(_HALVINGS):
            y = x + t * step
            gy, jy = _signed_gradient(local, sigma, y)
            wy, dy = _deflation(y, known, d2)
            evaluations += 1
            if wy * math.sqrt(gy @ gy) <= (1.0 - 1e-4 * t) * merit:
                break
            t *= 0.5
        else:
            # M |g_sigma| is at the level of rounding: a start already at a
            # root ends here, and is accepted on the residual
            ok = math.isfinite(residual) and merit <= residual
            if ok and not path:
                path.append(x)
            break
        x, g, jac, weight, dlog = y, gy, jy, wy, dy
        path.append(x)
    return path, evaluations, ok


def distance_sum_gradient(model: SimplexModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the distance sum at a Cartesian point, skipping vertices
    at zero distance (at a vertex: the gradient over the other vertices)."""
    return _signed_gradient(model._local, np.ones(model.n + 1), model._to_frame(x))[0]


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
    dv = model._distances(pt)
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
    dv = model._distances(pt)
    if model._vertex_at(dv) is not None:
        raise AtVertex("step is undefined at a vertex (zero distance)")
    return BarycentricPoint(_step(pt.coords, dv, "r"))


def fermat_point(model: SimplexModel, start=None, method: str = "q",
                 tol: float = 1e-12, max_iter: int = 10000,
                 ) -> tuple[BarycentricPoint, SolverTrace]:
    """Minimize the distance sum to the vertices.

    A vertex that passes Kuhn's first-order test (gradient over the other
    vertices of norm <= 1) is returned exactly, after zero iterations.
    Otherwise takes one approach step of ``method`` from ``start``
    (default: centroid; all coordinates must be nonzero), then Newton steps
    until one moves the point by at most ``tol`` times the diameter.
    ``max_iter`` bounds the approach step plus the Newton steps.  Raises
    :class:`MaxIterationsExceeded` with the trace attached if the budget
    runs out or Newton stalls (a singular Jacobian or a failed line search);
    the trace's ``reason`` tells these apart.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if start is None:
        start = np.ones(model.n + 1)
    p = as_point(start, model.n)
    if _zero_entries(p.normalized_coords).any():
        raise ZeroCoordinate("start point must have all coordinates nonzero")

    trace = SolverTrace(seed=p, iterates=[p])
    optimal = np.flatnonzero(np.linalg.norm(_pulls(model, np.ones(model.n + 1)), axis=1) <= 1.0)
    if optimal.size:
        vertex = BarycentricPoint.vertex(int(optimal[0]), model.n)
        trace.iterates.append(vertex)
        trace.objective_values = [total_distance(p, model),
                                  total_distance(vertex, model)]
        trace.reason = "vertex optimum"
        return vertex, trace

    # the start's objective and approach step read the frame distances of one call
    dv = model._distances(p)
    trace.objective_values.append(float(model._absolute(dv.sum())))
    if max_iter < 1:
        trace.reason = "out of budget"
        raise MaxIterationsExceeded(
            f"no convergence within {max_iter} iterations (method {method!r})",
            trace=trace)
    p = BarycentricPoint(_step(np.abs(p.coords), dv, method))
    trace.iterates.append(p)
    trace.objective_values.append(total_distance(p, model))
    path, trace.gradient_evaluations, converged = _newton(
        model, np.ones(model.n + 1), p.normalized_coords, tol, max_iter - 1)
    for y in path:
        p = BarycentricPoint(model._coords(y))
        trace.iterates.append(p)
        trace.objective_values.append(total_distance(p, model))
    trace.iterations_used = len(trace.iterates) - 1
    if converged:
        trace.reason = "converged"
        return p, trace
    stalled = trace.iterations_used < max_iter
    trace.reason = "stalled" if stalled else "out of budget"
    raise MaxIterationsExceeded(
        f"{'Newton stalled after' if stalled else 'no convergence within'} "
        f"{trace.iterations_used} iterations (method {method!r})", trace=trace)
