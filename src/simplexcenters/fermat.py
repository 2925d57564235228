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
Each step solves J s = -g through LAPACK's gufunc, so a singular J gives
a NaN step, and a NaN step ends the run as "stalled".
Kuhn's test decides before the first step whether a vertex is the
minimizer: vertex k is iff the gradient over the other vertices has norm
<= 1 there (H. W. Kuhn, Math. Programming 4, 1973).  It is decided once
per model, as ``SimplexModel._fermat_vertex``, from the model's pulls; the
catalog reads both, and takes its all-positive root from this same solve.

Both solvers record a run in one :class:`SolverTrace`; a Fermat trace
forms its iterates, the approach step's included, and their distance sums
when they are first read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .barycentric import (BarycentricPoint, SimplexModel, _einsum, _frozen, _lapack,
                          _nonzero, as_point)
from .errors import MaxIterationsExceeded

METHODS = ("q", "r")

# the step fractions 1, 1/2, ..., 1/2^11 of a Newton line search, and their Armijo factors
_FRACTIONS = _frozen(0.5 ** np.arange(12))
_ARMIJO = _frozen(1.0 - 1e-4 * _FRACTIONS)
# Newton's defaults: the step (in diameters) that ends a run, the M |g_sigma|
# at which a failed line search still succeeds, and fermat_point's budget
_TOL = 1e-12
_RESIDUAL = 1e-10
_MAX_ITER = 10000
# halvings of a diameter that place a stalled Fermat solve's restart
_HALVINGS = 40


@cache
def _eye(n: int) -> np.ndarray:
    """Read-only n x n identity."""
    return _frozen(np.eye(n))


@cache
def _positive(m: int) -> np.ndarray:
    """Read-only sigma = +1 on m vertices, the distance sum's pattern."""
    return _frozen(np.ones(m))


def total_distance(p, model: SimplexModel) -> float:
    """Sum of distances from a point to all vertices (summed in the frame)."""
    return float(model._absolute(model._distances(p).sum()))


def _signed_gradient(vertices: np.ndarray, sigma: np.ndarray, x: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g_sigma(x) = sum_i sigma_i (x - A_i)/|x - A_i|, and the unit vectors
    and weights sigma_i/d_i whose ``_jacobian`` is its Jacobian; vertices at
    zero distance from x are left out of all three.  A stack of points gives
    a stack of each, every row rounded as that point alone; one with a row at
    a vertex is evaluated row by row, its J terms as tuples of rows."""
    point = x.ndim == 1
    gaps = x - vertices if point else x[:, None] - vertices
    dist = np.sqrt(_einsum("ij,ij->i" if point else "kij,kij->ki", gaps, gaps))
    if np.count_nonzero(dist) < dist.size:
        if not point:
            g, units, weights = zip(*(_signed_gradient(vertices, sigma, y) for y in x))
            return np.array(g), units, weights
        keep = dist > 0
        gaps, dist, sigma = gaps[keep], dist[keep], sigma[keep]
    units = gaps / dist[..., None]
    return sigma @ units, units, sigma / dist


def _jacobian(units: np.ndarray, w: np.ndarray) -> np.ndarray:
    """J = sum_i w_i (I - u_i u_i^T), u_i the rows of ``units``.  Off the
    diagonal, sum_i w_i times the cached identity adds a signed zero to an
    entry that a matmul never leaves at -0.0, so it changes no bit there."""
    return -(units.T * w) @ units + np.add.reduce(w) * _eye(units.shape[1])


# why a solver run stopped: only the first two give an answer, "escaped" and
# "rejected" end a catalog start whose root lies too far out or was refused
REASONS = ("converged", "vertex optimum", "out of budget", "stalled",
           "escaped", "rejected")


@dataclass(eq=False)
class SolverTrace:
    """One run of :func:`fermat_point` or of a catalog start.

    ``reason`` is one of :data:`REASONS`, empty while the run goes on.
    ``iterations_used`` counts Newton steps (plus the approach step of any
    Fermat solve); ``gradient_evaluations`` counts evaluations of g_sigma:
    Newton's start, then one per line-search fraction up to the one taken
    (12 if none) as if each were tried alone, whichever pass formed it; a
    closing short step evaluates nothing.  A Fermat trace keeps a
    reference to its model, ``seed``, then either the homogeneous coordinates
    of the approach step and Newton's frame path or the optimal vertex, and
    forms ``iterates`` (one point per entry) and their distance sums
    ``objective_values`` on first read, once; a catalog trace reads [] for both.
    ``damping_used`` is a class attribute, 1.0, not a field: the benchmark's
    ``isogonic-catalog`` statistics read it from every trace.
    """

    damping_used = 1.0
    seed: BarycentricPoint
    reason: str = ""
    iterations_used: int = 0
    gradient_evaluations: int = 0
    _model: SimplexModel | None = field(default=None, repr=False)
    _head: list[BarycentricPoint | np.ndarray] = field(default_factory=list, repr=False)
    _path: list[np.ndarray] = field(default_factory=list, repr=False)

    @cached_property
    def iterates(self) -> list[BarycentricPoint]:
        return ([as_point(p) for p in self._head]
                + [BarycentricPoint(self._model._coords(y)) for y in self._path])

    @cached_property
    def objective_values(self) -> list[float]:
        return [total_distance(p, self._model) for p in self.iterates]

    @property
    def converged(self) -> bool:
        return self.reason in ("converged", "vertex optimum")

    @property
    def vertex_optimum(self) -> bool:
        return self.reason == "vertex optimum"


def _deflation(x: np.ndarray, known: np.ndarray, d2: float) -> tuple:
    """M(x) = prod_k (d2/|x - r_k|^2 + 1) and grad ln M over one or more
    known roots, at a point or at each row of a stack of points, rounded as
    that point alone; inf and nan at a known root, under the errstate of
    :func:`_newton`."""
    point = x.ndim == 1
    gaps = x - known if point else x[:, None] - known
    q = _einsum("ij,ij->i" if point else "kij,kij->ki", gaps, gaps)
    weight, dlog = np.multiply.reduce(d2 / q + 1.0, axis=-1), -2.0 * d2 / (q * (q + d2))
    return (float(weight), dlog @ gaps) if point else (weight, (dlog[:, None] @ gaps)[:, 0])


def _newton(model: SimplexModel, sigma: np.ndarray, coords: np.ndarray, tol: float,
            max_steps: int, roots=()) -> tuple[list[np.ndarray], int, str, np.ndarray]:
    """Damped Newton on g_sigma from the point with normalized barycentric
    coordinates ``coords``, in the model's frame.

    Known ``roots`` deflate it (P. E. Farrell, A. Birkisson & S. W. Funke,
    SIAM J. Sci. Comput. 37(4), 2015): it solves M g_sigma = 0 with
    M(x) = prod_k (D^2/|x - r_k|^2 + 1), D the diameter; without roots
    M = 1 and :func:`_deflation` is not called.  Each step solves J s = -g,
    scales s by 1/(1 - grad ln M . s) (forming |s|^2 again only then),
    which turns it around near a known root, and takes the first fraction
    t of 1, 1/2, ..., 1/2^11 at which M |g_sigma| falls by the Armijo factor
    1 - t/1e4: t = 1 alone, then the rest in one pass, which calls
    :func:`_signed_gradient` and :func:`_deflation` on the stack of those
    points and so also gives g_sigma, J's terms and M at the one taken (J is
    formed at points taken only); after a step that took t <= 1/8, all
    twelve in that pass.  A step no longer than ``tol`` diameters is taken
    whole and ends the run, which succeeds if its scale was positive.
    A singular J solves to a NaN step, which ends the run; so does a line
    search that cannot lower M |g_sigma|, which succeeds if M |g_sigma| <=
    1e-10 there, at the level of rounding.  Each point is evaluated once,
    and the whole run is one ``np.errstate(all="ignore")``.
    Returns the accepted iterates in the frame (the start only when it
    succeeds without a step), the gradient evaluations (counted as if the
    fractions were tried one at a time), why the run stopped ("converged"
    if it succeeded, else "out of budget" if it took ``max_steps`` steps,
    else "stalled"), and J at the last point it evaluated: the start if it
    took no step, the one before a closing short step; ``roots`` are frame
    points too.
    """
    local = model._local
    known = np.array(roots) if len(roots) else roots
    d2 = model._local_diameter ** 2
    tol = tol * model._local_diameter
    # M is infinite at a known root, and a singular J solves to NaN
    with np.errstate(all="ignore"):
        x = local.T @ coords
        g, units, weights = _signed_gradient(local, sigma, x)
        jac = _jacobian(units, weights)
        weight, dlog = _deflation(x, known, d2) if len(known) else (1.0, None)
        merit = weight * math.sqrt(g @ g)
        evaluations = 1
        path: list[np.ndarray] = []
        ok = crawled = False
        for _ in range(max_steps):
            step = -_lapack.solve1(jac, g, signature="dd->d")
            length2 = step @ step
            if math.isnan(length2):   # J is singular
                break
            factor = 1.0
            if dlog is not None:
                factor = 1.0 / (1.0 - dlog @ step)
                step = factor * step
                length2 = step @ step
            if math.sqrt(length2) <= tol:
                x = x + step
                path.append(x)
                ok = factor > 0.0
                break
            if not crawled:
                y = x + step
                gy, units, weights = _signed_gradient(local, sigma, y)
                wy, dy = _deflation(y, known, d2) if len(known) else (1.0, None)
                evaluations += 1
                merit_y = wy * math.sqrt(gy @ gy)
            if crawled or not merit_y <= (1.0 - 1e-4) * merit:
                # the rest (all twelve after a crawl) in one pass, counted to the first passing
                first = 0 if crawled else 1
                ys = x + _FRACTIONS[first:, None] * step
                gs, units, weights = _signed_gradient(local, sigma, ys)
                wys, dys = _deflation(ys, known, d2) if len(known) else (1.0, None)
                merits = np.sqrt((gs[:, None] @ gs[..., None])[:, 0, 0]) * wys   # g @ g per row
                passed = (merits <= _ARMIJO[first:] * merit).nonzero()[0]
                if not passed.size:
                    evaluations += len(ys)
                    # M |g_sigma| is at the level of rounding: a start already
                    # at a root ends here, and is accepted on the residual
                    ok = merit <= _RESIDUAL
                    if ok and not path:
                        path.append(x)
                    break
                k = int(passed[0])
                evaluations += k + 1
                crawled = _FRACTIONS[first + k] <= 0.125
                y, gy, units, weights = ys[k], gs[k], units[k], weights[k]
                dy, merit_y = None if dys is None else dys[k], float(merits[k])
            x, g, jac, dlog, merit = y, gy, _jacobian(units, weights), dy, merit_y
            path.append(x)
    reason = "converged" if ok else "out of budget" if len(path) == max_steps else "stalled"
    return path, evaluations, reason, jac


def distance_sum_gradient(model: SimplexModel, x: np.ndarray) -> np.ndarray:
    """Gradient of the distance sum at a Cartesian point, skipping vertices
    at zero distance (at a vertex: the gradient over the other vertices)."""
    return _signed_gradient(model._local, _positive(model.n + 1), model._to_frame(x))[0]


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
    for c in (pc, zc):
        _nonzero(c, "correspondent needs all coordinates nonzero")
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
    _, dv = model._rays(model._frame(pt), "step is undefined at a vertex (zero distance)")
    return BarycentricPoint(_step(pt.coords, dv, "q"))


def weiszfeld_step_r(p, model: SimplexModel) -> BarycentricPoint:
    """One square-root-free step: [1/(|p_i| d(P, A_i)^2)].

    Uses the current iterate's coordinate magnitudes, so interior fixed
    points have coordinates proportional to reciprocal distances, exactly
    as for the "q" step.  Output coordinates are always positive.
    """
    pt = as_point(p, model.n)
    _nonzero(pt.normalized_coords, "square-root-free step needs nonzero coordinates")
    _, dv = model._rays(model._frame(pt), "step is undefined at a vertex (zero distance)")
    return BarycentricPoint(_step(pt.coords, dv, "r"))


def _ray_point(vertex: np.ndarray, pull: np.ndarray, length: float, t: float) -> np.ndarray:
    """The point t along -c/|c| from a vertex whose pull is c, |c| = ``length``:
    g_sigma's roots leave a vertex with |c| < 1 along this ray, and the
    distance sum falls along it from a vertex with |c| > 1."""
    return vertex - t * pull / length


def _fermat_solve(model: SimplexModel, start: BarycentricPoint, method: str = "q",
                  tol: float = _TOL, max_iter: int = _MAX_ITER) -> tuple:
    """:func:`fermat_point`'s solve, unchecked (no vertex may pass Kuhn's test):
    its approach step's homogeneous coordinates, then :func:`_newton`'s
    returns on the distance sum from there.

    A run that stalls, always near a vertex k whose pull only just fails
    Kuhn's test, restarts once from the vertex nearest its last point: on
    the ray from A_k along -c_k/|c_k|, the derivative 1 + sum_{i != k} e.u_i
    of the distance sum rises from 1 - |c_k| < 0 and is positive one
    diameter out, so halving finds the line minimum, where Newton runs
    again with the budget left.  The restart point joins the path as a
    step, and the returns add up (H. W. Kuhn, 1973; Y. Vardi & C.-H. Zhang,
    Math. Programming 90, 2001).
    """
    sigma, local = _positive(model.n + 1), model._local
    h = _step(np.abs(start.coords), model._distances(start), method)
    coords = h / np.add.reduce(h)
    path, evaluations, reason, jac = _newton(model, sigma, coords, tol, max_iter - 1)
    if reason == "stalled":
        k = int(model._rays(path[-1] if path else local.T @ coords)[1].argmin())
        pull = model._pulls(sigma)[k]
        length = math.sqrt(pull @ pull)
        low, high = 0.0, model._local_diameter
        for _ in range(_HALVINGS):
            t = 0.5 * (low + high)
            if _signed_gradient(local, sigma, _ray_point(local[k], pull, length, t))[0] @ pull > 0.0:
                low = t   # the derivative along -c_k is still negative
            else:
                high = t
        y = _ray_point(local[k], pull, length, high)
        restart, more, reason, jac = _newton(model, sigma, model._coords(y), tol,
                                             max_iter - 2 - len(path))
        path = [*path, y, *restart]
        evaluations += _HALVINGS + more
    return h, path, evaluations, reason, jac


def fermat_point(model: SimplexModel, start=None, method: str = "q",
                 tol: float = _TOL, max_iter: int = _MAX_ITER,
                 ) -> tuple[BarycentricPoint, SolverTrace]:
    """Minimize the distance sum to the vertices.

    A vertex that passes Kuhn's first-order test (gradient over the other
    vertices of norm <= 1) is returned exactly, after zero iterations.
    Otherwise takes one approach step of ``method`` from ``start``
    (default: centroid; all coordinates must be nonzero), then Newton steps
    until one moves the point by at most ``tol`` times the diameter, or a
    line search fails where |g| <= 1e-10, at the level of rounding.
    ``max_iter`` bounds the approach step plus the Newton steps.  Raises
    ``ValueError`` unless ``tol`` is finite and positive and ``max_iter`` an
    integer >= 0 (not a bool), and :class:`MaxIterationsExceeded` with the
    trace attached if the budget runs out or Newton stalls (a singular
    Jacobian or any other failed line search) again after its one restart
    (see :func:`_fermat_solve`); the trace's ``reason`` tells these apart.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    p = as_point(_positive(model.n + 1) if start is None else start, model.n)
    _nonzero(p.normalized_coords, "start point must have all coordinates nonzero")

    trace = SolverTrace(seed=p, _model=model, _head=[p])
    if model._fermat_vertex is not None:
        trace._head.append(BarycentricPoint.vertex(model._fermat_vertex, model.n))
        trace.reason = "vertex optimum"
        return trace._head[-1], trace

    if max_iter < 1:
        trace.reason = "out of budget"
        raise MaxIterationsExceeded(
            f"no convergence within {max_iter} iterations (method {method!r})",
            trace=trace)
    # the approach step's point is formed only if the trace is read
    h, trace._path, trace.gradient_evaluations, trace.reason, _ = _fermat_solve(
        model, p, method, tol, max_iter)
    trace._head.append(h)
    trace.iterations_used = len(trace._path) + 1
    if trace.reason == "converged":
        return BarycentricPoint(model._coords(trace._path[-1])), trace
    raise MaxIterationsExceeded(
        f"{'Newton stalled after' if trace.reason == 'stalled' else 'no convergence within'} "
        f"{trace.iterations_used} iterations (method {method!r})", trace=trace)
