"""Isogonal conjugation and the search for isogonic points.

A point F is isogonic when its antipedal simplex is equiareal, that is,
when it is a root of g_sigma(x) = sum_i sigma_i u_i, with sigma the sign
pattern of F and u_i the unit vector from vertex i: the facet normals of
the antipedal simplex are the +-u_i, and Minkowski's relation weighs them
by the facet volumes.  The conjugate of F has an equiareal pedal simplex;
the catalog reports both points with their facet volumes.

The catalog finds the roots with the Newton kernel of
:mod:`simplexcenters.fermat`, one sign class {sigma, -sigma} at a time,
deflating each start against the roots found before in its class.  It
claims the all-positive class, started at the centroid's Weiszfeld step
as the Newton phase of :func:`~simplexcenters.fermat.fermat_point` is,
and the n+1 one-negative classes, started at the symmedian point's
reflections; for n >= 3 a claimed class takes further starts until its
roots satisfy the degree balance (Poincare-Hopf; J. Milnor, *Topology
from the Differentiable Viewpoint*, 1965)

    sum_{roots r} sign det J_sigma(r) + sum_{k: |c_k| < 1} sigma_k^n = sign(S)^n,

with S = sum(sigma) != 0 and c_k = sum_{i != k} sigma_i (A_k - A_i)/|A_k - A_i|:
g_sigma tends to S x/|x| far out and to sigma_k u + c_k near vertex k.
Balance is necessary for a complete class, not sufficient, and certifies
nothing when some |c_k| is within rounding of 1.  A triangle's isogonic
points are the conjugates X(13), X(14) of its seeds, so it takes no more.

A root is accepted if |g_sigma| <= 1e-10, it keeps the pattern +-sigma,
it lies within 1e6 diameters of vertex 0 (if sum(sigma) = 0, |g_sigma|
falls to rounding far out along one direction) and its antipedal facet
volumes, which give the catalog's areas, pass :func:`is_isogonic`'s test.
Any other start is a failed seed with its ``reason``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .apollonian import isodynamic_points
from .barycentric import (
    BarycentricPoint,
    SimplexModel,
    _zero_entries,
    as_point,
    facet_volumes_of_points,
)
from .errors import (
    AtVertex,
    PointAtInfinity,
    SimplexError,
    UnboundedAntipedal,
    ZeroCoordinate,
)
from .fermat import SolverTrace, _newton, _pulls, _signed_gradient
from .pedal import _antipedal_points, _spread

# distance from vertex 0, in diameters, past which a root has escaped
_ESCAPE = 1e6

# Newton steps per catalog start, the step (relative to the diameter) that
# ends it, and the largest |g_sigma| accepted at its root
_POLISH_STEPS = 30
_POLISH_TOL = 1e-13
_POLISH_RESIDUAL = 1e-10
# distances of the near-vertex starts from their vertex, in diameters; the
# random points a class draws when it is still unbalanced after those; and
# how close to 1 a pull's norm may come before the balance stops certifying
_NEAR_VERTEX = (0.1, 0.3)
_CLASS_POINTS = 2
_ROUNDING = 1e-9
# largest relative spread of the antipedal facet volumes at an isogonic point
_EQUIAREAL = 1e-7


@dataclass
class IsogonicCatalog:
    """The isogonic points found in the claimed sign classes (all-positive
    and one-negative) and from the caller's seeds, with their conjugates.

    ``isogonic_points[k]`` has an equiareal antipedal simplex of facet
    volume ``antipedal_areas[k]``, and ``conjugate_points[k]`` an equiareal
    pedal simplex of facet volume ``pedal_areas[k]``.  ``traces[k]`` is the
    start that found the point; ``failed_seeds`` holds every other start
    that ran, with its ``reason``.  A trace's ``seed`` is the conjugate of
    its start, as in :func:`default_seeds`.
    """

    conjugate_points: list[BarycentricPoint] = field(default_factory=list)
    isogonic_points: list[BarycentricPoint] = field(default_factory=list)
    pedal_areas: list[float] = field(default_factory=list)
    antipedal_areas: list[float] = field(default_factory=list)
    traces: list[SolverTrace] = field(default_factory=list)
    failed_seeds: list[SolverTrace] = field(default_factory=list)

    def __len__(self):
        return len(self.isogonic_points)


def isogonal_conjugate(p, model: SimplexModel) -> BarycentricPoint:
    """Involution [p_i] -> [a_i^2 / p_i] with a_i the facet volumes.

    Restricts to the classical triangle conjugation (squared side lengths
    over coordinates); the centroid maps to the symmedian point and the
    incenter is fixed.
    """
    coords = as_point(p, model.n).coords
    if _zero_entries(coords).any():
        raise ZeroCoordinate("isogonal conjugate needs all coordinates nonzero")
    return BarycentricPoint(model._facets ** 2 / coords)


def _start(seed: BarycentricPoint, model: SimplexModel) -> np.ndarray | None:
    """Normalized coordinates of the conjugate of a seed, if it is finite."""
    try:
        return isogonal_conjugate(seed, model).normalized_coords
    except (ZeroCoordinate, PointAtInfinity):
        return None


def _run(model: SimplexModel, sigma: np.ndarray, seed: BarycentricPoint,
         roots: list[np.ndarray],
         ) -> tuple[BarycentricPoint | None, np.ndarray | None, SolverTrace]:
    """Newton on g_sigma from the conjugate of ``seed``, deflated against
    ``roots``: the accepted isogonic point, whose frame position joins
    ``roots``, and its antipedal facet volumes, or None twice, with the
    trace of the start."""
    trace = SolverTrace(seed=seed, reason="rejected")
    start = _start(seed, model)
    if start is None:
        return None, None, trace
    path, trace.gradient_evaluations, ok = _newton(
        model, sigma, start, _POLISH_TOL, _POLISH_STEPS, _POLISH_RESIDUAL, roots)
    trace.iterations_used = len(path)
    if not ok:
        trace.reason = "out of budget" if len(path) == _POLISH_STEPS else "stalled"
        return None, None, trace
    root = path[-1]
    point = BarycentricPoint(model._coords(root))
    signs = np.sign(point.coords)
    if point.is_finite() and np.array_equal(signs * signs[0], sigma * sigma[0]):
        if np.linalg.norm(root) > _ESCAPE * model._local_diameter:
            trace.reason = "escaped"
        else:
            volumes = _antipedal_volumes(point, model)
            if volumes is not None and _spread(volumes) <= _EQUIAREAL:
                trace.reason = "converged"
                roots.append(root)
                return point, volumes, trace
    return None, None, trace


def _antipedal_volumes(p, model: SimplexModel) -> np.ndarray | None:
    """The antipedal simplex's facet volumes in the frame, or None if it is unbounded."""
    try:
        return facet_volumes_of_points(_antipedal_points(p, model))
    except UnboundedAntipedal:
        return None


def is_isogonic(p, model: SimplexModel, tol: float = _EQUIAREAL) -> tuple[bool, float]:
    """Whether the antipedal simplex of the point is equiareal.

    Returns the verdict together with the relative facet-volume spread;
    an unbounded antipedal construction yields (False, inf).
    """
    volumes = _antipedal_volumes(p, model)
    deviation = math.inf if volumes is None else _spread(volumes)
    return deviation <= tol, deviation


def _sign_classes(m: int) -> list[np.ndarray]:
    """The claimed sign patterns: all-positive, then one negative entry at each k."""
    return [np.ones(m)] + [np.where(np.arange(m) == k, -1.0, 1.0) for k in range(m)]


def default_seeds(model: SimplexModel) -> list[BarycentricPoint]:
    """A triangle's isodynamic points X(15), X(16), whose conjugates are its
    isogonic points X(13), X(14) (the center alone if equilateral), as found
    (the catalog rejects one on a side line, whose conjugate is a vertex).
    Otherwise [a_i^2 d_i(G)], with a_i the facet volumes and d_i(G) the
    centroid's distances to the vertices, then the centroid's reflections
    into the one-negative orthants.  Newton starts at their conjugates:
    [1/d_i(G)], the centroid's Weiszfeld step, where the Newton phase of
    :func:`~simplexcenters.fermat.fermat_point` starts, and the reflections
    of the symmedian point.  The all-positive class is strictly convex: its
    one root is the Fermat point, unless a vertex is the minimizer and the
    class is empty.
    """
    if model.n == 2:
        try:
            return isodynamic_points(model._facets, model).points
        except SimplexError:
            pass
    centroid, *reflections = map(BarycentricPoint, _sign_classes(model.n + 1))
    return [BarycentricPoint(model._facets ** 2 * model._distances(centroid)), *reflections]


def _canonical_key(point: BarycentricPoint) -> tuple:
    """All-positive point first, then by position of the first negative entry."""
    c = point.normalized_coords
    neg = np.flatnonzero(c < 0)
    return (0, -1, 0.0) if neg.size == 0 else (1, int(neg[0]), float(c[neg[0]]))


def _further_seeds(model: SimplexModel, sigma: np.ndarray, roots: list[np.ndarray]):
    """Yield seeds for a claimed class while its ``roots``, which grow as the
    caller runs the seeds, fail the degree balance: the conjugates of the
    points 0.1 and then 0.3 diameters from each vertex k, by |c_k| (roots
    emerge from vertices with |c_k| < 1), along -sigma_k c_k/|c_k|; then
    points sigma * w, w from a flat Dirichlet draw keyed by the class.
    """
    pulls = _pulls(model, sigma)
    norms = np.linalg.norm(pulls, axis=1)
    certified = not (np.abs(norms - 1.0) <= _ROUNDING).any()
    target = np.sign(sigma.sum()) ** model.n - (sigma[norms < 1.0] ** model.n).sum()
    local = model._local

    def balanced() -> bool:
        return certified and target == sum(
            np.sign(np.linalg.det(_signed_gradient(local, sigma, r)[1]))
            for r in roots)

    order = np.argsort(norms, kind="stable")
    for radius, k in itertools.product(_NEAR_VERTEX, order[norms[order] > 0]):
        if balanced():
            return
        # -c_k has a component along every edge at vertex k, so no
        # sideplane through vertex k holds this point
        near = local[k] - radius * model._local_diameter * sigma[k] * pulls[k] / norms[k]
        yield isogonal_conjugate(model._coords(near), model)
    rng = np.random.default_rng([len(sigma), *map(int, sigma * sigma[0] > 0)])
    for _ in range(_CLASS_POINTS):
        if balanced():
            return
        yield BarycentricPoint(sigma * rng.dirichlet(np.ones(len(sigma))))


def enumerate_isogonic(model: SimplexModel, seeds=None) -> IsogonicCatalog:
    """The isogonic points of the claimed sign classes, and any that the
    caller's ``seeds`` (added to the default ones) reach, sorted canonically.

    Each seed's conjugate starts Newton in its own sign class; then, for
    n >= 3, each claimed class takes further starts while its degree
    balance fails (see the module docstring).
    """
    extra = [] if seeds is None else [as_point(s, model.n) for s in seeds]
    m = model.n + 1
    classes = {(s * s[0]).tobytes(): (s, []) for s in _sign_classes(m)}
    for seed in default_seeds(model) + extra:
        start = _start(seed, model)
        sigma = np.ones(m) if start is None else np.sign(start)
        classes.setdefault((sigma * sigma[0]).tobytes(), (sigma, []))[1].append(seed)

    runs = []
    for c, (sigma, class_seeds) in enumerate(classes.values()):
        roots: list[np.ndarray] = []
        if c <= m and model.n > 2:
            class_seeds = itertools.chain(class_seeds, _further_seeds(model, sigma, roots))
        runs += [_run(model, sigma, seed, roots) for seed in class_seeds]

    catalog = IsogonicCatalog(failed_seeds=[trace for point, _, trace in runs if point is None])
    for point, volumes, trace in sorted((run for run in runs if run[0] is not None),
                                        key=lambda run: _canonical_key(run[0])):
        conjugate = isogonal_conjugate(point, model)
        catalog.conjugate_points.append(conjugate)
        catalog.isogonic_points.append(point)
        feet = model._feet(model._local.T @ conjugate.normalized_coords)
        for areas, figure_volumes in ((catalog.pedal_areas, facet_volumes_of_points(feet)),
                                      (catalog.antipedal_areas, volumes)):
            areas.append(float(model._absolute(figure_volumes.mean(), model.n - 1)))
        catalog.traces.append(trace)
    return catalog


def triad_angle_check(p, model: SimplexModel, tol: float = 1e-7,
                      ) -> tuple[bool, dict[tuple[int, int, int], np.ndarray]]:
    """Compare the line-angle triples of all vertex triads through a point.

    For a 3-simplex and each vertex triple {i, j, k}, the three angles
    between the lines joining the point to the triple's vertices (taken in
    [0, pi/2]) are sorted; the check passes when all four sorted triples
    agree within ``tol`` radians.  True at every isogonic point.
    """
    if model.n != 3:
        raise ValueError("triad angle check is defined for 3-simplices")
    pt = as_point(p, model.n)
    rays = model._local - model._local.T @ pt.normalized_coords
    norms = np.linalg.norm(rays, axis=1)
    if model._vertex_at(norms) is not None:
        raise AtVertex("triad angles are undefined at a vertex")
    units = rays / norms[:, None]

    table: dict[tuple[int, int, int], np.ndarray] = {}
    for tri in itertools.combinations(range(model.n + 1), 3):
        angles = sorted(
            math.acos(min(1.0, abs(float(units[i] @ units[j]))))
            for i, j in itertools.combinations(tri, 2))
        table[tri] = np.array(angles)
    rows = np.array(list(table.values()))
    passed = bool(np.abs(rows - rows[0]).max() <= tol)
    return passed, table
