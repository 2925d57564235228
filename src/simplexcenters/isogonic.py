"""Isogonal conjugation and the search for isogonic points.

A point is isogonic when its antipedal simplex is equiareal.  Such points
are found in two steps.  Their isogonal conjugates have an equiareal
*pedal* simplex, and those are fixed points of the displacement iteration

    P  <-  P + (centroid - incenter) of the pedal simplex of P,

since centroid and incenter of a simplex coincide exactly when it is
equiareal.  That map converges only linearly, so the catalog enumerator
runs it from default seeds (a triangle's isodynamic points, else the
conjugate of the Fermat point and the centroid's reflections into the
one-negative-coordinate orthants) only to a gap of 1e-3 of the diameter,
then polishes the conjugate with the Newton kernel of
:mod:`simplexcenters.fermat`: an isogonic point F is a
root of the signed distance-sum gradient g_sigma(x) = sum_i sigma_i u_i,
with sigma the sign pattern of F and u_i the unit vector from vertex i,
because the facet normals of its antipedal simplex are the +-u_i and
Minkowski's relation weighs them by the equal facet volumes.  A polished
point is kept only if Newton ends with |g_sigma| <= 1e-10 (on a step of
at most 1e-13 of the diameter, or where rounding stops its line search),
F keeps its sign pattern and F is a finite point within the map's escape
radius; otherwise the map continues to 1e-5 of the diameter and the
polish is tried once more.  Every polished point is re-verified on its
antipedal simplex.  A seed that adds no point is a failed seed, whose
:class:`~simplexcenters.fermat.SolverTrace` says why in its ``reason``.
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
    classical_centers,
    facet_volumes_of_points,
)
from .errors import (
    AtVertex,
    DegeneratePedalEncountered,
    MaxIterationsExceeded,
    PointAtInfinity,
    SimplexError,
    SolverStopped,
    UnboundedAntipedal,
    ZeroCoordinate,
)
from .fermat import SolverTrace, _newton, fermat_point
from .pedal import antipedal_simplex, equiareal_deviation, pedal_simplex

# consecutive gap increases tolerated before the step damping is halved
_OSCILLATION_LIMIT = 5
# damping below which a seed has stalled (after 10 halvings): no seed that
# reached a catalog point, of 631 on 191 benchmark and random simplices,
# went below 1/16, so the margin is 64x
_MIN_DAMPING = 1e-3
# distance from vertex 0, in diameters, past which an iterate of the map or
# a polished point has escaped
_ESCAPE = 1e6

# gaps, relative to the diameter, at which the map stops for a polish
_POLISH_STAGES = (1e-3, 1e-5)
# Newton budget, the step (relative to the diameter) that ends it, and the
# largest |g_sigma| accepted at its root
_POLISH_STEPS = 50
_POLISH_TOL = 1e-13
_POLISH_RESIDUAL = 1e-10


@dataclass
class IsogonicCatalog:
    """All isogonic points found for a simplex, with their conjugates.

    ``conjugate_points[k]`` has an equiareal pedal simplex with common
    facet volume ``pedal_areas[k]``; ``isogonic_points[k]`` is its isogonal
    conjugate, whose antipedal simplex is equiareal with common facet
    volume ``antipedal_areas[k]``.  ``traces[k]`` is the search that found
    the point; ``failed_seeds`` holds the seeds that added no point, each
    with its ``reason``, so every seed is in exactly one of the two lists.
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
    return BarycentricPoint(model.facet_volumes ** 2 / coords)


def _pedal_map(x: np.ndarray, model: SimplexModel, trace: SolverTrace,
               max_iter: int):
    """Yield each iterate of the displacement iteration from the Cartesian
    point x with its gap (the displacement norm), counted in ``trace``,
    until the caller stops; raises with the trace attached when the figure
    collapses, the damping stalls, an iterate escapes or the budget ends."""
    escape_limit = _ESCAPE * model.diameter
    damping = 1.0
    prev_gap = None
    increases = 0

    for it in range(1, max_iter + 1):
        feet = model.pedal_feet(x)
        vols = facet_volumes_of_points(feet)
        total = float(vols.sum())
        if not np.isfinite(total) or total <= 0.0:
            trace.reason = "pedal collapsed"
            raise DegeneratePedalEncountered(
                "pedal simplex collapsed during iteration", trace=trace)
        centroid = feet.mean(axis=0)
        incenter = (vols[:, None] * feet).sum(axis=0) / total
        gap = float(np.linalg.norm(centroid - incenter))
        trace.iterations_used = it
        trace.final_gap = gap
        yield x, gap
        if prev_gap is not None and gap > prev_gap:
            increases += 1
            if increases >= _OSCILLATION_LIMIT:
                damping *= 0.5
                trace.damping_used = damping
                increases = 0
                if damping < _MIN_DAMPING:
                    # damping collapsed without the gap closing: divergent
                    trace.reason = "stalled"
                    raise MaxIterationsExceeded(
                        f"iteration stalled after {it} iterations "
                        f"(gap {gap:.3e})", trace=trace)
        else:
            increases = 0
        prev_gap = gap
        x = x + damping * (centroid - incenter)
        far = np.linalg.norm(x - model.vertices[0])
        if not np.isfinite(x).all() or far > escape_limit:
            trace.reason = "escaped"
            raise MaxIterationsExceeded(
                f"iterate escaped after {it} iterations", trace=trace)

    trace.reason = "out of budget"
    raise MaxIterationsExceeded(
        f"no convergence within {max_iter} iterations", trace=trace)


def pedal_equiareal_iteration(p0, model: SimplexModel, tol: float = 1e-13,
                              max_iter: int = 20000) -> tuple[BarycentricPoint, SolverTrace]:
    """Drive a point until its pedal simplex becomes equiareal.

    Applies the Cartesian displacement (pedal centroid - pedal incenter)
    each step, stopping when the displacement norm drops below
    ``tol * diameter``.  The damping factor starts at 1 and is halved after
    five consecutive gap increases so divergent starts are recovered; a
    start whose damping falls below 1e-3 has stalled.
    """
    pt = as_point(p0, model.n)
    trace = SolverTrace(seed=pt)
    gap_limit = tol * model.diameter
    for x, gap in _pedal_map(model.bary_to_cart(pt), model, trace, max_iter):
        if gap < gap_limit:
            trace.reason = "converged"
            return model.cart_to_bary(x), trace


def _polished(x: np.ndarray, model: SimplexModel, trace: SolverTrace,
              ) -> BarycentricPoint | None:
    """The isogonic point that Newton on g_sigma reaches from the conjugate
    of the Cartesian point x, or None if the conjugate is undefined or the
    root is not accepted (see the module docstring).

    The root must also lie within the escape radius of the map: in a class
    with sum(sigma) = 0, |g_sigma| decays like the inverse square of the
    distance along one direction, so some 1e7 diameters out it is at the
    level of rounding, and a Newton step there can be short by chance.
    """
    try:
        start = isogonal_conjugate(model.cart_to_bary(x), model)
        sigma = np.sign(start.normalized_coords)
    except (ZeroCoordinate, PointAtInfinity):
        return None
    path, evaluations, ok = _newton(
        model, sigma, start.normalized_coords, _POLISH_TOL * model.diameter,
        _POLISH_STEPS, _POLISH_RESIDUAL)
    trace.gradient_evaluations += evaluations
    if (not ok or _zero_entries(path[-1]).any()
            or not np.array_equal(np.sign(path[-1]), sigma)):
        return None
    point = BarycentricPoint(path[-1])
    if not point.is_finite():
        return None
    far = np.linalg.norm(model.bary_to_cart(point) - model.vertices[0])
    return None if far > _ESCAPE * model.diameter else point


def _search(seed: BarycentricPoint, model: SimplexModel, budget: int,
            ) -> tuple[BarycentricPoint | None, SolverTrace]:
    """Run the map from one seed in stages and polish at the end of each.

    Returns the first accepted isogonic point, or None if the map reached
    its last stage and no polish was accepted (reason "rejected"), together
    with the trace.  Raises what the map raises.
    """
    trace = SolverTrace(seed=seed)
    steps = _pedal_map(model.bary_to_cart(seed), model, trace, budget)
    x, gap = next(steps)
    tried = 0
    for stage in _POLISH_STAGES:
        while gap >= stage * model.diameter:
            x, gap = next(steps)
        if trace.iterations_used == tried:
            continue
        tried = trace.iterations_used
        point = _polished(x, model, trace)
        if point is not None:
            trace.reason = "converged"
            return point, trace
    trace.reason = "rejected"
    return None, trace


def is_isogonic(p, model: SimplexModel, tol: float = 1e-7) -> tuple[bool, float]:
    """Whether the antipedal simplex of the point is equiareal.

    Returns the verdict together with the relative facet-volume spread;
    an unbounded antipedal construction yields (False, inf).
    """
    try:
        deviation = equiareal_deviation(antipedal_simplex(p, model))
    except UnboundedAntipedal:
        return False, math.inf
    return deviation <= tol, deviation


def default_seeds(model: SimplexModel) -> list[BarycentricPoint]:
    """A triangle's isodynamic points where they are defined; otherwise the
    isogonal conjugate of the Fermat point, then the centroid's reflection
    into each one-negative-coordinate orthant.

    A non-equilateral triangle has exactly two isogonic points, Kimberling's
    X(13) and X(14): the isogonal conjugates of its isodynamic points X(15)
    and X(16), which the map fixes.  An equilateral one has its center alone.

    The all-positive isogonic points are the roots of g_sigma for
    sigma = +1, the gradient of the distance sum.  That sum is strictly
    convex, so the class holds the Fermat point alone, or nothing when the
    minimizer is a vertex (H. W. Kuhn, Math. Programming 4, 1973); the
    conjugate of the Fermat point is fixed by the map.  The centroid stands
    in for it when the minimizer is a vertex or the solver fails.
    """
    if model.n == 2:
        try:
            found = isodynamic_points(classical_centers(model)["I"], model)
        except SimplexError:
            pass
        else:
            return [point for point in found.points
                    if np.abs(point.coords).min() > 1e-9 * np.abs(point.coords).max()]
    m = model.n + 1
    seeds = [BarycentricPoint(np.ones(m))]
    try:
        fermat, trace = fermat_point(model)
        if not trace.vertex_optimum:
            seeds[0] = isogonal_conjugate(fermat, model)
    except SimplexError:
        pass
    for k in range(m):
        c = np.ones(m)
        c[k] = -1.0
        seeds.append(BarycentricPoint(c))
    return seeds


def _canonical_order(points: list[BarycentricPoint]) -> list[int]:
    """All-positive point first, then by position of the first negative entry."""
    def key(idx):
        c = points[idx].normalized_coords
        neg = np.flatnonzero(c < 0)
        if neg.size == 0:
            return (0, -1, 0.0)
        return (1, int(neg[0]), float(c[neg[0]]))
    return sorted(range(len(points)), key=key)


def enumerate_isogonic(model: SimplexModel, seeds=None, budget: int = 20000,
                       ) -> IsogonicCatalog:
    """Collect isogonic points reachable from a seed set.

    ``seeds`` extends the default seed set.  Each seed runs the
    pedal-equiareal iteration in stages, with a Newton polish of the
    conjugate after each (see the module docstring); ``budget`` bounds its
    map steps.  The equiareal-pedal points, the conjugates of the polished
    points, are deduplicated at 1e-6 in normalized coordinates.  Every
    isogonic point is re-verified by :func:`is_isogonic` at its default
    tolerance, and the catalog is sorted canonically.  A seed that adds
    no point (its map fails, its polish is never accepted, its point fails
    the re-verification or was found before) goes to ``failed_seeds`` with
    its reason rather than raising.
    """
    seed_list = default_seeds(model)
    if seeds is not None:
        seed_list = seed_list + [as_point(s, model.n) for s in seeds]

    catalog = IsogonicCatalog()
    unique = []
    for seed in seed_list:
        try:
            point, trace = _search(seed, model, budget)
        except SolverStopped as exc:
            point, trace = None, exc.trace
        if point is not None:
            limit = isogonal_conjugate(point, model)
            c = limit.normalized_coords
            if not any(np.abs(c - q.normalized_coords).max() <= 1e-6
                       for q, _, _ in unique):
                unique.append((limit, point, trace))
                continue
            trace.reason = "duplicate"
        catalog.failed_seeds.append(trace)

    kept = []
    for pt, conj, tr in unique:
        if is_isogonic(conj, model)[0]:
            kept.append((pt, conj, tr))
        else:
            tr.reason = "rejected"
            catalog.failed_seeds.append(tr)

    for idx in _canonical_order([conj for _, conj, _ in kept]):
        pt, conj, tr = kept[idx]
        catalog.conjugate_points.append(pt)
        catalog.isogonic_points.append(conj)
        catalog.pedal_areas.append(float(pedal_simplex(pt, model).facet_volumes.mean()))
        catalog.antipedal_areas.append(
            float(antipedal_simplex(conj, model).facet_volumes.mean()))
        catalog.traces.append(tr)
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
    x = model.bary_to_cart(pt)
    rays = model.vertices - x[None, :]
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
