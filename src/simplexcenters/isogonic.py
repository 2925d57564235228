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
claims the n+1 one-negative classes, started at the symmedian point's
reflections, and the all-positive class, which for n >= 3 runs the solve
of :func:`~simplexcenters.fermat.fermat_point` from the centroid (none
where Kuhn's test names a vertex); for n >= 3 a claimed class takes
further starts until its roots satisfy the degree balance (Poincare-Hopf;
J. Milnor, *Topology from the Differentiable Viewpoint*, 1965)

    sum_{roots r} sign det J_sigma(r) + sum_{k: |c_k| < 1} sigma_k^n = sign(S)^n,

with S = sum(sigma) != 0 and c_k = sum_{i != k} sigma_i (A_k - A_i)/|A_k - A_i|:
g_sigma tends to S x/|x| far out and to sigma_k u + c_k near vertex k.
Balance is necessary for a complete class, not sufficient, and certifies
nothing when some |c_k| is within rounding of 1.  The further starts lie
near the vertices on the rays -sigma_k c_k/|c_k|; they depend on the
geometry alone and draw no random numbers, so relabeling the vertices
relabels the points found, up to rounding.  A triangle's isogonic
points are the conjugates X(13), X(14) of its seeds, so it takes no more.

A root is accepted if its Newton run converged, as a Fermat solve does,
it keeps the pattern +-sigma, it lies within 1e6 diameters of vertex 0
(if sum(sigma) = 0, |g_sigma| falls to rounding far out along one
direction), it is neither a vertex nor on a sideplane, so that its
antipedal simplex exists, and its antipedal facet volumes pass
:func:`is_isogonic`'s test.
Only a root that passes the first four tests has its conjugate formed; one
:func:`~simplexcenters.barycentric.facet_volumes_of_points` call then
measures its antipedal simplex and the conjugate's pedal simplex, whose
mean facet volumes are the catalog's areas.  A conjugate at infinity has
no pedal simplex, and its pedal area is nan.  Any other start is a failed
seed with its ``reason``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .apollonian import _common_points
from .barycentric import (
    BarycentricPoint,
    SimplexModel,
    _frozen,
    _lapack,
    _nonzero,
    _norms,
    _spread,
    as_point,
    facet_volumes_of_points,
)
from .errors import AtVertex, Degenerate, PointAtInfinity, ZeroCoordinate
from .fermat import _TOL, SolverTrace, _fermat_solve, _newton, _positive, _ray_point
from .pedal import _antipedal_points

# distance from vertex 0, in diameters, past which a root has escaped
_ESCAPE = 1e6

# Newton steps per catalog start but the Fermat solve
_POLISH_STEPS = 30
# distances of a class's further starts from their vertex, in diameters, each
# radius tried at every vertex before the next; and how close to 1 a pull's
# norm may come before the balance stops certifying
_NEAR_VERTEX = (0.1, 0.3, 0.6)
_ROUNDING = 1e-9
# largest relative spread of the antipedal facet volumes at an isogonic point
_EQUIAREAL = 1e-7


@dataclass(eq=False)
class IsogonicCatalog:
    """The isogonic points found in the claimed sign classes (all-positive
    and one-negative) and from the caller's seeds, with their conjugates.

    ``isogonic_points[k]`` has an equiareal antipedal simplex of facet
    volume ``antipedal_areas[k]``, and ``conjugate_points[k]`` an equiareal
    pedal simplex of facet volume ``pedal_areas[k]``.  A conjugate may be a
    direction (``is_finite()`` False), as [-3 : 1 : 1 : 1] is for the
    isogonic point [-1 : 1 : 1 : 1] of the corner tetrahedron (0, e_1, e_2,
    e_3): it has no pedal simplex, and its pedal area is nan, undefined;
    the point stays in the catalog.  ``traces[k]`` is the start that found
    the point; ``failed_seeds`` holds every other start that ran, with its
    ``reason``.  A trace's ``seed`` is the conjugate of its start, as in
    :func:`default_seeds`, or the centroid for the Fermat solve (n >= 3).
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
    point = as_point(p, model.n)
    coords = point.coords
    _nonzero(coords, "isogonal conjugate needs all coordinates nonzero")
    if not point.is_finite():
        # a direction is kept as given, so a_i^2 / p_i may overflow; the map is
        # homogeneous, and a power of two keeps a finite conjugate's bits
        coords = np.ldexp(coords, 1 - math.frexp(np.maximum.reduce(np.abs(coords)))[1])
    return BarycentricPoint(model._facets ** 2 / coords)


def _start(seed: BarycentricPoint, model: SimplexModel) -> np.ndarray | None:
    """Normalized coordinates of the conjugate of a seed, if it is finite."""
    try:
        return isogonal_conjugate(seed, model).normalized_coords
    except (ZeroCoordinate, PointAtInfinity):
        return None


def _run(model: SimplexModel, sigma: np.ndarray, seed: BarycentricPoint,
         start: np.ndarray | BarycentricPoint | None, roots: list[np.ndarray],
         indices: list[float],
         ) -> tuple[tuple[BarycentricPoint, BarycentricPoint, np.ndarray] | None, SolverTrace]:
    """Newton on g_sigma from ``start``, the ``_start`` of ``seed``, deflated
    against ``roots``, or the Fermat solve if ``start`` is ``seed``: the
    accepted isogonic point, whose frame position joins ``roots`` and whose
    index, sign det J_sigma from Newton's last Jacobian, joins ``indices``,
    with its conjugate and the mean facet volumes of its antipedal and of
    the conjugate's pedal simplex in the frame (the pedal one nan if the
    conjugate is a direction), or None; and the start's trace and reason."""
    trace = SolverTrace(seed=seed, reason="rejected")
    if start is None:
        return None, trace
    if start is seed:   # its approach step counts as a step, as in fermat_point
        _, path, trace.gradient_evaluations, reason, jac = _fermat_solve(model, seed)
    else:
        path, trace.gradient_evaluations, reason, jac = _newton(
            model, sigma, start, _TOL, _POLISH_STEPS, roots)
    trace.iterations_used = len(path) + (start is seed)
    if reason != "converged":
        trace.reason = reason
        return None, trace
    root = path[-1]
    point = BarycentricPoint(model._coords(root))
    if not (point.is_finite() and _has_pattern(point.coords, sigma)):
        return None, trace
    if math.sqrt(root @ root) > _ESCAPE * model._local_diameter:
        trace.reason = "escaped"
        return None, trace
    try:
        antipedal = _antipedal_points(point, model)
    except (ZeroCoordinate, AtVertex):
        return None, trace
    # isogonal_conjugate, whose zero test _antipedal_points has just passed
    conjugate = BarycentricPoint(model._facets ** 2 / point.coords)
    if conjugate.is_finite():
        feet = model._feet(model._frame(conjugate))
        volumes = facet_volumes_of_points(np.array((antipedal, feet)))
    else:   # a direction has no pedal simplex
        volumes = np.stack((facet_volumes_of_points(antipedal), np.full(model.n + 1, np.nan)))
    if not _spread(volumes[0]) <= _EQUIAREAL:
        return None, trace
    trace.reason = "converged"
    roots.append(root)
    indices.append(np.sign(_lapack.det(jac, signature="d->d")))
    return (point, conjugate, np.add.reduce(volumes, axis=1) / (model.n + 1)), trace


def _has_pattern(coords: np.ndarray, sigma: np.ndarray) -> bool:
    """Whether the p_i have the pattern +-sigma: all sigma_i p_i > 0, or all < 0."""
    return set(np.sign(sigma * coords).tolist()) in ({1.0}, {-1.0})


def is_isogonic(p, model: SimplexModel) -> tuple[bool, float]:
    """Whether the antipedal simplex of the point is equiareal, by the catalog's rule.

    Returns the verdict, True for a spread of at most 1e-7, with the
    relative facet-volume spread; a point on a sideplane, a vertex
    included, where no antipedal simplex exists, or beyond the catalog's
    escape radius yields (False, inf); a direction raises
    ``PointAtInfinity``, and a collapsed model ``Degenerate``.
    """
    try:
        volumes = facet_volumes_of_points(_antipedal_points(p, model))
    except (ZeroCoordinate, AtVertex):
        return False, math.inf
    y = model._frame(p)
    if math.sqrt(y @ y) > _ESCAPE * model._local_diameter:
        return False, math.inf
    deviation = _spread(volumes)
    return deviation <= _EQUIAREAL, deviation


@functools.cache
def _claimed(m: int) -> tuple[tuple[bytes, ...], tuple[np.ndarray, ...],
                              tuple[BarycentricPoint, ...]]:
    """The claimed sign classes: their keys (sigma * sigma[0]).tobytes(), their
    patterns sigma, read-only, and those patterns as points; all-positive,
    then one negative entry at each k (the rows of 1 - 2I)."""
    classes = (_positive(m), *_frozen(1.0 - 2.0 * np.eye(m)))
    return (tuple((s * s[0]).tobytes() for s in classes), classes,
            tuple(map(BarycentricPoint, classes)))


def default_seeds(model: SimplexModel) -> list[BarycentricPoint]:
    """A triangle's isodynamic points X(15), X(16), whose conjugates are its
    isogonic points X(13), X(14) (the center alone if equilateral), as found
    (the catalog rejects one on a side line, whose conjugate is a vertex).
    Otherwise the centroid, where the catalog's Fermat solve starts, and
    its reflections into the one-negative orthants, whose conjugates start
    Newton.  The all-positive class is strictly convex: its one root is the
    Fermat point, unless a vertex is the minimizer and the class is empty.
    A collapsed model raises ``Degenerate``.
    """
    if model.degenerate:
        raise Degenerate("a collapsed simplex has no isogonic points")
    if model.n == 2:   # the incenter, normalized as a point stores it
        return _common_points(model._facets / np.add.reduce(model._facets), model)[0]
    return list(_claimed(model.n + 1)[2])


def _canonical_key(point: BarycentricPoint) -> tuple:
    """All-positive point first, then by position of the first negative entry."""
    c = point.normalized_coords.tolist()
    k = next((k for k, v in enumerate(c) if v < 0.0), None)
    return (0, -1, 0.0) if k is None else (1, k, c[k])


def _balance_target(signs: list[float], lengths: list[float], n: int) -> int:
    """sign(S)^n - sum_{k: |c_k| < 1} sigma_k^n in integers, from the sigma_k and the |c_k|."""
    total = sum(signs)
    return ((total > 0) - (total < 0)) ** n - sum(
        int(s) ** n for s, r in zip(signs, lengths) if r < 1.0)


def _further_seeds(model: SimplexModel, sigma: np.ndarray, indices: list[float]):
    """Yield seeds for a claimed class while the ``indices`` (sign det J_sigma)
    of its roots, which grow as the caller runs the seeds, fail the degree
    balance: the conjugates of the points 0.1, then 0.3, then 0.6 diameters
    from each vertex k, by |c_k| (roots emerge from vertices with |c_k| < 1),
    along -sigma_k c_k/|c_k|; relabeling the vertices permutes them.
    """
    pulls = model._pulls(sigma)
    norms = _norms(pulls, 1)
    signs, lengths = sigma.tolist(), norms.tolist()
    certified = not any(abs(r - 1.0) <= _ROUNDING for r in lengths)
    target = _balance_target(signs, lengths, model.n)
    order = [k for k in norms.argsort(kind="stable").tolist() if lengths[k] > 0.0]
    for radius, k in itertools.product(_NEAR_VERTEX, order):
        if certified and sum(indices) == target:
            return
        # -c_k has a component along every edge at vertex k, so no
        # sideplane through vertex k holds this point
        near = _ray_point(model._local[k], signs[k] * pulls[k], lengths[k],
                          radius * model._local_diameter)
        yield isogonal_conjugate(model._coords(near), model)


def enumerate_isogonic(model: SimplexModel, seeds=None) -> IsogonicCatalog:
    """The isogonic points of the claimed sign classes, and any that the
    caller's ``seeds`` (added to the default ones) reach, sorted canonically.

    Each seed's conjugate starts Newton in its own sign class; for n >= 3
    the centroid starts the Fermat solve instead (none where Kuhn's test
    names a vertex; a caller's all-positive seed still runs), and each
    claimed class takes further starts while its degree balance fails (see
    the module docstring).  A collapsed model raises ``Degenerate``.
    """
    extra = [] if seeds is None else [as_point(s, model.n) for s in seeds]
    m = model.n + 1
    keys, patterns, _ = _claimed(m)
    classes = {key: (s, []) for key, s in zip(keys, patterns)}
    for k, seed in enumerate(default_seeds(model) + extra):
        fermat = k == 0 and model.n > 2
        if fermat and model._fermat_vertex is not None:
            continue   # Kuhn's test names a vertex: the class has no root to solve for
        start = seed if fermat else _start(seed, model)
        sigma = np.ones(m) if start is None or start is seed else np.sign(start)
        classes.setdefault((sigma * sigma[0]).tobytes(), (sigma, []))[1].append((seed, start))

    runs = []
    for c, (sigma, starts) in enumerate(classes.values()):
        roots: list[np.ndarray] = []
        indices: list[float] = []
        if c <= m and model.n > 2:
            further = _further_seeds(model, sigma, indices)
            starts = itertools.chain(starts, ((s, _start(s, model)) for s in further))
        runs += [_run(model, sigma, seed, start, roots, indices) for seed, start in starts]

    found = sorted(((*result, trace) for result, trace in runs if result is not None),
                   key=lambda run: _canonical_key(run[0]))
    areas = model._absolute(np.array([run[2] for run in found]), model.n - 1).tolist()
    return IsogonicCatalog(
        conjugate_points=[run[1] for run in found], isogonic_points=[run[0] for run in found],
        pedal_areas=[pedal for _, pedal in areas], antipedal_areas=[area for area, _ in areas],
        traces=[run[3] for run in found],
        failed_seeds=[trace for result, trace in runs if result is None])


def triad_angle_check(p, model: SimplexModel, tol: float = 1e-7,
                      ) -> tuple[bool, dict[tuple[int, int, int], np.ndarray]]:
    """Compare the line-angle triples of all vertex triads through a point.

    For a 3-simplex and each vertex triple {i, j, k}, the three angles
    between the lines joining the point to the triple's vertices (taken in
    [0, pi/2]) are sorted; the check passes when all four sorted triples
    agree within ``tol`` radians.  True at every isogonic point, and a
    necessary condition only: far out, where the lines to the vertices are
    nearly parallel, points that :func:`is_isogonic` refuses pass too.
    """
    if model.n != 3:
        raise ValueError("triad angle check is defined for 3-simplices")
    rays, lengths = model._rays(model._frame(as_point(p, model.n)),
                                "triad angles are undefined at a vertex")
    units = rays / lengths[:, None]

    table: dict[tuple[int, int, int], np.ndarray] = {}
    for tri in itertools.combinations(range(model.n + 1), 3):
        angles = sorted(
            math.acos(min(1.0, abs(float(units[i] @ units[j]))))
            for i, j in itertools.combinations(tri, 2))
        table[tri] = np.array(angles)
    rows = np.array(list(table.values()))
    passed = bool(np.abs(rows - rows[0]).max() <= tol)
    return passed, table
