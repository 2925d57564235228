"""Isogonal conjugation and the search for isogonic points.

A point is isogonic when its antipedal simplex is equiareal.  Such points
are found indirectly: their isogonal conjugates have an equiareal *pedal*
simplex, and those are fixed points of the displacement iteration

    P  <-  P + (centroid - incenter) of the pedal simplex of P,

since centroid and incenter of a simplex coincide exactly when it is
equiareal.  The catalog enumerator runs this iteration from a default seed
set (the centroid plus its reflections into each one-negative-coordinate
orthant), maps the limits through isogonal conjugation and re-verifies
every candidate.
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
    UnboundedAntipedal,
    ZeroCoordinate,
)
from .pedal import antipedal_simplex, equiareal_deviation, pedal_simplex

# consecutive gap increases tolerated before the step damping is halved
_OSCILLATION_LIMIT = 5


@dataclass
class SearchTrace:
    """Metadata for one run of the pedal-equiareal iteration."""

    seed: BarycentricPoint
    converged: bool = False
    iterations_used: int = 0
    final_gap: float = math.inf
    damping_used: float = 1.0


@dataclass
class IsogonicCatalog:
    """All isogonic points found for a simplex, with their conjugates.

    ``conjugate_points[k]`` has an equiareal pedal simplex with common
    facet volume ``pedal_areas[k]``; ``isogonic_points[k]`` is its isogonal
    conjugate, whose antipedal simplex is equiareal with common facet
    volume ``antipedal_areas[k]``.
    """

    conjugate_points: list[BarycentricPoint] = field(default_factory=list)
    isogonic_points: list[BarycentricPoint] = field(default_factory=list)
    pedal_areas: list[float] = field(default_factory=list)
    antipedal_areas: list[float] = field(default_factory=list)
    traces: list[SearchTrace] = field(default_factory=list)
    failed_seeds: list[SearchTrace] = field(default_factory=list)

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


def pedal_equiareal_iteration(p0, model: SimplexModel, tol: float = 1e-13,
                              max_iter: int = 20000) -> tuple[BarycentricPoint, SearchTrace]:
    """Drive a point until its pedal simplex becomes equiareal.

    Applies the Cartesian displacement (pedal centroid - pedal incenter)
    each step, stopping when the displacement norm drops below
    ``tol * diameter``.  The damping factor starts at 1 and is halved after
    five consecutive gap increases so divergent starts are recovered.
    """
    pt = as_point(p0, model.n)
    trace = SearchTrace(seed=pt)
    x = model.bary_to_cart(pt)
    gap_limit = tol * model.diameter
    escape_limit = 1e6 * model.diameter
    damping = 1.0
    prev_gap = None
    increases = 0

    for it in range(1, max_iter + 1):
        feet = model.pedal_feet(x)
        vols = facet_volumes_of_points(feet)
        total = float(vols.sum())
        if not np.isfinite(total) or total <= 0.0:
            raise DegeneratePedalEncountered(
                "pedal simplex collapsed during iteration", trace=trace)
        centroid = feet.mean(axis=0)
        incenter = (vols[:, None] * feet).sum(axis=0) / total
        gap = float(np.linalg.norm(centroid - incenter))
        trace.iterations_used = it
        trace.final_gap = gap
        if gap < gap_limit:
            trace.converged = True
            return model.cart_to_bary(x), trace
        if prev_gap is not None and gap > prev_gap:
            increases += 1
            if increases >= _OSCILLATION_LIMIT:
                damping *= 0.5
                trace.damping_used = damping
                increases = 0
                if damping < 1e-8:
                    # damping collapsed without the gap closing: divergent
                    raise MaxIterationsExceeded(
                        f"iteration stalled after {it} iterations "
                        f"(gap {gap:.3e})", trace=trace)
        else:
            increases = 0
        prev_gap = gap
        x = x + damping * (centroid - incenter)
        if not np.isfinite(x).all() or np.linalg.norm(x) > escape_limit:
            raise MaxIterationsExceeded(
                f"iterate escaped after {it} iterations", trace=trace)

    raise MaxIterationsExceeded(
        f"no convergence within {max_iter} iterations", trace=trace)


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
    """Centroid plus its reflection into each one-negative-coordinate orthant.

    For triangles the two isodynamic points are appended as seeds: they are
    exactly the points with equiareal (equilateral) pedal triangles, and the
    exterior one is a weakly repelling fixed point of the displacement
    iteration that no orthant seed can reach, so the iteration is started
    directly on it and acts as a verifier.
    """
    m = model.n + 1
    seeds = [BarycentricPoint(np.ones(m))]
    for k in range(m):
        c = np.ones(m)
        c[k] = -1.0
        seeds.append(BarycentricPoint(c))
    if model.n == 2:
        try:
            found = isodynamic_points(classical_centers(model)["I"], model)
        except SimplexError:
            return seeds
        for point in found.points:
            if np.abs(point.coords).min() > 1e-9 * np.abs(point.coords).max():
                seeds.append(point)
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
                       tol: float = 1e-13) -> IsogonicCatalog:
    """Collect isogonic points reachable from a seed set.

    ``seeds`` extends the default seed set.  Limits of the pedal-equiareal
    iteration are deduplicated at 1e-6 in normalized coordinates,
    conjugated, re-verified by :func:`is_isogonic` at its default tolerance
    and sorted canonically.  Seeds that fail to converge, and limits whose
    conjugate is undefined (on a sideplane or at infinity) or fails the
    re-verification, are reported in ``failed_seeds`` rather than raising.
    """
    seed_list = default_seeds(model)
    if seeds is not None:
        seed_list = seed_list + [as_point(s, model.n) for s in seeds]

    catalog = IsogonicCatalog()
    found: list[BarycentricPoint] = []
    traces: list[SearchTrace] = []
    for seed in seed_list:
        try:
            limit, trace = pedal_equiareal_iteration(
                seed, model, tol=tol, max_iter=budget)
        except (MaxIterationsExceeded, DegeneratePedalEncountered) as exc:
            catalog.failed_seeds.append(exc.trace)
            continue
        found.append(limit)
        traces.append(trace)

    # dedupe limits
    unique: list[BarycentricPoint] = []
    unique_traces: list[SearchTrace] = []
    for pt, tr in zip(found, traces):
        c = pt.normalized_coords
        if any(np.abs(c - q.normalized_coords).max() <= 1e-6 for q in unique):
            continue
        unique.append(pt)
        unique_traces.append(tr)

    # conjugate, verify, measure
    kept = []
    for pt, tr in zip(unique, unique_traces):
        try:
            conj = isogonal_conjugate(pt, model)
            verified = is_isogonic(conj, model)[0]
        except (ZeroCoordinate, PointAtInfinity):  # limit on a sideplane, conjugate at infinity
            verified = False
        if not verified:
            catalog.failed_seeds.append(tr)
            continue
        pedal_area = float(np.mean(pedal_simplex(pt, model).facet_volumes))
        antipedal_area = float(np.mean(antipedal_simplex(conj, model).facet_volumes))
        kept.append((pt, conj, pedal_area, antipedal_area, tr))

    order = _canonical_order([conj for _, conj, _, _, _ in kept])
    for idx in order:
        pt, conj, pa, aa, tr = kept[idx]
        catalog.conjugate_points.append(pt)
        catalog.isogonic_points.append(conj)
        catalog.pedal_areas.append(pa)
        catalog.antipedal_areas.append(aa)
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
