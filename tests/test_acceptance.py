"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions have all held, so a
plain ``pytest -s tests/test_acceptance.py`` shows one line per criterion.
Random suites use fixed seeds; triangle sampling stays in the regime where
every claimed triangle property holds (all angles below 120 degrees, not
equilateral).
"""

import itertools
import time

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_nonzero_point

from simplexcenters import (
    BarycentricPoint,
    EdgeLengthTable,
    antipedal_simplex,
    circumcenter_cart,
    classical_centers,
    collinear_cross_ratio,
    embed_from_edge_lengths,
    enumerate_isogonic,
    fermat_point,
    isodynamic_points,
    isogonal_conjugate,
    pedal_simplex,
    polar_simplex,
    sphere_family,
    yiu_triangle_test,
    z_correspondent,
)
from simplexcenters.cli import cmd_isodynamic, cmd_isogonic, cmd_verify
from simplexcenters.documents import parse_document

FIVE_DOC = {"name": "five-isogonic-tetrahedron",
            "vertices": [[0, 0, 0], [6, 0, 0], [0, 8, 0], [2, 2, 6]]}
GAP_DOC = {"name": "apollonian-gap-tetrahedron",
           "edge_lengths": {"dimension": 3, "values": [13, 11, 9, 12, 5, 11]}}


def _report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_isogonic_golden_tables():
    started = time.perf_counter()
    report = cmd_isogonic(parse_document(FIVE_DOC), {})
    elapsed = time.perf_counter() - started

    entries = report["results"]["entries"]
    assert len(entries) == 5
    for k, entry in enumerate(entries):
        assert np.abs(np.array(entry["conjugate"]["normalized"])
                      - golden.CONJUGATE_TABLE[k]).max() <= 1e-9
        assert np.abs(np.array(entry["isogonic"]["normalized"])
                      - golden.ISOGONIC_TABLE[k]).max() <= 1e-9
        assert abs(entry["pedal_area"] / golden.PEDAL_AREA_TABLE[k] - 1) <= 1e-6
        assert abs(entry["antipedal_area"]
                   / golden.ANTIPEDAL_AREA_TABLE[k] - 1) <= 1e-6
    assert elapsed < 5.0
    _report(1, f"all five conjugate/isogonic rows and both area tables "
               f"reproduced ({elapsed:.2f}s)")


def test_criterion_2_isodynamic_pair():
    report = cmd_isodynamic(parse_document(FIVE_DOC), {})
    points = report["results"]["points"]
    assert len(points) == 2
    for got, expected in zip(points, golden.ISODYNAMIC_TABLE):
        assert np.abs(np.array(got["normalized"]) - expected).max() <= 1e-8
        assert got["residual"] <= 1e-8
    _report(2, "both isodynamic points match to 1e-8 with sphere residuals <= 1e-8")


def test_criterion_3_gap_counterexample():
    started = time.perf_counter()
    model = parse_document(GAP_DOC).build_model()

    assert np.abs(model.facet_volumes
                  / np.array(golden.GAP_FACET_AREAS) - 1).max() <= 1e-10

    verdict = yiu_triangle_test(12, 11, 13, *golden.GAP_FACET_AREAS[:3])
    assert np.abs(verdict.point.normalized_coords
                  - np.array(golden.GAP_WITNESS)).max() <= 1e-12
    assert verdict.outside and verdict.distance > verdict.circumradius

    triangle = embed_from_edge_lengths(
        EdgeLengthTable.from_flat(2, golden.GAP_TRIANGLE_EDGES))
    o_delta = classical_centers(triangle)["O"].normalized_coords
    assert np.abs(o_delta - np.array(golden.GAP_TRIANGLE_CIRCUMCENTER)).max() <= 1e-12

    result = isodynamic_points(classical_centers(model)["I"], model)
    assert result.points == []

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, f"witness fractions exact, areas and circumcenter reproduced, "
               f"no isodynamic points ({elapsed:.2f}s)")


def test_criterion_4_fermat_solver():
    model = parse_document(FIVE_DOC).build_model()
    target = golden.ISOGONIC_TABLE[0]
    rng = np.random.default_rng(4001)
    for _ in range(10):
        start = rng.dirichlet(np.ones(4))
        for method in ("q", "r"):
            point, trace = fermat_point(model, start=start, method=method)
            assert np.abs(point.normalized_coords - target).max() <= 1e-9
            x = model.bary_to_cart(point)
            grad = golden.distance_sum_gradient(model.vertices, x)
            assert np.linalg.norm(grad) <= 1e-7
            fd = golden.finite_difference_gradient(
                lambda y: golden.distance_sum(model.vertices, y), x)
            assert np.abs(grad - fd).max() <= 1e-5
            if method == "q":
                assert np.diff(trace.objective_values).max() <= 1e-12
    _report(4, "10 random starts converge for both methods; gradients vanish "
               "and match finite differences; descent is monotone")


def test_criterion_5_triangle_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(5001)
    for _ in range(100):
        d12, d13, d23 = golden.random_triangle_sides(rng)
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [d12, d13, d23]))
        centers = classical_centers(model)
        result = isodynamic_points(centers["I"], model)
        assert len(result.points) == 2
        j1, j2 = result.points

        o_cart, _ = circumcenter_cart(model)
        k_cart = model.bary_to_cart(centers["K"])
        j1_cart = model.bary_to_cart(j1)
        j2_cart = model.bary_to_cart(j2)
        axis = (k_cart - o_cart) / np.linalg.norm(k_cart - o_cart)
        for jc in (j1_cart, j2_cart):
            assert abs(golden.cross2(axis, jc - o_cart)) <= 1e-9 * model.diameter

        # the four points O, J1, K, J2 in line order form a harmonic range
        assert abs(collinear_cross_ratio(o_cart, k_cart, j1_cart, j2_cart)
                   + 1.0) <= 1e-7

        interior_flags = [bool(np.all(j.normalized_coords > 0)) for j in (j1, j2)]
        assert sum(interior_flags) == 1

        opposite = np.array([model.edges.d[1, 2], model.edges.d[0, 2],
                             model.edges.d[0, 1]])
        for j in (j1, j2):
            products = model.vertex_distances(j) * opposite
            assert np.ptp(products) <= 1e-8 * products.mean()
            feet = pedal_simplex(j, model).vertices
            sides = [np.linalg.norm(feet[a] - feet[b])
                     for a, b in itertools.combinations(range(3), 2)]
            assert (max(sides) - min(sides)) / np.mean(sides) <= 1e-8

        catalog = enumerate_isogonic(model)
        assert len(catalog) == 2
        for f in catalog.isogonic_points:
            anti = antipedal_simplex(f, model).vertices
            sides = [np.linalg.norm(anti[a] - anti[b])
                     for a, b in itertools.combinations(range(3), 2)]
            assert (max(sides) - min(sides)) / np.mean(sides) <= 1e-8

        conjugates = [isogonal_conjugate(j, model).normalized_coords
                      for j in (j1, j2)]
        for conj in conjugates:
            best = min(np.abs(conj - f.normalized_coords).max()
                       for f in catalog.isogonic_points)
            assert best <= 1e-8

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(5, f"100 scalene triangles: axis, harmonic range, interior split, "
               f"distance products, equilateral pedal/antipedal figures and "
               f"conjugate matching all hold ({elapsed:.1f}s)")


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(6001)
    for trial in range(100):
        n = 2 + trial % 3
        model = make_random_model(rng, n)
        coords = random_nonzero_point(rng, n)
        point = BarycentricPoint.homogeneous(coords)
        center, radius = circumcenter_cart(model)

        for sph in sphere_family(point, model):
            if sph.is_degenerate:
                continue
            inner = model.bary_to_cart(sph.diameter_ends[0])
            outer = model.bary_to_cart(sph.diameter_ends[1])
            cr = collinear_cross_ratio(model.vertices[sph.i],
                                       model.vertices[sph.j], inner, outer)
            assert abs(cr + 1.0) <= 1e-12
            gap = float(np.linalg.norm(center - sph.cart_center))
            assert abs(gap ** 2 - radius ** 2 - sph.radius ** 2) \
                <= 1e-8 * radius ** 2

        interior = BarycentricPoint.homogeneous(rng.dirichlet(np.ones(n + 1)) + 0.05)
        polar = polar_simplex(interior, model)
        recovered = polar.cart_to_bary(model.bary_to_cart(interior))
        assert np.abs(recovered.normalized_coords
                      - interior.normalized_coords).max() <= 1e-10

        identity = z_correspondent(point, np.ones(n + 1), model)
        assert np.abs(identity.normalized_coords
                      - point.normalized_coords).max() <= 1e-12
        centroid = z_correspondent(point, point, model)
        assert np.abs(centroid.normalized_coords - 1 / (n + 1)).max() <= 1e-12

        anti = antipedal_simplex(interior, model)
        feet = anti.pedal_feet(model.bary_to_cart(interior))
        assert np.abs(feet - model.vertices).max() <= 1e-8 * model.diameter

    agreement = 0
    for _ in range(50):
        d12, d13, d23 = golden.random_triangle_sides(rng, max_angle_deg=150)
        weights = rng.uniform(0.3, 3.0, 3)
        if np.ptp(weights) < 1e-3:
            weights[0] += 0.1
        verdict = yiu_triangle_test(d23, d13, d12, *weights)
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [d12, d13, d23]))
        if verdict.circles_meet == golden.weighted_circles_meet(
                model.vertices, weights):
            agreement += 1
    assert agreement == 50

    _report(6, "harmonic ranges, circumsphere orthogonality, polar coordinate "
               "transfer, correspondent identities, pedal-antipedal inversion "
               "and 50/50 circle-criterion agreement")


@pytest.mark.usefixtures("cached_reference_checks")
def test_criterion_7_verify_command():
    report, code = cmd_verify({})
    assert code == 0
    assert report["results"]["failed"] == 0
    assert report["results"]["total"] >= 30
    _report(7, f"built-in verification: {report['results']['passed']}/"
               f"{report['results']['total']} reference checks pass, exit 0")
