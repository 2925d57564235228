"""Results do not depend on where a simplex sits or on its size.

A model computes in one frame, vertex 0 at the origin and scaled by a power
of two, so a translated or scaled copy of a simplex has the same barycentric
results, up to the rounding of its moved vertices; absolute measures beyond
float range read inf or 0.
"""

import functools
import json
import math
import warnings

import numpy as np
import pytest

import golden

from simplexcenters import (
    SimplexError,
    SimplexModel,
    antipedal_simplex,
    circumcenter_cart,
    classical_centers,
    enumerate_isogonic,
    fermat_point,
    inversive_image,
    is_isogonic,
    isodynamic_points,
    pedal_simplex,
    polar_simplex,
    triad_angle_check,
    weiszfeld_step_q,
    weiszfeld_step_r,
    yiu_triangle_test,
)
from simplexcenters import cli, documents

# (scale, offset) pairs whose moved vertices stay in float range
TRANSFORMS = [(10.0 ** k, offset) for k in range(-300, 301, 50)
              for offset in (0.0, 1e4, 1e8, 1e12) if 10.0 ** k * offset <= 1e308]
TRANSFORM_IDS = [f"{s:.0e}+{o:.0e}" for s, o in TRANSFORMS]


def grid_simplex(n: int) -> np.ndarray:
    """A well-shaped random n-simplex on the grid 2^-10, so that adding any
    offset up to 1e12 is exact."""
    rng = np.random.default_rng((1791, n))
    while True:
        verts = np.round(rng.standard_normal((n + 1, n)) * 1024) / 1024
        model = SimplexModel(verts, validate=False)
        if model.total_volume > 0.01 * model.diameter ** n / math.factorial(n):
            return verts


def attempt(call):
    """Normalized coordinates of the points a call returns, or the type of
    the ``SimplexError`` it raises; any other error fails the test."""
    try:
        return [p.normalized_coords for p in call()]
    except SimplexError as error:
        return type(error)


def results(model: SimplexModel) -> dict:
    return {
        "catalog": attempt(lambda: enumerate_isogonic(model).conjugate_points),
        "isodynamic": attempt(
            lambda: isodynamic_points(classical_centers(model)["I"], model).points),
        "centers": attempt(lambda: classical_centers(model).values()),
        "weiszfeld steps": attempt(lambda: [step(np.ones(model.n + 1), model)
                                            for step in (weiszfeld_step_q, weiszfeld_step_r)]),
    }


@functools.cache
def reference(n: int) -> tuple[SimplexModel, dict]:
    """The unit-scale simplex of dimension n and its results."""
    model = SimplexModel(grid_simplex(n))
    return model, results(model)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("scale, offset", TRANSFORMS, ids=TRANSFORM_IDS)
def test_results_do_not_depend_on_offset_or_scale(n, scale, offset):
    unit, want = reference(n)
    got = results(SimplexModel(scale * (unit.vertices + offset)))
    tol = 1e-9 + 1e3 * 2.0 ** -52 * offset / unit.diameter
    for name, points in got.items():
        if isinstance(points, type):
            continue    # a typed error is an answer
        assert not isinstance(want[name], type) and len(points) == len(want[name]), name
        for p, q in zip(points, want[name]):
            assert np.abs(p - q).max() <= tol, name


@pytest.mark.parametrize("side, area", [(1e100, 5e199), (1e200, math.inf)])
def test_huge_triangle_is_measured(side, area):
    # the frame's Gram matrix is O(1); only the absolute area leaves float range
    model = SimplexModel([[0.0, 0.0], [side, 0.0], [0.0, side]])
    assert model.total_volume == pytest.approx(area, rel=1e-15)
    assert np.allclose(model.facet_volumes / side, [math.sqrt(2), 1, 1], rtol=1e-15, atol=0)
    incenter = classical_centers(model)["I"].normalized_coords
    assert np.allclose(incenter, np.array([math.sqrt(2), 1, 1]) / (2 + math.sqrt(2)),
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("offset", [1e6, 1e8, 1e10, 1e12], ids=["1e6", "1e8", "1e10", "1e12"])
def test_pedal_map_conversion_and_circumcenter_far_from_the_origin(five_model, offset):
    # the integer vertices move exactly, so the frame sees the same simplex
    far = SimplexModel(golden.FIVE_VERTICES + offset)
    feet, near_feet = (pedal_simplex(np.ones(4), m).vertices for m in (far, five_model))
    assert np.abs(feet - (near_feet + offset)).max() <= np.spacing(offset)
    for k, vertex in enumerate(far.vertices):
        assert np.abs(far.cart_to_bary(vertex).coords - np.eye(4)[k]).max() <= 1e-15
    (center, radius), (near_center, near_radius) = map(circumcenter_cart, (far, five_model))
    assert np.abs(center - (near_center + offset)).max() <= np.spacing(offset)
    assert radius == pytest.approx(near_radius, rel=1e-15)


@pytest.mark.parametrize("scale, offset", TRANSFORMS, ids=TRANSFORM_IDS)
def test_cli_residuals_are_read_in_the_frame(scale, offset):
    # each residual keeps its definition; the centroid's is a distance
    model = SimplexModel(scale * (grid_simplex(3) + offset))
    doc = documents.parse_document({"vertices": model.vertices.tolist()})
    centers = cli.cmd_centers(doc, {})["results"]["points"]
    fermat = cli.cmd_fermat(doc, {})["results"]["point"]
    assert centers["G"]["residual"] <= 1e-15 * model.diameter
    assert max(centers[key]["residual"] for key in "IKO") <= 1e-14
    assert fermat["residual"] <= 1e-14


def polar_and_inversive(model: SimplexModel, radius: float) -> tuple:
    incenter = classical_centers(model)["I"]
    return (polar_simplex(incenter, model, radius=radius),
            inversive_image(model, model.bary_to_cart(incenter), radius))


@pytest.mark.parametrize("scale, offset", TRANSFORMS, ids=TRANSFORM_IDS)
def test_polar_and_inversive_figures_do_not_depend_on_offset_or_scale(scale, offset):
    unit, _ = reference(3)
    model = SimplexModel(scale * (unit.vertices + offset))
    tol = 1e-9 + 1e3 * 2.0 ** -52 * offset / unit.diameter
    for want, got in zip(polar_and_inversive(unit, 1.0), polar_and_inversive(model, scale)):
        assert not got.degenerate
        for v, w in zip(got.vertices, want.vertices):
            assert np.abs(model.cart_to_bary(v).coords - unit.cart_to_bary(w).coords).max() <= tol


def test_polar_and_inversive_figures_far_beyond_unit_scale():
    # |w|^2 would overflow outside the frame; beside this simplex the spheres
    # are so small that each figure collapses to a point
    model = SimplexModel(golden.FIVE_VERTICES * 1e200)
    for figure in (polar_simplex([1, 1, 1, 1], model, radius=1e100),
                   inversive_image(model, [1e199] * 3, 1e100)):
        assert figure.degenerate and np.isfinite(figure.vertices).all()


def test_vertices_whose_differences_overflow_form_a_frame():
    # the frame is formed from halved coordinates, so this triangle is
    # measured, its longest edge reading inf; an infinite diameter does not
    # put every point at a vertex
    model = SimplexModel([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]])
    assert model.diameter == math.inf
    assert np.array_equal(model.facet_volumes[:2], [math.sqrt(2) * 1e308] * 2)
    incenter = classical_centers(model)["I"].normalized_coords
    assert np.allclose(incenter, np.array([1, 1, math.sqrt(2)]) / (2 + math.sqrt(2)),
                       rtol=1e-15, atol=0)
    feet = pedal_simplex([1, 1, 1], model).vertices / 1e308
    assert np.allclose(feet, np.array([[1, 2], [-1, 2], [0, 0]]) / 3, rtol=0, atol=1e-15)


def test_fermat_point_whose_distance_sum_overflows():
    # the distance sum is taken in the frame and scaled back once, so it
    # reads inf, silently; the minimizer is the unit triangle's
    point, trace = fermat_point(SimplexModel([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]]))
    unit, _ = fermat_point(SimplexModel([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert np.abs(point.coords - unit.coords).max() <= 1e-12
    assert trace.converged and trace.objective_values[-1] == math.inf


@pytest.mark.parametrize("vertices, unit", [
    ([[-1e308, 0.0], [1e308, 0.0], [0.0, 1e308]], [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    ([[0.0, 0.0], [4e-300, 0.0], [1e-300, 3e-300]], [[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]),
    ([[0.0, 0.0], [4e-310, 0.0], [1e-310, 3e-310]], [[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]]),
], ids=["1e308", "1e-300", "1e-310"])
@pytest.mark.parametrize("step, start", [(weiszfeld_step_q, [3, -1, -1]),
                                         (weiszfeld_step_r, [1, 1, 1])], ids=["q", "r"])
def test_weiszfeld_steps_read_frame_distances(vertices, unit, step, start):
    # squared or reciprocal absolute distances would leave float range here
    got = step(start, SimplexModel(vertices)).coords
    assert np.abs(got - step(start, SimplexModel(unit)).coords).max() <= 1e-12


@pytest.mark.parametrize("k", range(-300, 301, 50))
def test_circle_criterion_does_not_depend_on_scale(k):
    # the pole is homogeneous in the sides: only distance and circumradius scale
    s = 10.0 ** k
    want = yiu_triangle_test(5, 3.1623, 4, 1, 2, 3)
    got = yiu_triangle_test(5 * s, 3.1623 * s, 4 * s, 1, 2, 3)
    assert got.outside == want.outside
    assert np.abs(got.point.normalized_coords - want.point.normalized_coords).max() <= 1e-12
    assert got.distance / s == pytest.approx(want.distance, rel=1e-12)
    assert got.circumradius / s == pytest.approx(want.circumradius, rel=1e-12)


@pytest.mark.parametrize("scale", [1e100, 1e-100], ids=["1e100", "1e-100"])
def test_gap_tetrahedron_witness_at_any_scale(scale, tmp_path, capsys):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps({"edge_lengths": {
        "dimension": 3, "values": [scale * v for v in golden.GAP_EDGES]}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["isodynamic", str(path), "--json"])
    assert (code, caught) == (0, [])
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["verdict"] == "none exist"
    witness = results["witness"]
    assert witness["outside_circumcircle"] is True
    assert np.abs(np.array(witness["normalized"]) - golden.GAP_WITNESS).max() <= 1e-12


def test_private_kernels_read_no_absolute_units(five_model, count_calls):
    # the absolute-unit entry points of a model are for callers only
    calls = [count_calls(SimplexModel, name) for name in (
        "vertex_distances", "bary_to_cart", "cart_to_bary", "pedal_feet")]
    point = [1, 2, 3, 4]
    weiszfeld_step_q(point, five_model)
    weiszfeld_step_r(point, five_model)
    pedal_simplex(point, five_model)
    antipedal_simplex(point, five_model)
    is_isogonic(point, five_model)
    triad_angle_check(point, five_model)
    inversive_image(five_model, [1.0, 1.0, 1.0], 1.0)
    enumerate_isogonic(five_model)
    yiu_triangle_test(12, 11, 13, *golden.GAP_FACET_AREAS[:3])
    assert calls == [[]] * 4
