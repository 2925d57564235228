"""Results do not depend on where a simplex sits or on its size.

A model computes in one frame, vertex 0 at the origin and scaled by a power
of two, so a translated or scaled copy of a simplex has the same barycentric
results, up to the rounding of its moved vertices; absolute measures beyond
float range read inf or 0.
"""

import functools
import math

import numpy as np
import pytest

import golden

from simplexcenters import (
    SimplexError,
    SimplexModel,
    circumcenter_cart,
    classical_centers,
    enumerate_isogonic,
    fermat_point,
    inversive_image,
    isodynamic_points,
    pedal_equiareal_iteration,
    pedal_simplex,
    polar_simplex,
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
    conjugates = attempt(lambda: enumerate_isogonic(model).conjugate_points)
    return {
        "catalog": conjugates,
        "isodynamic": attempt(
            lambda: isodynamic_points(classical_centers(model)["I"], model).points),
        "centers": attempt(lambda: classical_centers(model).values()),
        # from the first catalog conjugate, a fixed point of the map
        "pedal map": conjugates if isinstance(conjugates, type) else attempt(
            lambda: [pedal_equiareal_iteration(c, model)[0] for c in conjugates[:1]]),
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
    near_point, near_trace = pedal_equiareal_iteration(np.ones(4), five_model)
    point, trace = pedal_equiareal_iteration(np.ones(4), far)
    assert trace.iterations_used == near_trace.iterations_used
    assert np.abs(point.normalized_coords - near_point.normalized_coords).max() <= 1e-12
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
