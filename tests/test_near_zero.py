"""The near-zero policy at its boundary, through the public entry points.

Each construction is undefined where a coordinate, a coordinate sum or a
vertex distance vanishes within 1e-13 of the scale of its input.  A defect
of 1e-14 of that scale is rejected with the entry point's own exception;
1e-12 is accepted.  Magnitudes equal within 1e-13 turn an Apollonian sphere
into a bisector plane.
"""

import numpy as np
import pytest

import golden

from simplexcenters import (
    AtVertex,
    BarycentricPoint,
    PointAtInfinity,
    SimplexModel,
    ZeroCoordinate,
    antipedal_simplex,
    apollonian_sphere,
    fermat_point,
    inversive_image,
    isodynamic_points,
    isogonal_conjugate,
    pedal_simplex,
    polar_simplex,
    restrict_to_facet,
    triad_angle_check,
    weiszfeld_step_q,
    weiszfeld_step_r,
    z_correspondent,
)

FIVE = SimplexModel(golden.FIVE_VERTICES)
BELOW, ABOVE = 1e-14, 1e-12

# a point 0.9999e-13 diameters from vertex 3 of FIVE: a distance off in its
# fifth digit splits the vertex tests' verdicts, unless all read one kernel
AT_THRESHOLD = [1.8662849043948881e-13, -7.183142969324763e-14,
                -1.1152190282359697e-13, 0.9999999999999967]


def small_coordinate(t):
    """Second coordinate t times the largest."""
    return np.array([1.0, t, 1.0, 1.0])


def near_vertex(t):
    """The point t * diameter from vertex 0, toward the centroid."""
    v = FIVE.vertices
    u = v.mean(axis=0) - v[0]
    return FIVE.cart_to_bary(v[0] + t * FIVE.diameter * u / np.linalg.norm(u))


# (entry point, input at defect t, exception); each input's defect is t
# times its scale: the largest coordinate, the sum of the magnitudes, or
# the diameter
SITES = {
    # zero entries
    "z_correspondent": (lambda t: z_correspondent(small_coordinate(t), [1, 2, 3, 4], FIVE),
                        ZeroCoordinate),
    "z_correspondent_z": (lambda t: z_correspondent([1, 2, 3, 4], small_coordinate(t), FIVE),
                          ZeroCoordinate),
    "weiszfeld_step_r": (lambda t: weiszfeld_step_r(small_coordinate(t), FIVE),
                         ZeroCoordinate),
    "fermat_point": (lambda t: fermat_point(FIVE, start=small_coordinate(t)),
                     ZeroCoordinate),
    "isogonal_conjugate": (lambda t: isogonal_conjugate(small_coordinate(t), FIVE),
                           ZeroCoordinate),
    "polar_simplex": (lambda t: polar_simplex(small_coordinate(t), FIVE), ZeroCoordinate),
    "apollonian_sphere": (lambda t: apollonian_sphere(small_coordinate(t), 0, 1, FIVE),
                          ZeroCoordinate),
    "isodynamic_points": (lambda t: isodynamic_points(small_coordinate(t), FIVE),
                          ZeroCoordinate),
    "restrict_to_facet_at_vertex": (lambda t: restrict_to_facet([1, t, t, t], FIVE, 0),
                                    AtVertex),
    # zero sum
    "normalized_coords": (lambda t: BarycentricPoint([1, 1, 1, -3 + 6 * t]).normalized_coords,
                          PointAtInfinity),
    "restrict_to_facet_parallel": (lambda t: restrict_to_facet([1, 1, 1, -2 + 4 * t], FIVE, 0),
                                   PointAtInfinity),
    # vertex within t * diameter
    "pedal_simplex": (lambda t: pedal_simplex(near_vertex(t), FIVE), AtVertex),
    "antipedal_simplex": (lambda t: antipedal_simplex(near_vertex(t), FIVE), AtVertex),
    "weiszfeld_step_q": (lambda t: weiszfeld_step_q(near_vertex(t), FIVE), AtVertex),
    "triad_angle_check": (lambda t: triad_angle_check(near_vertex(t), FIVE), AtVertex),
    "inversive_image": (lambda t: inversive_image(FIVE, FIVE.bary_to_cart(near_vertex(t)), 1.0),
                        AtVertex),
}

@pytest.mark.parametrize("site", sorted(SITES))
def test_rejects_below_tolerance(site):
    call, error = SITES[site]
    with pytest.raises(error) as excinfo:
        call(BELOW)
    assert excinfo.type is error


@pytest.mark.parametrize("site", sorted(SITES))
def test_accepts_above_tolerance(site):
    call, _ = SITES[site]
    call(ABOVE)


# the r step tests its coordinates first, and the second one here is zero
@pytest.mark.parametrize("call, error", [
    (pedal_simplex, AtVertex), (antipedal_simplex, AtVertex),
    (weiszfeld_step_q, AtVertex), (weiszfeld_step_r, ZeroCoordinate),
    (triad_angle_check, AtVertex)], ids=lambda v: v.__name__)
def test_one_vertex_verdict_at_the_threshold(call, error):
    with pytest.raises(error) as excinfo:
        call(AT_THRESHOLD, FIVE)
    assert excinfo.type is error


def test_is_finite_boundary():
    assert not BarycentricPoint([1, 1, 1, -3 + 6 * BELOW]).is_finite()
    assert BarycentricPoint([1, 1, 1, -3 + 6 * ABOVE]).is_finite()


def test_equal_magnitudes_make_a_bisector_plane():
    assert apollonian_sphere([1, -(1 + BELOW), 2, 3], 0, 1, FIVE).is_degenerate
    assert not apollonian_sphere([1, -(1 + ABOVE), 2, 3], 0, 1, FIVE).is_degenerate
    assert isodynamic_points([1, 1, -1, np.sqrt(1 + BELOW)], FIVE).note is not None
