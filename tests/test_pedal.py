import itertools
import math

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_interior_point

from simplexcenters import (
    AtVertex,
    BarycentricPoint,
    Degenerate,
    SimplexModel,
    ZeroCoordinate,
    antipedal_simplex,
    circumcenter_cart,
    classical_centers,
    equiareal_deviation,
    inversive_image,
    is_isogonic,
    isodynamic_points,
    pedal_simplex,
    polar_simplex,
)
from simplexcenters.barycentric import _REL_EPS, _zero_entries


def _per_vertex_antipedal(pt, model):
    """Reference: one sideplane test and one ``np.linalg.solve`` per
    antipedal vertex, in the model's frame; the message of the first vertex
    whose coordinate is zero, or the vertices."""
    x, v = model._local.T @ pt.normalized_coords, model._local
    zero = _zero_entries(pt.coords)
    out = np.empty_like(v)
    for i in range(model.n + 1):
        if zero[i]:
            return f"antipedal vertex {i} is unbounded for this point"
        rows = np.delete(v, i, axis=0)
        a = x[None, :] - rows
        out[i] = np.linalg.solve(a, np.einsum("ij,ij->i", a, rows))
    return out


def _assert_planes_through_vertices(pt, model, vertices):
    # vertex j != i lies on the plane through A_i perpendicular to P - A_i,
    # to rounding in the size of the vectors multiplied
    normals = model.bary_to_cart(pt) - model.vertices
    offsets = vertices[None, :, :] - model.vertices[:, None, :]
    gaps = np.einsum("ijk,ik->ij", offsets, normals)
    scale = np.linalg.norm(offsets, axis=2) * np.linalg.norm(normals, axis=1)[:, None]
    off = ~np.eye(model.n + 1, dtype=bool)
    assert (np.abs(gaps[off]) <= 1e-10 * scale[off]).all()


def _on_the_boundary(rng, n, i, ratio):
    """Coordinates whose entry i is ``ratio`` times the largest magnitude,
    1.0 at entry i + 1, that sum to exactly 1/2, so that the point stores
    them doubled, exactly."""
    m = n + 1
    last = (i + 2) % m
    while True:
        c = 0.05 * rng.uniform(0.2, 1.0, m) * rng.choice([-1.0, 1.0], m)
        c[(i + 1) % m] = 1.0
        c[i] = ratio * rng.choice([-1.0, 1.0])
        c[last] = 0.0
        c[last] = 0.5 - np.add.reduce(c)
        for _ in range(64):
            total = np.add.reduce(c)
            if total == 0.5:
                return c
            c[last] = np.nextafter(c[last], math.copysign(math.inf, 0.5 - total))


class TestPedalSimplex:
    def test_circumcenter_pedal_is_medial_triangle(self, gap_triangle):
        center, _ = circumcenter_cart(gap_triangle)
        result = pedal_simplex(gap_triangle.cart_to_bary(center), gap_triangle)
        v = gap_triangle.vertices
        midpoints = np.array([0.5 * (v[1] + v[2]), 0.5 * (v[0] + v[2]),
                              0.5 * (v[0] + v[1])])
        assert np.abs(result.vertices - midpoints).max() < 1e-12

    def test_table_point_equal_areas(self, five_model):
        result = pedal_simplex(
            BarycentricPoint(golden.CONJUGATE_TABLE[0]), five_model)
        areas = golden.facet_areas_cross(result.vertices)
        assert (areas.max() - areas.min()) / areas.mean() < 1e-8
        assert abs(areas.mean() / golden.PEDAL_AREA_TABLE[0] - 1) < 1e-6

    def test_incenter_feet_at_inradius(self, five_model):
        incenter = classical_centers(five_model)["I"]
        result = pedal_simplex(incenter, five_model)
        x = five_model.bary_to_cart(incenter)
        dists = np.linalg.norm(result.vertices - x[None, :], axis=1)
        inradius = five_model.n * golden.FIVE_VOLUME / sum(golden.FIVE_FACET_VOLUMES)
        assert np.abs(dists - inradius).max() < 1e-12

    def test_feet_incidence(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            p = BarycentricPoint(random_interior_point(rng, n))
            result = pedal_simplex(p, model)
            for i, foot in enumerate(result.vertices):
                bary = model.cart_to_bary(foot).coords
                assert abs(bary[i]) < 1e-10

    def test_degenerate_flag_on_circumcircle(self, gap_triangle):
        # a non-vertex point of the circumcircle has collinear feet
        center, radius = circumcenter_cart(gap_triangle)
        v0 = gap_triangle.vertices[0]
        direction = (v0 - center) / np.linalg.norm(v0 - center)
        rotated = np.array([[0, -1], [1, 0]]) @ direction
        on_circle = gap_triangle.cart_to_bary(center + radius * rotated)
        result = pedal_simplex(on_circle, gap_triangle)
        assert result.degenerate

    def test_degenerate_flag_at_edge_point(self, five_model):
        # on edge A_0 A_1 the feet on sideplanes 2 and 3 are the point itself
        result = pedal_simplex([1, 1, 0, 0], five_model)
        assert result.degenerate
        feet = result.vertices
        assert np.abs(feet[2] - feet[3]).max() <= 1e-12 * five_model.diameter

    @pytest.mark.parametrize("x", [(4.5, 1.5), (4.0, 3.0)])
    def test_collapsed_figure_has_no_frame(self, x):
        # both points lie on the circumcircle (center (2, 1.5), radius 2.5),
        # so the feet fall on the Simson line: volumes, but no frame and no
        # circumsphere
        model = SimplexModel([[0, 0], [4, 0], [0, 3]])
        figure = pedal_simplex(model.cart_to_bary(x), model)
        assert figure.degenerate and figure.total_volume < 1e-12
        for use in (lambda: figure.cart_to_bary([1.0, 1.0]),
                    lambda: figure.pedal_feet(np.ones(2))):
            with pytest.raises(Degenerate, match="frame"):
                use()
        for use in (lambda: circumcenter_cart(figure),
                    lambda: isodynamic_points([1, 2, 3], figure)):
            with pytest.raises(Degenerate, match="circumsphere"):
                use()

    def test_tiny_triangle_incenter_pedal_not_degenerate(self, gap_triangle):
        # degeneracy is judged relative to the figure's own size
        tiny = SimplexModel(1e-14 * gap_triangle.vertices)
        result = pedal_simplex(classical_centers(tiny)["I"], tiny)
        assert not result.degenerate

    def test_vertex_rejected(self, five_model):
        with pytest.raises(AtVertex):
            pedal_simplex(BarycentricPoint.vertex(2, 3), five_model)


class TestAntipedalSimplex:
    def test_equilateral_center_gives_double_side(self, equilateral_triangle):
        g = BarycentricPoint([1, 1, 1])
        result = antipedal_simplex(g, equilateral_triangle)
        pts = result.vertices
        sides = [np.linalg.norm(pts[a] - pts[b])
                 for a, b in itertools.combinations(range(3), 2)]
        assert np.abs(np.array(sides) - 2.0).max() < 1e-12

    def test_table_point_equal_areas(self, five_model):
        result = antipedal_simplex(
            BarycentricPoint(golden.ISOGONIC_TABLE[0]), five_model)
        areas = golden.facet_areas_cross(result.vertices)
        assert (areas.max() - areas.min()) / areas.mean() < 1e-8
        assert abs(areas.mean() / golden.ANTIPEDAL_AREA_TABLE[0] - 1) < 1e-6

    def test_pedal_of_antipedal_restores_vertices(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            p = BarycentricPoint(random_interior_point(rng, n))
            anti = antipedal_simplex(p, model)
            x = model.bary_to_cart(p)
            feet = anti.pedal_feet(x)
            assert np.abs(feet - model.vertices).max() < 1e-8 * model.diameter

    def test_facet_planes_through_vertices(self, five_model):
        p = BarycentricPoint([0.3, 0.3, 0.2, 0.2])
        result = antipedal_simplex(p, five_model)
        x = five_model.bary_to_cart(p)
        pts = result.vertices
        for i in range(4):
            normal = x - five_model.vertices[i]
            for j in range(4):
                if j == i:
                    continue
                # vertex j of the result lies on the plane through A_i
                # perpendicular to the line P-A_i
                gap = (pts[j] - five_model.vertices[i]) @ normal
                assert abs(gap) < 1e-9 * five_model.diameter ** 2

    def test_batched_solve_matches_vertex_loop(self):
        rng = np.random.default_rng(61)
        unbounded = 0
        for trial in range(140):
            n = 2 + trial % 7
            model = SimplexModel(rng.standard_normal((n + 1, n)))
            coords = rng.standard_normal(n + 1)
            if trial % 3 == 0:  # on sideplane 0: system 0 is singular
                coords[0] = 0.0
            pt = BarycentricPoint(coords)
            want = _per_vertex_antipedal(pt, model)
            if isinstance(want, str):
                unbounded += 1
                with pytest.raises(ZeroCoordinate, match=want):
                    antipedal_simplex(pt, model)
            else:
                assert np.array_equal(antipedal_simplex(pt, model).vertices,
                                      model._from_frame(want))
        assert unbounded > 0

    def test_unbounded_for_point_on_edge_line(self, equilateral_triangle):
        midpoint = BarycentricPoint([0.0, 1.0, 1.0])
        with pytest.raises(ZeroCoordinate, match="antipedal vertex 0 is unbounded"):
            antipedal_simplex(midpoint, equilateral_triangle)

    def test_sideplane_boundary(self, five_model):
        # the zero-coordinate rule decides: 1e-13 of the largest magnitude is
        # on the sideplane, 2e-13 is off it and builds a finite figure
        rng = np.random.default_rng(2980)
        models = [five_model] + [SimplexModel(rng.standard_normal((n + 1, n)))
                                 for n in range(2, 9)]
        for model in models:
            for i in range(model.n + 1):
                on = BarycentricPoint(_on_the_boundary(rng, model.n, i, _REL_EPS))
                assert abs(on.coords[i]) == _REL_EPS * np.abs(on.coords).max()
                with pytest.raises(ZeroCoordinate, match=f"antipedal vertex {i} is"):
                    antipedal_simplex(on, model)
                off = BarycentricPoint(_on_the_boundary(rng, model.n, i, 2 * _REL_EPS))
                assert np.isfinite(antipedal_simplex(off, model).vertices).all()

    def test_marginal_points_follow_the_zero_coordinate_rule(self):
        # |p_0| / max|p| from 1e-9 down to 1e-17, every fifth point far out:
        # a figure is refused exactly where coordinate 0 reads zero, and
        # every other one is the per-vertex solve, finite, with its facet
        # planes through the vertices
        rng = np.random.default_rng(37)
        built = refused = 0
        for k in range(3000):
            n = 2 + k % 7
            model = SimplexModel(rng.standard_normal((n + 1, n)))
            c = rng.standard_normal(n + 1)
            if k % 5 == 4:  # coordinate sum 1e-6 of the largest: far out
                c[-1] -= c.sum() - 1e-6 * np.abs(c).max()
            c[0] = rng.choice([-1.0, 1.0]) * 10 ** -rng.uniform(9, 17) * np.abs(c[1:]).max()
            pt = BarycentricPoint(c)
            if _zero_entries(pt.coords).any():
                refused += 1
                with pytest.raises(ZeroCoordinate, match="antipedal vertex 0 is"):
                    antipedal_simplex(pt, model)
                continue
            built += 1
            vertices = antipedal_simplex(pt, model).vertices
            assert np.isfinite(vertices).all()
            assert np.array_equal(vertices, model._from_frame(_per_vertex_antipedal(pt, model)))
            _assert_planes_through_vertices(pt, model, vertices)
        assert built > 0 and refused > 0

    def test_collapsed_model_has_no_antipedal_simplex(self):
        # the Simson-line pedal figure and a figure with coincident vertices
        right = SimplexModel([[0, 0], [4, 0], [0, 3]])
        for figure in (pedal_simplex(right.cart_to_bary((4.5, 1.5)), right),
                       SimplexModel([[0, 0], [0, 0], [1, 1]], validate=False)):
            assert figure.degenerate
            for use in (antipedal_simplex, is_isogonic):
                with pytest.raises(Degenerate, match="collapsed"):
                    use([1, 2, 3], figure)

    def test_similar_to_pedal_of_conjugate(self, gap_triangle):
        # classical companion fact: the antipedal triangle of P is similar
        # to the pedal triangle of the isogonal conjugate of P
        from simplexcenters import isogonal_conjugate
        rng = np.random.default_rng(29)
        for _ in range(10):
            p = BarycentricPoint(random_interior_point(rng, 2))
            anti = antipedal_simplex(p, gap_triangle).vertices
            conj = isogonal_conjugate(p, gap_triangle)
            ped = pedal_simplex(conj, gap_triangle).vertices
            pairs = list(itertools.combinations(range(3), 2))
            ratios = np.array([
                np.linalg.norm(anti[a] - anti[b]) / np.linalg.norm(ped[a] - ped[b])
                for a, b in pairs])
            assert np.ptp(ratios) / ratios.mean() < 1e-10


class TestPolarSimplex:
    def test_equilateral_center_concentric(self, equilateral_triangle):
        g = BarycentricPoint([1, 1, 1])
        result = polar_simplex(g, equilateral_triangle, radius=1.0)
        pts = result.vertices
        sides = [np.linalg.norm(pts[a] - pts[b])
                 for a, b in itertools.combinations(range(3), 2)]
        assert np.ptp(sides) < 1e-12
        assert np.abs(pts.mean(axis=0)
                      - equilateral_triangle.vertices.mean(axis=0)).max() < 1e-12

    def test_pole_products(self, five_model):
        rng = np.random.default_rng(11)
        p = BarycentricPoint(random_interior_point(rng, 3))
        radius = 1.7
        result = polar_simplex(p, five_model, radius=radius)
        x = five_model.bary_to_cart(p)
        for pole, foot in zip(result.vertices, five_model.pedal_feet(x)):
            product = np.linalg.norm(pole - x) * np.linalg.norm(foot - x)
            assert abs(product - radius ** 2) < 1e-10

    def test_coordinates_transfer(self):
        # the defining property: coordinates w.r.t. the polar simplex agree
        rng = np.random.default_rng(13)
        for trial in range(100):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            coords = rng.uniform(0.1, 1.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            if abs(coords.sum()) < 0.1:
                continue
            p = BarycentricPoint(coords)
            result = polar_simplex(p, model)
            back = result.cart_to_bary(model.bary_to_cart(p))
            assert np.abs(back.normalized_coords
                          - p.normalized_coords).max() < 1e-10

    def test_radius_independent_coordinates(self, five_model):
        p = BarycentricPoint([0.4, 0.3, 0.2, 0.1])
        for radius in (0.5, 1.0, 3.0):
            result = polar_simplex(p, five_model, radius=radius)
            back = result.cart_to_bary(five_model.bary_to_cart(p))
            assert np.abs(back.normalized_coords
                          - p.normalized_coords).max() < 1e-10

    def test_on_sideplane_rejected(self, five_model):
        with pytest.raises(ZeroCoordinate, match="polar simplex") as excinfo:
            polar_simplex(BarycentricPoint([0, 1, 1, 1]), five_model)
        assert excinfo.type is ZeroCoordinate


class TestInversiveImage:
    def test_distances_invert(self, five_model):
        center = np.array([1.0, 1.0, 1.0])
        radius = 2.0
        result = inversive_image(five_model, center, radius)
        for v, image in zip(five_model.vertices, result.vertices):
            d = np.linalg.norm(v - center)
            assert abs(np.linalg.norm(image - center) - radius ** 2 / d) < 1e-12
            ray = (v - center) / d
            along = (image - center) @ ray
            assert abs(along - np.linalg.norm(image - center)) < 1e-12

    def test_double_inversion_identity(self, five_model):
        center = np.array([0.5, 0.7, 0.9])
        first = inversive_image(five_model, center, 1.3)
        second = inversive_image(first, center, 1.3)
        assert np.abs(second.vertices - five_model.vertices).max() < 1e-10

    def test_similar_to_pedal_triangle(self, gap_triangle):
        # in the plane, inverting the vertices about P always yields a
        # triangle similar to the pedal triangle of P (vertex i of the
        # image corresponds to foot i): image sides are r^2 d_jk/(d_j d_k),
        # pedal sides d_jk d_i / (2R), and d_1 d_2 d_3 is symmetric
        rng = np.random.default_rng(19)
        for _ in range(10):
            p = BarycentricPoint(random_interior_point(rng, 2))
            x = gap_triangle.bary_to_cart(p)
            inv = inversive_image(gap_triangle, x, 1.0).vertices
            ped = pedal_simplex(p, gap_triangle).vertices
            pairs = list(itertools.combinations(range(3), 2))
            ratios = np.array([
                np.linalg.norm(ped[a] - ped[b]) / np.linalg.norm(inv[a] - inv[b])
                for a, b in pairs])
            assert np.ptp(ratios) / ratios.mean() < 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="the claimed similarity between the vertex inversion about P "
               "and the antipedal simplex of P does not hold: in the plane "
               "the inversion is similar to the *pedal* triangle of P (it "
               "matches the antipedal only where P is equidistant from the "
               "sidelines), and for the reference tetrahedron the edge "
               "ratios at the first isogonic point spread by ~0.7")
    def test_similar_to_antipedal_claim(self, five_model):
        f0 = BarycentricPoint(golden.ISOGONIC_TABLE[0])
        x = five_model.bary_to_cart(f0)
        inv = inversive_image(five_model, x, 1.0).vertices
        anti = antipedal_simplex(f0, five_model).vertices
        pairs = list(itertools.combinations(range(4), 2))
        ratios = np.array([
            np.linalg.norm(anti[a] - anti[b]) / np.linalg.norm(inv[a] - inv[b])
            for a, b in pairs])
        assert np.ptp(ratios) / ratios.mean() < 1e-8

    def test_center_at_vertex_rejected(self, five_model):
        with pytest.raises(AtVertex, match="coincides with vertex 2") as excinfo:
            inversive_image(five_model, five_model.vertices[2], 1.0)
        assert excinfo.type is AtVertex


@pytest.mark.parametrize("build", [
    lambda m: polar_simplex([1, 1, 1, 1], m, radius=math.inf),
    lambda m: inversive_image(m, [1, 1, 1], math.inf),
    lambda m: inversive_image(m, [math.nan, 0, 0], 1.0),
    # finite radii whose squares overflow
    lambda m: polar_simplex([1, 1, 1, 1], m, radius=1e200),
    lambda m: inversive_image(m, [1, 1, 1], 1e200),
    # an int radius too large for a float
    lambda m: polar_simplex([1, 1, 1, 1], m, radius=10 ** 400),
    lambda m: inversive_image(m, [1, 1, 1], 10 ** 400),
], ids=["polar-radius", "inversive-radius", "inversive-center",
        "polar-radius-square", "inversive-radius-square",
        "polar-radius-int", "inversive-radius-int"])
def test_non_finite_sphere_rejected(build, five_model):
    with pytest.raises(ValueError, match="must be finite"):
        build(five_model)


@pytest.mark.parametrize("build, collapsed", [
    (lambda m: pedal_simplex([1, 2, 3, 4], m), False),
    (lambda m: antipedal_simplex([1, 2, 3, 4], m), False),
    (lambda m: polar_simplex([1, 2, 3, 4], m), False),
    (lambda m: inversive_image(m, [1, 1, 1], 1.0), False),
    (lambda m: pedal_simplex([1, 1, 0, 0], m), True),
], ids=["pedal", "antipedal", "polar", "inversive", "pedal-collapsed"])
def test_figure_is_an_unvalidated_model(build, collapsed, five_model):
    # the flag is the verdict that validating the same vertices would give
    figure = build(five_model)
    assert isinstance(figure, SimplexModel)
    assert not figure.vertices.flags.writeable
    try:
        SimplexModel(figure.vertices)
        raised = False
    except Degenerate:
        raised = True
    assert figure.degenerate == raised == collapsed


class TestEquiarealDeviation:
    def test_regular_simplex_zero(self, regular_tetrahedron):
        assert equiareal_deviation(regular_tetrahedron) == 0.0

    def test_vanishing_facets_read_inf(self):
        point = SimplexModel([[0, 0], [0, 0], [0, 0]], validate=False)
        assert equiareal_deviation(point) == math.inf

    def test_pedal_of_table_point_small(self, five_model):
        result = pedal_simplex(
            BarycentricPoint(golden.CONJUGATE_TABLE[0]), five_model)
        assert equiareal_deviation(result) < 1e-8

    def test_five_tetrahedron_value(self, five_model):
        # oracle: areas via cross products are (10, 8, 6)*sqrt(10) and 24,
        # so the spread is 4*sqrt(10) against a mean of 6*sqrt(10) + 6
        areas = golden.facet_areas_cross(golden.FIVE_VERTICES)
        expected = (areas.max() - areas.min()) / areas.mean()
        assert abs(expected - 4 * math.sqrt(10) / (6 * math.sqrt(10) + 6)) < 1e-12
        assert abs(equiareal_deviation(five_model) - expected) < 1e-12


def test_a_figure_beyond_float_range_is_degenerate():
    # the centroid's antipedal simplex of a tetrahedron near the largest scale
    # leaves float range: a geometric failure, not the ValueError of bad input
    model = SimplexModel(np.array(golden.FIVE_VERTICES, dtype=float) * 1.25e307)
    with pytest.raises(Degenerate, match="vertex coordinates must be finite"):
        antipedal_simplex([1, 1, 1, 1], model)
