import itertools
import math
import warnings

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_nonzero_point

from simplexcenters import (
    AtVertex,
    BarycentricPoint,
    Degenerate,
    EdgeLengthTable,
    NotEmbeddable,
    PointAtInfinity,
    SimplexError,
    SimplexModel,
    ZeroCoordinate,
    apollonian_sphere,
    circumcenter_cart,
    classical_centers,
    collinear_cross_ratio,
    embed_from_edge_lengths,
    isodynamic_points,
    pedal_simplex,
    restrict_to_facet,
    sphere_family,
    yiu_triangle_test,
)
from simplexcenters import apollonian


def _error_class(call):
    """The class of the SimplexError that a call raises, or None."""
    try:
        call()
    except SimplexError as exc:
        return type(exc)
    return None


class TestApollonianSphere:
    def test_diameter_endpoints_and_center(self, five_model):
        p = BarycentricPoint([0.4, 0.3, 0.2, 0.1])
        sph = apollonian_sphere(p, 0, 1, five_model)
        inner, outer = sph.diameter_ends
        # [0.4 : 0.3] and [-0.4 : 0.3] in slots 0, 1, each stored with sum 1
        assert np.abs(inner.coords - np.array([0.4, 0.3, 0, 0]) / 0.7).max() < 1e-15
        assert np.abs(outer.coords - np.array([-0.4, 0.3, 0, 0]) / -0.1).max() < 1e-14
        # homogeneous center [-p_i^2 : p_j^2] equals the Cartesian midpoint
        mid = 0.5 * (five_model.bary_to_cart(inner) + five_model.bary_to_cart(outer))
        center = BarycentricPoint([-0.4 ** 2, 0.3 ** 2, 0, 0])
        assert np.abs(five_model.bary_to_cart(center) - mid).max() < 1e-10
        assert np.abs(sph.cart_center - mid).max() < 1e-10

    def test_cartesian_center_and_radius(self, five_model):
        p = BarycentricPoint([0.4, 0.3, 0.3, 0.1])
        proper = apollonian_sphere(p, 0, 1, five_model)
        assert not proper.is_degenerate
        assert not proper.cart_center.flags.writeable
        center = BarycentricPoint([-0.4 ** 2, 0.3 ** 2, 0, 0])
        assert np.abs(proper.cart_center - five_model.bary_to_cart(center)).max() \
            <= 1e-10 * five_model.diameter
        inner, outer = (five_model.bary_to_cart(e) for e in proper.diameter_ends)
        assert proper.radius == pytest.approx(0.5 * np.linalg.norm(inner - outer),
                                              rel=1e-14)
        bisector = apollonian_sphere(p, 1, 2, five_model)
        assert bisector.is_degenerate
        assert bisector.cart_center is None
        assert bisector.radius == math.inf

    def test_locus_ratio_on_sphere(self, five_model):
        rng = np.random.default_rng(3)
        p = BarycentricPoint([0.5, 0.3, 0.15, 0.05])
        for i, j in itertools.combinations(range(4), 2):
            sph = apollonian_sphere(p, i, j, five_model)
            for _ in range(5):
                u = rng.standard_normal(3)
                x = sph.cart_center + sph.radius * u / np.linalg.norm(u)
                d = x - sph.cart_center
                assert abs(d @ d - sph.radius ** 2) <= 1e-10 * sph.radius ** 2
                di = np.linalg.norm(x - five_model.vertices[i])
                dj = np.linalg.norm(x - five_model.vertices[j])
                wi = di * abs(p.coords[i])
                wj = dj * abs(p.coords[j])
                assert abs(wi - wj) <= 1e-9 * max(wi, wj)

    def test_degenerate_equal_magnitudes(self, five_model):
        p = BarycentricPoint([0.3, -0.3, 0.2, 0.2])
        sph = apollonian_sphere(p, 0, 1, five_model)
        assert sph.is_degenerate
        assert sph.radius == math.inf

    def test_classical_triangle_division_points(self, gap_triangle):
        # with incenter weights, the sphere through the (0,1) pair has
        # diameter ends dividing that edge in the side-length ratio
        incenter = classical_centers(gap_triangle)["I"]
        sph = apollonian_sphere(incenter, 0, 1, gap_triangle)
        a = gap_triangle.edges.d[1, 2]  # weight of vertex 0
        b = gap_triangle.edges.d[0, 2]  # weight of vertex 1
        v0, v1 = gap_triangle.vertices[0], gap_triangle.vertices[1]
        inner_oracle = (a * v0 + b * v1) / (a + b)
        outer_oracle = (-a * v0 + b * v1) / (b - a)
        inner, outer = sph.diameter_ends
        assert np.abs(gap_triangle.bary_to_cart(inner) - inner_oracle).max() < 1e-12
        assert np.abs(gap_triangle.bary_to_cart(outer) - outer_oracle).max() < 1e-10

    def test_harmonic_range(self):
        rng = np.random.default_rng(7)
        for trial in range(50):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            p = random_nonzero_point(rng, n)
            sph = apollonian_sphere(BarycentricPoint(p), 0, 1, model)
            if sph.is_degenerate:
                continue
            inner = model.bary_to_cart(sph.diameter_ends[0])
            outer = model.bary_to_cart(sph.diameter_ends[1])
            cr = collinear_cross_ratio(model.vertices[0], model.vertices[1],
                                       inner, outer)
            assert abs(cr + 1.0) <= 1e-12

    @pytest.mark.parametrize("exponent, offset", [(-1070, 0.0), (-500, 0.0), (0, 3.0),
                                                  (500, 0.0), (1021, 0.0)])
    def test_cross_ratio_at_every_scale(self, exponent, offset):
        # the harmonic range a, c, b, d at t = 0, 3/4, 1, 3/2 on a line, every
        # coordinate exact: the offsets are measured scaled, so none overflows
        # and no square underflows
        points = [np.ldexp(np.array([t, -2.0 * t]), exponent) + offset
                  for t in (0.0, 1.0, 0.75, 1.5)]
        assert collinear_cross_ratio(*points) == -1.0

    @pytest.mark.parametrize("c, d", [(1.0, 2.0), (2.0, 0.0), (1.0, 0.0)])
    def test_cross_ratio_at_infinity(self, c, d):
        # c = b or d = a: the ratio is the line's point at infinity
        with pytest.raises(PointAtInfinity, match="denominator"):
            collinear_cross_ratio([0.0], [1.0], [c], [d])

    def test_cross_ratio_at_infinity_where_c_rounds_off_b(self):
        # c = b, whose line parameter rounds to 1 - 2^-53 on this line
        with pytest.raises(PointAtInfinity, match="denominator"):
            collinear_cross_ratio([0.0, 0.0], [0.3, 0.7], [0.3, 0.7], [0.9, 2.1])

    @pytest.mark.parametrize("points", [
        ([0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]),   # a = b: no line
        ([0.0], [1.0], [math.nan], [2.0]),
        ([0.0], [1.0], [2.0], [math.inf]),
        ([0.0, 0.0], [1.0], [2.0], [3.0]),
    ])
    def test_cross_ratio_malformed_points(self, points):
        with pytest.raises(ValueError):
            collinear_cross_ratio(*points)

    def test_circumsphere_orthogonality(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            p = random_nonzero_point(rng, n)
            center, radius = circumcenter_cart(model)
            for sph in sphere_family(BarycentricPoint(p), model):
                if sph.is_degenerate:
                    continue
                gap = float(np.linalg.norm(center - sph.cart_center))
                assert abs(gap ** 2 - radius ** 2 - sph.radius ** 2) \
                    <= 1e-8 * radius ** 2

    def test_zero_coordinate_rejected(self, five_model):
        with pytest.raises(ZeroCoordinate):
            apollonian_sphere(BarycentricPoint([0, 1, 1, 1]),
                              0, 1, five_model)

    @pytest.mark.parametrize("i, j", [(1, 1), (0, 9), (-1, 0), (0, 1.5)])
    def test_vertex_indices_checked(self, five_model, i, j):
        with pytest.raises(ValueError, match="vertex indices"):
            apollonian_sphere([1, 2, 3, 4], i, j, five_model)


class TestIsodynamicPoints:
    def test_five_tetrahedron_table(self, five_model):
        result = isodynamic_points(classical_centers(five_model)["I"], five_model)
        assert len(result.points) == 2
        assert np.abs(result.points[0].normalized_coords
                      - golden.ISODYNAMIC_TABLE[0]).max() < 1e-8
        assert np.abs(result.points[1].normalized_coords
                      - golden.ISODYNAMIC_TABLE[1]).max() < 1e-8
        assert max(result.residuals) < 1e-8

    def test_builds_no_sphere_and_no_hyperplane(self, five_model, count_calls):
        # the points come from one linear solve in the frame: no sphere
        # object is built (and the library has no hyperplane type)
        spheres = count_calls(apollonian, "ApollonianSphere")
        result = isodynamic_points(classical_centers(five_model)["I"], five_model)
        assert spheres == []
        assert len(result.points) == 2

    def test_tangent_family_has_one_point(self):
        # weights 1/|X - A_i| for X on the circumsphere: the two points merge at X
        rng = np.random.default_rng(5)
        for t in range(600):
            n = 2 + t % 3
            model = SimplexModel(rng.standard_normal((n + 1, n)))
            u = rng.standard_normal(n)
            center, radius = circumcenter_cart(model)
            if radius > 2 * model.diameter:
                continue
            x = center + radius * u / np.linalg.norm(u)
            result = isodynamic_points(1 / np.linalg.norm(model.vertices - x, axis=1), model)
            assert len(result.points) == 1
            assert (np.linalg.norm(model.bary_to_cart(result.points[0]) - x)
                    <= 1e-6 * model.diameter)
            assert result.residuals[0] <= 1e-8

    def test_gap_tetrahedron_empty(self, gap_model):
        result = isodynamic_points(classical_centers(gap_model)["I"], gap_model)
        assert result.points == []

    def test_triangle_equal_products(self):
        # each returned point satisfies d(J, A_i) * d_jk equal over i
        rng = np.random.default_rng(13)
        for _ in range(20):
            d12, d13, d23 = golden.random_triangle_sides(rng)
            model = embed_from_edge_lengths(
                EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            result = isodynamic_points(classical_centers(model)["I"], model)
            assert len(result.points) == 2
            opposite = np.array([model.edges.d[1, 2], model.edges.d[0, 2],
                                 model.edges.d[0, 1]])
            for point in result.points:
                products = model.vertex_distances(point) * opposite
                assert np.ptp(products) <= 1e-9 * products.mean()

    def test_equilateral_returns_center_with_note(self, equilateral_triangle):
        result = isodynamic_points(classical_centers(equilateral_triangle)["I"],
                                   equilateral_triangle)
        assert len(result.points) == 1
        assert result.note is not None
        assert result.note
        center, _ = circumcenter_cart(equilateral_triangle)
        assert np.abs(equilateral_triangle.bary_to_cart(result.points[0])
                      - center).max() < 1e-12

    def test_inversive_pair_about_circumsphere(self, five_model):
        result = isodynamic_points(classical_centers(five_model)["I"], five_model)
        center, radius = circumcenter_cart(five_model)
        x1 = five_model.bary_to_cart(result.points[0])
        x2 = five_model.bary_to_cart(result.points[1])
        d1, d2 = np.linalg.norm(x1 - center), np.linalg.norm(x2 - center)
        assert abs(d1 * d2 - radius ** 2) <= 1e-8 * radius ** 2
        # collinear with the circumcenter, on the same ray
        u1, u2 = (x1 - center) / d1, (x2 - center) / d2
        assert np.abs(u1 - u2).max() < 1e-9

    def test_membership_coherent_across_all_spheres(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d12, d13, d23 = golden.random_triangle_sides(rng)
            model = embed_from_edge_lengths(
                EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            weights = rng.uniform(0.3, 2.0, 3)
            result = isodynamic_points(BarycentricPoint(weights), model)
            for res in result.residuals:
                assert res <= 1e-8

    def test_brocard_axis_and_harmonic_range(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d12, d13, d23 = golden.random_triangle_sides(rng)
            model = embed_from_edge_lengths(
                EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            centers = classical_centers(model)
            result = isodynamic_points(centers["I"], model)
            o_cart, _ = circumcenter_cart(model)
            k_cart = model.bary_to_cart(centers["K"])
            j1 = model.bary_to_cart(result.points[0])
            j2 = model.bary_to_cart(result.points[1])
            axis = (k_cart - o_cart) / np.linalg.norm(k_cart - o_cart)
            for jc in (j1, j2):
                assert abs(golden.cross2(axis, jc - o_cart)) <= 1e-9 * model.diameter
            # the four points O, J1, K, J2 in line order form a harmonic range
            assert abs(collinear_cross_ratio(o_cart, k_cart, j1, j2) + 1) <= 1e-7

    def test_exactly_one_interior_below_120_degrees(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d12, d13, d23 = golden.random_triangle_sides(rng)
            model = embed_from_edge_lengths(
                EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            result = isodynamic_points(classical_centers(model)["I"], model)
            flags = [bool(np.all(p.normalized_coords > 0)) for p in result.points]
            assert sum(flags) == 1
            assert flags[0]  # interior point is listed first

    def test_no_interior_point_above_120_degrees(self):
        # beyond a 120-degree angle both points leave the triangle, which is
        # why the interior-split property is only claimed below that bound
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1.95]))
        result = isodynamic_points(classical_centers(model)["I"], model)
        assert len(result.points) == 2
        flags = [bool(np.all(p.normalized_coords > 0)) for p in result.points]
        assert sum(flags) == 0

    def test_pedal_triangles_equilateral(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            d12, d13, d23 = golden.random_triangle_sides(rng)
            model = embed_from_edge_lengths(
                EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            result = isodynamic_points(classical_centers(model)["I"], model)
            for point in result.points:
                feet = pedal_simplex(point, model).vertices
                sides = [np.linalg.norm(feet[a] - feet[b])
                         for a, b in itertools.combinations(range(3), 2)]
                assert (max(sides) - min(sides)) / np.mean(sides) <= 1e-8

    def test_zero_coordinate_rejected(self, five_model):
        with pytest.raises(ZeroCoordinate):
            isodynamic_points(BarycentricPoint([0, 1, 1, 1]), five_model)


class TestYiuTriangleTest:
    def test_gap_witness_exact_fractions(self):
        verdict = yiu_triangle_test(12, 11, 13, *golden.GAP_FACET_AREAS[:3])
        assert np.abs(verdict.point.normalized_coords
                      - np.array(golden.GAP_WITNESS)).max() < 1e-12
        assert verdict.outside
        assert verdict.distance > verdict.circumradius
        assert abs(verdict.circumradius - golden.GAP_TRIANGLE_CIRCUMRADIUS) < 1e-12

    def test_equilateral_equal_weights_center(self):
        verdict = yiu_triangle_test(1, 1, 1, 2, 2, 2)
        assert np.abs(verdict.point.normalized_coords - 1 / 3).max() < 1e-14
        assert not verdict.outside  # bisector lines meet at the center

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            d12, d13, d23 = golden.random_triangle_sides(rng, max_angle_deg=150)
            weights = rng.uniform(0.3, 3.0, 3)
            if np.ptp(weights) < 1e-3:
                continue
            verdict = yiu_triangle_test(d23, d13, d12, *weights)
            model = embed_from_edge_lengths(
                EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            oracle = golden.weighted_circles_meet(model.vertices, weights)
            assert verdict.circles_meet == oracle, (d12, d13, d23, weights)
            checked += 1

    def test_pole_at_infinity_is_outside(self):
        # these weights make the circle-centers line pass through the
        # circumcenter, so its pole is a direction
        verdict = yiu_triangle_test(6, 4, 3, math.sqrt(396 / 851), 1, 1)
        assert not verdict.point.is_finite()
        assert verdict.outside and verdict.distance == math.inf
        assert verdict.circumradius == pytest.approx(216 / math.sqrt(4095), rel=1e-14)

    def test_infinite_weight_rejected(self):
        # the weights are the coordinates of a point, so they must be finite
        with pytest.raises(ValueError, match="coordinates must be finite"):
            yiu_triangle_test(3, 4, 5, math.inf, 1, 1)

    def test_invalid_triangle_rejected(self):
        with pytest.raises(NotEmbeddable, match="no Euclidean simplex") as excinfo:
            yiu_triangle_test(1, 1, 2.5, 1, 1, 1)
        assert excinfo.type is NotEmbeddable

    def test_infinite_side_rejected(self):
        with pytest.raises(ValueError, match="edge lengths must be finite"):
            yiu_triangle_test(math.inf, 1, 1, 1, 1, 1)

    def test_same_verdict_as_the_embedding(self):
        # one validity test: the criterion accepts exactly the sides that
        # embed, and rejects the others with the embedding's class.  20,904
        # triples: random ones, and ones within 1e-17 to 1 of the triangle
        # inequality on either side of it, at three scales
        rng = np.random.default_rng(43)
        triples = list(rng.uniform(0.01, 1.0, (2000, 3)))
        for _ in range(72):
            a, b = rng.uniform(0.01, 1.0, 2)
            for gap in np.logspace(-17, 0, 35):
                for longest in ((a + b) * (1 - gap), (a + b) * (1 + gap)):
                    if longest > 0:
                        triples.append(np.roll([a, b, longest], rng.integers(3)))
        verdicts = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-300, 1.0, 1e300):
                for d23, d13, d12 in scale * np.array(triples):
                    table = EdgeLengthTable.from_flat(2, [d12, d13, d23])
                    got = _error_class(lambda: yiu_triangle_test(d23, d13, d12, 1, 2, 3))
                    want = _error_class(lambda: embed_from_edge_lengths(table))
                    assert got is want, (d23, d13, d12, got, want)
                    verdicts.add(got)
        assert verdicts == {None, Degenerate, NotEmbeddable}

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            yiu_triangle_test(3, 4, 5, 1, -1, 1)

    def test_builds_no_model(self, count_calls):
        models = count_calls(SimplexModel, "__init__")
        yiu_triangle_test(12, 11, 13, *golden.GAP_FACET_AREAS[:3])
        yiu_triangle_test(6, 4, 3, math.sqrt(396 / 851), 1, 1)
        assert models == []

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300], ids=["1e-300", "1", "1e300"])
    def test_matches_the_embedded_triangle(self, scale):
        # the oracle embeds the triangle as a model and reads its frame
        rng = np.random.default_rng(47)
        for _ in range(200):
            d12, d13, d23 = (scale * s for s in
                             golden.random_triangle_sides(rng, max_angle_deg=150))
            weights = rng.uniform(0.1, 10.0, 3)
            model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [d12, d13, d23]))
            squares = model._lengths[[1, 0, 0], [2, 2, 1]] ** 2
            w = BarycentricPoint(weights).coords
            t = squares * (w.min() / w) ** 2
            point = BarycentricPoint(squares * (2.0 * t - t.sum()))
            center, radius = model._circumcenter
            dist = float(np.linalg.norm(model._frame(point) - center))

            verdict = yiu_triangle_test(d23, d13, d12, *weights)
            if abs(dist - radius) > 1e-12 * radius:
                assert verdict.outside == (dist > radius)
            assert (np.abs(verdict.point.coords - point.coords).max()
                    <= 1e-11 * np.abs(point.coords).max())
            assert verdict.distance == pytest.approx(model._absolute(dist), rel=1e-11)
            assert verdict.circumradius == pytest.approx(model._absolute(radius), rel=1e-11)

    def test_flat_triangle_is_degenerate(self):
        # the sides' Gram matrix is tested as the embedding tests it
        with pytest.raises(Degenerate):
            yiu_triangle_test(1, 1, 2 - 1e-14, 1, 1, 1)

    @pytest.mark.parametrize("weight", [1e-160, 1e-200])
    def test_weights_whose_squared_ratio_leaves_float_range(self, weight):
        # the pole is homogeneous in the reciprocal weights, which are scaled
        # by their largest before they are squared: no quotient overflows
        want = yiu_triangle_test(5, 3.1623, 4, 1e-100, 1, 1).point.normalized_coords
        assert want == pytest.approx([-24.99646825, 9.99872857, 15.99773968], rel=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = yiu_triangle_test(5, 3.1623, 4, weight, 1, 1).point.normalized_coords
        assert np.abs(got - want).max() <= 1e-12


    def test_weights_whose_normalized_least_underflows(self):
        # [1e-200 : 1 : 1e200] normalized puts 1e-400 first, below float
        # range; the pole reads the weights' ratios, and rounds to that of
        # [1e-100 : 1 : 1e100]: in both, two squared ratios vanish beside the third
        want = yiu_triangle_test(3, 4, 5, 1e-100, 1, 1e100)
        got = yiu_triangle_test(3, 4, 5, 1e-200, 1, 1e200)
        assert got.point.coords.tobytes() == want.point.coords.tobytes()
        assert got.outside == want.outside


class TestRestrictToFacet:
    def test_symmedian_hits_squared_area_point(self, gap_model):
        k = classical_centers(gap_model)["K"]
        facet_model, point = restrict_to_facet(k, gap_model, 3)
        areas_sq = np.array(golden.GAP_FACET_AREAS[:3]) ** 2
        assert np.abs(point.normalized_coords
                      - areas_sq / areas_sq.sum()).max() < 1e-12
        # the facet model is the reference facet triangle
        assert np.abs(np.sort(facet_model.edges.d[np.triu_indices(3, 1)])
                      - np.sort(golden.GAP_TRIANGLE_EDGES)).max() < 1e-12

    def test_point_already_on_facet(self, five_model):
        p = BarycentricPoint([0.5, 0.3, 0.2, 0.0])
        _, point = restrict_to_facet(p, five_model, 3)
        assert np.abs(point.normalized_coords - np.array([0.5, 0.3, 0.2])).max() < 1e-14

    def test_centroid_projects_to_facet_centroid(self, five_model):
        g = BarycentricPoint([1, 1, 1, 1])
        for facet in range(4):
            _, point = restrict_to_facet(g, five_model, facet)
            assert np.abs(point.normalized_coords - 1 / 3).max() < 1e-14

    def test_parallel_line(self, equilateral_triangle):
        p = BarycentricPoint([1.0, 1.0, -1.0])
        with pytest.raises(PointAtInfinity, match="misses the facet") as excinfo:
            restrict_to_facet(p, equilateral_triangle, 0)
        assert excinfo.type is PointAtInfinity

    def test_triangle_facet_is_a_segment(self):
        model = SimplexModel([[0, 0], [4, 0], [1, 3]])
        facet_model, point = restrict_to_facet([1, 2, 3], model, 0)
        assert facet_model.n == 1
        assert facet_model.total_volume == pytest.approx(math.sqrt(18), rel=1e-15)
        assert np.abs(point.coords - [0.4, 0.6]).max() < 1e-15

    def test_opposite_vertex_rejected(self, five_model):
        with pytest.raises(AtVertex):
            restrict_to_facet(BarycentricPoint.vertex(2, 3), five_model, 2)

    def test_facets_at_the_float_limit(self):
        # edges of 1.41e308 are in float range, so those facets are returned;
        # the edge of 2e308 is not, and its facet is refused with the reason
        model = SimplexModel([[-1e308, 0], [1e308, 0], [0, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for facet in (0, 1):
                facet_model, point = restrict_to_facet([1, 1, 1], model, facet)
                assert facet_model.diameter == pytest.approx(math.sqrt(2) * 1e308, rel=1e-15)
                assert np.abs(point.coords - 0.5).max() <= 1e-15
            with pytest.raises(NotEmbeddable, match="beyond float range"):
                restrict_to_facet([1, 1, 1], model, 2)

    @pytest.mark.parametrize("facet", [7, -1, 1.5])
    def test_facet_index_checked(self, five_model, facet):
        with pytest.raises(ValueError, match="facet index"):
            restrict_to_facet([1, 2, 3, 4], five_model, facet)
