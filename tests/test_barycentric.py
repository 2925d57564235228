import itertools
import math
import warnings

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_nonzero_point

from simplexcenters import (
    BarycentricPoint,
    Degenerate,
    EdgeLengthTable,
    NotEmbeddable,
    PointAtInfinity,
    SimplexModel,
    circumcenter_cart,
    classical_centers,
    embed_from_edge_lengths,
    facet_volumes_of_points,
    fermat_point,
    pedal_simplex,
    yiu_triangle_test,
)
from simplexcenters import barycentric


class TestEdgeLengthTable:
    def test_from_flat_lexicographic_order(self):
        table = EdgeLengthTable.from_flat(3, golden.GAP_EDGES)
        d = table.d
        assert d[0, 1] == 13 and d[0, 2] == 11 and d[0, 3] == 9
        assert d[1, 2] == 12 and d[1, 3] == 5 and d[2, 3] == 11
        assert np.all(d == d.T)

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_from_flat_matches_a_loop_over_the_pairs(self, n):
        values = np.random.default_rng(n).uniform(1.0, 1.1, n * (n + 1) // 2)
        d = np.zeros((n + 1, n + 1))
        for (i, j), v in zip(itertools.combinations(range(n + 1), 2), values):
            d[i, j] = d[j, i] = v
        assert np.array_equal(EdgeLengthTable.from_flat(n, values.tolist()).d, d)

    def test_lengths_near_the_float_limit_are_kept(self):
        # the table is made symmetric without forming d + d^T, which overflows
        d = np.array([[0.0, 1.5e308, 1e308], [1.5e308, 0.0, 1e308], [1e308, 1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = EdgeLengthTable.from_flat(2, [1.5e308, 1e308, 1e308])
        assert np.array_equal(table.d, d)

    @pytest.mark.parametrize("values, message", [
        ([1, 1, 0], "off-diagonal edge lengths must be positive"),
        ([0, 0, 0], "edge table is identically zero"),
        ([-1, 1, 1], "off-diagonal edge lengths must be positive"),
    ], ids=["zero", "all-zero", "negative"])
    def test_rejects_nonpositive_edges(self, values, message):
        with pytest.raises(ValueError, match=message):
            EdgeLengthTable.from_flat(2, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_lengths(self, bad):
        with pytest.raises(ValueError, match="edge lengths must be finite"):
            EdgeLengthTable.from_flat(2, [bad, 1, 1])

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            EdgeLengthTable.from_flat(3, [1, 1, 1])

    def test_a_wrong_count_is_refused_before_any_table_is_indexed(self, monkeypatch):
        # counted in integers: a huge dimension given three lengths allocates nothing
        def indexed(m):
            raise AssertionError(f"indexed the pairs of {m} vertices")
        monkeypatch.setattr(barycentric, "_pairs", indexed)
        with pytest.raises(ValueError,
                           match="dimension 1000000 needs 500000500000 edge lengths, got 3"):
            EdgeLengthTable.from_flat(10 ** 6, [3, 4, 5])

    def test_rejects_one_vertex(self):
        # a point has no edges, so the count check passes and the size check decides
        with pytest.raises(ValueError, match="square matrix of size >= 2"):
            EdgeLengthTable.from_flat(0, [])

    @pytest.mark.parametrize("n, values", [(2.0, [1, 1, 1]), (1.5, [1, 1, 1]), (True, [1])],
                             ids=["float", "fraction", "bool"])
    def test_rejects_a_dimension_that_is_not_an_integer(self, n, values):
        with pytest.raises(ValueError) as caught:
            EdgeLengthTable.from_flat(n, values)
        assert str(caught.value) == f"dimension must be an integer, got {n!r}"

    def test_a_numpy_integer_dimension_is_an_int(self):
        table = EdgeLengthTable.from_flat(np.int64(2), [3, 4, 5])
        assert type(table.n) is int and table.n == 2
        assert embed_from_edge_lengths(table).total_volume == 6.0

    def test_segment_table_embeds(self):
        # the floor is n >= 1 for edge tables as for vertex models
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(1, [5.0]))
        assert model.n == 1
        assert model.total_volume == 5.0
        assert np.array_equal(model.vertices, [[0.0], [5.0]])

    def test_zero_simplex_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            SimplexModel(np.zeros((1, 0)))


class TestEmbedding:
    def test_equilateral_triangle(self):
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1]))
        d = np.linalg.norm(
            model.vertices[:, None, :] - model.vertices[None, :, :], axis=2)
        assert np.abs(d[~np.eye(3, dtype=bool)] - 1).max() < 1e-12
        assert abs(model.total_volume - math.sqrt(3) / 4) < 1e-12

    def test_gap_tetrahedron_facet_areas(self, gap_model):
        assert np.abs(gap_model.facet_volumes
                      / np.array(golden.GAP_FACET_AREAS) - 1).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 8, 12, 16])
    def test_collinear_triangle_degenerate(self, n):
        # the last vertex is an affine combination of two others, so the
        # simplex is flat at every dimension and every scale; so it is when
        # the last vertex coincides with the first
        rng = np.random.default_rng(100 + n)
        verts = rng.standard_normal((n + 1, n))
        verts[n] = 0.25 * verts[0] + 0.75 * verts[1]
        coincident = verts.copy()
        coincident[n] = verts[0]
        for flat in (verts, coincident):
            with pytest.raises(Degenerate):
                SimplexModel(flat)
        if n <= 12:
            dist = np.linalg.norm(verts[:, None, :] - verts[None, :, :], axis=2)
            table = EdgeLengthTable.from_flat(n, dist[np.triu_indices(n + 1, 1)])
            with pytest.raises(Degenerate):
                embed_from_edge_lengths(table)

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertices_degenerate(self, bad, validate):
        # malformed input, not a flat simplex: ValueError at either setting
        with pytest.raises(ValueError, match="vertex coordinates must be finite"):
            SimplexModel([[bad, 0], [1, 0], [0, 1]], validate=validate)

    def test_a_factorial_beyond_float_range_reads_zero(self):
        # 171! is past float range: the model's volume reads 0, as a measure
        # beyond float range does, while its facets (170!) keep their values
        model = SimplexModel(np.random.default_rng(171).standard_normal((172, 171)))
        assert model.total_volume == 0.0
        assert np.isfinite(model.facet_volumes).all() and (model.facet_volumes > 0).all()

    def test_accepts_every_dimension_scale_and_pose(self):
        # 45 Gaussian simplices, n = 2..16, each scaled and rotated: all are
        # accepted from vertices and from edge lengths, the embedding
        # realizes the edge lengths, and both give the same centers
        rng = np.random.default_rng(1935)
        for n in range(2, 17):
            for scale in (1e-9, 1.0, 1e9):
                rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
                verts = scale * rng.standard_normal((n + 1, n)) @ rotation
                source = SimplexModel(verts)
                model = embed_from_edge_lengths(source.edges)
                realized = np.linalg.norm(
                    model.vertices[:, None, :] - model.vertices[None, :, :], axis=2)
                assert np.abs(realized - source.edges.d).max() \
                    <= 1e-10 * source.diameter
                embedded = classical_centers(model)
                for key, center in classical_centers(source).items():
                    want = center.normalized_coords
                    got = embedded[key].normalized_coords
                    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), key

    def test_not_embeddable_tetrahedron(self):
        # every face is a valid triangle, yet no apex closes the tetrahedron
        with pytest.raises(NotEmbeddable):
            embed_from_edge_lengths(
                EdgeLengthTable.from_flat(3, [1, 1, 1, 1, 1, 1.95]))

    @pytest.mark.parametrize("edges, error", [
        (golden.GAP_EDGES, None),
        ([1, 1, 1, 1, 1, 1.95], NotEmbeddable),
        ([1, 2, 3, 1, 2, 1], Degenerate),  # four points on a line
    ], ids=["model", "not-embeddable", "degenerate"])
    def test_one_gram_spectrum_per_embedding(self, edges, error, count_calls, lapack):
        spectra = count_calls(lapack, "eigvalsh_lo")
        table = EdgeLengthTable.from_flat(3, edges)
        if error is None:
            embed_from_edge_lengths(table)
        else:
            with pytest.raises(error):
                embed_from_edge_lengths(table)
        assert len(spectra) == 1

    def test_overflowing_table_raises_without_warning(self):
        # the lengths are scaled by a power of two before they are squared
        table = EdgeLengthTable.from_flat(2, [1.0, 2.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotEmbeddable):
                embed_from_edge_lengths(table)

    def test_unrealized_edge_lengths_not_embeddable(self, lapack):
        # the table passes the Gram test; the factor misses its lengths
        cholesky = lapack.cholesky_lo
        lapack.cholesky_lo = lambda g, **kwargs: 1.01 * cholesky(g, **kwargs)
        with pytest.raises(NotEmbeddable, match="realize"):
            embed_from_edge_lengths(EdgeLengthTable.from_flat(3, golden.GAP_EDGES))

    def test_canonical_pose(self, gap_model):
        v = gap_model.vertices
        assert np.all(v[0] == 0)
        assert v[1, 0] > 0 and np.abs(v[1, 1:]).max() == 0
        assert v[2, 1] > 0 and v[2, 2] == 0
        assert v[3, 2] > 0

    def test_realizes_distances(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            source = make_random_model(rng, n)
            model = embed_from_edge_lengths(source.edges)
            again = np.linalg.norm(
                model.vertices[:, None, :] - model.vertices[None, :, :], axis=2)
            assert np.abs(again - source.edges.d).max() < 1e-10 * source.diameter

    def test_cache_consistency(self, five_model):
        recomputed = np.linalg.norm(
            five_model.vertices[:, None, :] - five_model.vertices[None, :, :], axis=2)
        assert np.abs(recomputed - five_model.edges.d).max() \
            <= 1e-12 * five_model.diameter


class TestSquaredDistance:
    """Squared distances to the vertices, read through ``vertex_distances``."""

    def test_vertex_pair_is_edge_length(self, gap_model):
        dist = gap_model.vertex_distances(BarycentricPoint.vertex(0, 3))
        assert abs(dist[1] ** 2 - 13 ** 2) < 1e-10

    def test_equilateral_centroid_to_vertex(self, equilateral_triangle):
        dist = equilateral_triangle.vertex_distances(BarycentricPoint([1, 1, 1]))
        assert np.abs(dist ** 2 - 1 / 3).max() < 1e-14

    def test_matches_cartesian_oracle(self):
        # 200 random points across dimensions 2..5
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = 2 + trial % 4
            model = make_random_model(rng, n)
            p = random_nonzero_point(rng, n)
            pc = model.vertices.T @ (p / p.sum())
            exact = ((model.vertices - pc) ** 2).sum(axis=1)
            computed = model.vertex_distances(BarycentricPoint(p)) ** 2
            assert np.abs(computed - exact).max() <= 1e-9 * max(exact.max(),
                                                                 model.diameter ** 2)

    def test_point_at_infinity_rejected(self, equilateral_triangle):
        with pytest.raises(PointAtInfinity):
            equilateral_triangle.vertex_distances(BarycentricPoint([1.0, -1.0, 0.0]))


class TestConversions:
    def test_unit_vectors_map_to_vertices(self, five_model):
        for i in range(4):
            x = five_model.bary_to_cart(BarycentricPoint.vertex(i, 3))
            assert np.abs(x - five_model.vertices[i]).max() < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4):
            model = make_random_model(rng, n)
            for _ in range(10):
                p = random_nonzero_point(rng, n)
                p = p / p.sum()
                back = model.cart_to_bary(model.bary_to_cart(
                    BarycentricPoint(p)))
                assert np.abs(back.coords - p).max() < 1e-12

    def test_frame_formed_on_first_read(self, count_calls, lapack):
        inverses = count_calls(lapack, "inv")
        model = SimplexModel(golden.FIVE_VERTICES)
        assert not inverses
        # the feet read the model's own frame; the figure's volumes need none
        figure = pedal_simplex([1, 2, 3, 4], model)
        assert figure.facet_volumes.all()
        assert len(inverses) == 1
        figure.cart_to_bary(figure.vertices.mean(axis=0))
        assert len(inverses) == 2
        figure.cart_to_bary(figure.vertices[0])
        assert len(inverses) == 2

    def test_table_point_cartesian_image(self, five_model):
        # the affine combination sum_i f_i A_i is the oracle
        f0 = golden.ISOGONIC_TABLE[0]
        expected = (f0[:, None] * golden.FIVE_VERTICES).sum(axis=0)
        x = five_model.bary_to_cart(BarycentricPoint(f0))
        assert np.abs(x - expected).max() < 1e-12


class TestFacetVolumes:
    def test_five_tetrahedron_cross_product_oracle(self, five_model):
        oracle = golden.facet_areas_cross(golden.FIVE_VERTICES)
        assert np.abs(five_model.facet_volumes / oracle - 1).max() < 1e-10
        assert np.abs(five_model.facet_volumes
                      / np.array(golden.FIVE_FACET_VOLUMES) - 1).max() < 1e-10

    def test_regular_tetrahedron(self, regular_tetrahedron):
        assert np.abs(regular_tetrahedron.facet_volumes
                      - math.sqrt(3) / 4).max() < 1e-12

    def test_matches_gram_oracle_random(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4):
            model = make_random_model(rng, n)
            for i in range(n + 1):
                rest = np.delete(model.vertices, i, axis=0)
                edges = rest[1:] - rest[0]
                gram = edges @ edges.T
                oracle = math.sqrt(max(np.linalg.det(gram), 0.0)) / math.factorial(n - 1)
                assert abs(model.facet_volumes[i] - oracle) <= 1e-10 * oracle

    def test_stacked_sets_match_each_set_alone(self):
        # bit for bit, with coincident and collinear points in the stack
        rng = np.random.default_rng(32)
        for n in (1, 2, 3, 4):
            sets = rng.standard_normal((2, 3, n + 1, n))
            sets[0, 1] = sets[0, 1, :1]                  # one point, n + 1 times
            sets[1, 2, -1] = 0.5 * (sets[1, 2, 0] + sets[1, 2, 1])
            stacked = facet_volumes_of_points(sets)
            assert stacked.shape == (2, 3, n + 1)
            # a facet of one point has volume 1; a collapsed larger one, 0
            assert (stacked[0, 1] == (1.0 if n == 1 else 0.0)).all()
            for k, j in itertools.product(range(2), range(3)):
                assert stacked[k, j].tobytes() == facet_volumes_of_points(sets[k, j]).tobytes()

    @pytest.mark.parametrize("shape", [(1, 2), (2,), (), (3, 1, 4)])
    def test_fewer_than_two_points_rejected(self, shape):
        with pytest.raises(ValueError, match="m >= 2"):
            facet_volumes_of_points(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_points_rejected(self, bad):
        points = np.eye(3)[:, :2]
        points[1, 0] = bad
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            facet_volumes_of_points(points)

    @pytest.mark.parametrize("exponent", [-1000, -500, 500, 1000])
    def test_huge_and_tiny_point_sets(self, exponent):
        # measured scaled into range: a triangle's side lengths scale by
        # 2 ** exponent, a tetrahedron's facet areas by 2 ** (2 exponent)
        for corner in (np.vstack([np.zeros(2), np.eye(2)]), np.vstack([np.zeros(3), np.eye(3)])):
            power = len(corner) - 2
            want = facet_volumes_of_points(corner)
            got = facet_volumes_of_points(np.ldexp(corner, exponent // power))
            assert np.ldexp(got, -exponent) == pytest.approx(want, rel=1e-15)

    def test_a_factorial_beyond_float_range_reads_zero(self):
        # facets of 172 points divide by 171!, past float range
        assert (facet_volumes_of_points(np.eye(173)[:, :172]) == 0.0).all()


class TestClassicalCenters:
    def test_regular_simplex_all_coincide(self, regular_tetrahedron):
        centers = classical_centers(regular_tetrahedron)
        for key in ("G", "I", "K", "O"):
            c = centers[key].normalized_coords
            assert np.abs(c - 0.25).max() < 1e-10

    def test_gap_triangle_circumcenter(self, gap_triangle):
        o = classical_centers(gap_triangle)["O"].normalized_coords
        assert np.abs(o - np.array(golden.GAP_TRIANGLE_CIRCUMCENTER)).max() < 1e-12

    def test_five_symmedian_point(self, five_model):
        # squared facet areas from the cross-product oracle; the common
        # factor of (1000, 640, 360, 576) is 8, leaving 125:80:45:72
        oracle = golden.facet_areas_cross(golden.FIVE_VERTICES) ** 2
        expected = oracle / oracle.sum()
        k = classical_centers(five_model)["K"].normalized_coords
        assert np.abs(k - expected).max() < 1e-12
        ratio = np.array([125, 80, 45, 72], float)
        assert np.abs(k - ratio / ratio.sum()).max() < 1e-12


class TestCircumsphere:
    def test_regular_tetrahedron_radius(self, regular_tetrahedron):
        _, radius = circumcenter_cart(regular_tetrahedron)
        assert abs(radius - math.sqrt(3 / 8)) < 1e-12

    def test_right_triangle(self):
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [3, 4, 5]))
        center, radius = circumcenter_cart(model)
        assert abs(radius - 2.5) < 1e-12
        hypotenuse_mid = 0.5 * (model.vertices[1] + model.vertices[2])
        assert np.abs(center - hypotenuse_mid).max() < 1e-12

    def test_equidistance_random(self):
        rng = np.random.default_rng(47)
        for n in (2, 3, 4):
            model = make_random_model(rng, n)
            center, radius = circumcenter_cart(model)
            dv = np.linalg.norm(model.vertices - center[None, :], axis=1)
            assert np.abs(dv - radius).max() <= 1e-10 * radius


class TestBarycentricPoint:
    def test_normalized_mode_sum(self):
        p = BarycentricPoint([2.0, 1.0, 1.0])
        assert abs(p.normalized_coords.sum() - 1) < 1e-15

    def test_zero_sum_rejected_on_normalize(self):
        p = BarycentricPoint([1.0, -1.0, 0.0])
        with pytest.raises(PointAtInfinity):
            p.normalized_coords

    def test_report_scaling_largest_entry_positive_one(self):
        p = BarycentricPoint([2.9, -0.5, -1.4, 0.02])
        scaled = p.report_scaled()
        assert scaled[0] == 1.0
        p = BarycentricPoint([0.5, -2.0, 1.0])
        scaled = p.report_scaled()
        assert scaled[1] == 1.0  # sign flipped so the largest entry is +1
        assert scaled[0] == -0.25

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            BarycentricPoint([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("coords", [[1.0], [[1.0, 2.0], [3.0, 4.0]]], ids=["short", "matrix"])
    def test_non_vector_rejected(self, coords):
        with pytest.raises(ValueError, match="vector of length >= 2"):
            BarycentricPoint(coords)

    def test_wrong_dimension_rejected(self, five_model):
        with pytest.raises(ValueError, match="expected 4 coordinates, got 3"):
            five_model.bary_to_cart([1, 1, 1])

    def test_repr_shows_stored_coordinates(self):
        assert repr(BarycentricPoint([1, 1, 2])) == "BarycentricPoint([0.25, 0.25, 0.5])"

    def test_magnitudes_that_overflow_only_in_their_sum(self, five_model):
        # every entry is finite, so the point is scaled by a power of two
        # before it is summed, silently
        coords = [1e308, 1e308, -1e308, 1]
        assert np.array_equal(BarycentricPoint(coords).coords, [1, 1, -1, 1e-308])
        assert np.array_equal(five_model.bary_to_cart(coords),
                              five_model.bary_to_cart([1, 1, -1, 1e-308]))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                BarycentricPoint([1e308, 1e308, bad])

    def test_non_finite_rejected_before_any_solver_runs(self):
        model = SimplexModel([[0, 0], [4, 0], [1, 3]])
        for call in (lambda: fermat_point(model, start=[math.nan, 1, 1]),
                     lambda: yiu_triangle_test(3, 4, 5, math.nan, 1, 1)):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                call()

    def test_immutable(self):
        p = BarycentricPoint([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            p.coords[0] = 5.0

    def test_one_form_per_point(self):
        # a finite point is stored with coordinate sum 1, a direction as given
        p = BarycentricPoint([2, 4, 6])
        assert p.coords.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(p.coords, np.array([2.0, 4.0, 6.0]) / 12.0)
        assert p.is_finite() and p.normalized_coords is p.coords
        with pytest.raises(ValueError):
            p.coords[0] = 5.0
        d = BarycentricPoint([1, 1, -2])
        assert np.array_equal(d.coords, [1.0, 1.0, -2.0])
        assert not d.is_finite()
        with pytest.raises(PointAtInfinity):
            d.normalized_coords
        for name in ("mode", "homogeneous", "normalized", "normalized_from"):
            assert not hasattr(BarycentricPoint, name)
            assert not hasattr(p, name)

    def test_vertex_index_checked(self):
        assert np.array_equal(BarycentricPoint.vertex(np.int64(2), 3).coords, [0, 0, 1, 0])
        for i in (-1, 9, 1.5):
            with pytest.raises(ValueError, match=r"vertex index must be an integer in 0\.\.3"):
                BarycentricPoint.vertex(i, 3)
