import math

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_interior_point

from simplexcenters import (
    AtVertex,
    BarycentricPoint,
    EdgeLengthTable,
    MaxIterationsExceeded,
    SimplexModel,
    ZeroCoordinate,
    embed_from_edge_lengths,
    fermat_point,
    polar_simplex,
    total_distance,
    weiszfeld_step_q,
    weiszfeld_step_r,
    z_correspondent,
)
from simplexcenters import fermat
from simplexcenters.fermat import distance_sum_gradient


class TestCorrespondent:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            coords = rng.uniform(0.1, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            if abs(coords.sum()) < 0.1:
                continue
            p = BarycentricPoint(coords)
            same = z_correspondent(p, np.ones(n + 1))
            assert np.abs(same.normalized_coords - p.normalized_coords).max() <= 1e-12

    def test_self_maps_to_centroid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            coords = rng.uniform(0.1, 2.0, n + 1)
            p = BarycentricPoint(coords)
            centroid = z_correspondent(p, p)
            assert np.abs(centroid.normalized_coords - 1 / (n + 1)).max() <= 1e-12

    def test_componentwise_quotient(self):
        p = BarycentricPoint([0.5, 0.25, 0.25])
        z = BarycentricPoint([1.0, 2.0, 1.0])
        out = z_correspondent(p, z)
        expected = np.array([4.0, 1.0, 2.0])
        assert np.abs(out.normalized_coords - expected / expected.sum()).max() < 1e-15

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ZeroCoordinate):
            z_correspondent(BarycentricPoint([1, 0, 1]),
                            BarycentricPoint([1, 1, 1]))


class TestWeiszfeldSteps:
    def test_centroid_fixed_on_regular_simplex(self, regular_tetrahedron):
        g = BarycentricPoint([1, 1, 1, 1])
        for step in (weiszfeld_step_q, weiszfeld_step_r):
            out = step(g, regular_tetrahedron)
            assert np.abs(out.normalized_coords - 0.25).max() < 1e-14

    def test_q_step_matches_cartesian_update(self):
        # classical update: distance-weighted average of the vertices
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            p = BarycentricPoint(random_interior_point(rng, n))
            x = model.bary_to_cart(p)
            dv = np.linalg.norm(model.vertices - x[None, :], axis=1)
            oracle = (model.vertices / dv[:, None]).sum(axis=0) / (1.0 / dv).sum()
            stepped = model.bary_to_cart(weiszfeld_step_q(p, model))
            assert np.abs(stepped - oracle).max() < 1e-10 * model.diameter

    def test_q_step_sign_factors(self, five_model):
        p = BarycentricPoint([-0.2, 0.4, 0.4, 0.4])
        out = weiszfeld_step_q(p, five_model)
        dv = five_model.vertex_distances(p)
        expected = np.array([-1, 1, 1, 1]) / dv
        assert np.abs(out.normalized_coords
                      - expected / expected.sum()).max() < 1e-13

    def test_table_point_is_fixed_point(self, five_model):
        f0 = BarycentricPoint(golden.ISOGONIC_TABLE[0])
        for step in (weiszfeld_step_q, weiszfeld_step_r):
            out = step(f0, five_model)
            assert np.abs(out.normalized_coords
                          - f0.normalized_coords).max() < 1e-9

    def test_r_step_positive_output(self, five_model):
        p = BarycentricPoint([-0.2, 0.4, 0.4, 0.4])
        out = weiszfeld_step_r(p, five_model)
        assert np.all(out.coords > 0)

    def test_q_step_equals_polar_incenter_correspondent(self):
        # reciprocal-distance step == correspondent with the incenter of
        # the polar simplex (its facet volumes), tying both routes together
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            coords = rng.uniform(0.15, 1.2, n + 1) * rng.choice([-1.0, 1.0], n + 1)
            if abs(coords.sum()) < 0.1:
                continue
            p = BarycentricPoint(coords)
            polar = polar_simplex(p, model)
            i_star = polar.facet_volumes
            via_correspondent = z_correspondent(p, i_star, model)
            direct = weiszfeld_step_q(p, model)
            assert np.abs(via_correspondent.normalized_coords
                          - direct.normalized_coords).max() < 1e-9

    def test_vertex_rejected(self, five_model):
        with pytest.raises(AtVertex):
            weiszfeld_step_q(BarycentricPoint.vertex(1, 3), five_model)

    def test_r_step_rejects_a_vertex_with_nonzero_coordinates(self):
        # on this thin triangle [1 : 2^-30 : -2^-30] lies 2^-47 from vertex 0,
        # inside the vertex tolerance, though no coordinate is near zero
        thin = SimplexModel([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0 ** -17]])
        with pytest.raises(AtVertex):
            weiszfeld_step_r([1, 2.0 ** -30, -2.0 ** -30], thin)


class TestFermatPoint:
    def test_five_tetrahedron_both_methods(self, five_model):
        counts = {}
        for method in ("q", "r"):
            point, trace = fermat_point(five_model, method=method)
            assert trace.converged and trace.reason == "converged"
            assert np.abs(point.normalized_coords
                          - golden.ISOGONIC_TABLE[0]).max() < 1e-9
            counts[method] = trace.iterations_used
        # iteration counts are reported, not ordered: the square-root-free
        # variant is not faster on this input
        assert counts["q"] > 0 and counts["r"] > 0

    def test_equilateral_centroid(self, equilateral_triangle):
        point, _ = fermat_point(equilateral_triangle)
        assert np.abs(point.normalized_coords - 1 / 3).max() < 1e-12

    def test_obtuse_triangle_vertex_optimum(self):
        # the angle at the first vertex exceeds 120 degrees
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1.95]))
        point, trace = fermat_point(model)
        assert trace.vertex_optimum and trace.reason == "vertex optimum"
        assert np.abs(point.normalized_coords - np.array([1.0, 0, 0])).max() == 0
        # first-order vertex condition: remaining-gradient norm <= 1
        g = golden.distance_sum_gradient(model.vertices[1:], model.vertices[0])
        assert np.linalg.norm(g) <= 1.0

    def test_methods_share_limits_random(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            start = random_interior_point(rng, n)
            q_point, _ = fermat_point(model, start=start, method="q")
            r_point, _ = fermat_point(model, start=start, method="r")
            assert np.abs(q_point.normalized_coords
                          - r_point.normalized_coords).max() < 1e-8

    def test_monotone_descent_and_first_order_optimality(self, five_model):
        rng = np.random.default_rng(17)
        for _ in range(5):
            start = random_interior_point(rng, 3)
            point, trace = fermat_point(five_model, start=start, method="q")
            diffs = np.diff(trace.objective_values)
            assert diffs.max() <= 1e-12
            x = five_model.bary_to_cart(point)
            grad = golden.distance_sum_gradient(five_model.vertices, x)
            assert np.linalg.norm(grad) <= 1e-7
            fd = golden.finite_difference_gradient(
                lambda y: golden.distance_sum(five_model.vertices, y), x)
            assert np.abs(grad - fd).max() <= 1e-5

    def test_exterior_start_enters_interior(self, five_model):
        start = BarycentricPoint([-0.5, 0.6, 0.5, 0.4])
        point, trace = fermat_point(five_model, start=start, method="q")
        assert np.abs(point.normalized_coords
                      - golden.ISOGONIC_TABLE[0]).max() < 1e-9
        # the first update is already interior
        assert np.all(trace.iterates[1].normalized_coords > 0)

    def test_exterior_shell_starts(self, five_model):
        # starts sampled from a bounded shell outside the simplex
        rng = np.random.default_rng(19)
        target = golden.ISOGONIC_TABLE[0]
        for _ in range(10):
            coords = rng.uniform(0.3, 1.0, 4)
            coords[rng.integers(0, 4)] *= -rng.uniform(0.5, 2.0)
            if abs(coords.sum()) < 0.15:
                continue
            for method in ("q", "r"):
                point, _ = fermat_point(five_model, start=coords, method=method)
                assert np.abs(point.normalized_coords - target).max() < 1e-9

    def test_escape_from_nonoptimal_vertex(self, equilateral_triangle):
        # starts microscopically close to a vertex of the equilateral
        # triangle; the vertex fails the first-order condition (gradient
        # norm sqrt(3) > 1), so iterates must escape to the centroid
        # rather than stick.  [1 - 2s, s, s] lies s * sqrt(3) from vertex 0.
        for s in (3e-13, 1e-10 / math.sqrt(3)):
            start = np.array([1.0 - 2 * s, s, s])
            point, trace = fermat_point(equilateral_triangle, start=start)
            assert trace.converged
            assert not trace.vertex_optimum
            assert np.abs(point.normalized_coords - 1 / 3).max() < 1e-10

    @pytest.mark.parametrize("offset", [1e8, 1e10, 1e12], ids=["1e8", "1e10", "1e12"])
    @pytest.mark.parametrize("method", ["q", "r"])
    def test_far_translated_simplex(self, five_model, method, offset):
        # Newton runs in the model's frame, vertex 0 at the origin, so the
        # offset costs no digits
        far = SimplexModel(golden.FIVE_VERTICES + offset)
        point, trace = fermat_point(far, method=method)
        near, _ = fermat_point(five_model, method=method)
        assert trace.converged
        assert np.abs(point.normalized_coords - near.normalized_coords).max() <= 1e-12

    def test_max_iterations_raises_with_trace(self, five_model):
        with pytest.raises(MaxIterationsExceeded) as info:
            fermat_point(five_model, max_iter=3)
        trace = info.value.trace
        assert trace is not None
        assert trace.iterations_used == 3
        assert trace.reason == "out of budget"
        assert len(trace.iterates) == 4  # start plus three steps

    def test_zero_budget_takes_no_step(self, five_model):
        with pytest.raises(MaxIterationsExceeded, match="within 0 iterations") as info:
            fermat_point(five_model, max_iter=0)
        trace = info.value.trace
        assert trace.iterations_used == 0 and trace.reason == "out of budget"
        assert len(trace.iterates) == len(trace.objective_values) == 1

    def test_newton_stall_raises_with_trace(self, five_model, monkeypatch):
        # Newton ends unaccepted before the budget: a singular Jacobian or a
        # line search that cannot lower the gradient
        monkeypatch.setattr(fermat, "_newton", lambda *args: ([], 1, False))
        with pytest.raises(MaxIterationsExceeded,
                           match="Newton stalled after 1 iterations") as info:
            fermat_point(five_model)
        trace = info.value.trace
        assert trace.reason == "stalled" and not trace.converged
        assert trace.iterations_used == 1 and trace.gradient_evaluations == 1

    def test_one_distance_evaluation_per_iteration(self, count_calls):
        # the objective of each iterate is read off the distances its step
        # computes; only the point that leaves the loop needs one more
        model = SimplexModel(golden.FIVE_VERTICES)
        calls = count_calls(model, "vertex_distances")
        for method in ("q", "r"):
            calls.clear()
            _, trace = fermat_point(model, method=method)
            assert len(calls) <= trace.iterations_used + 2
            assert trace.objective_values == [
                total_distance(p, model) for p in trace.iterates]

    @pytest.mark.parametrize("model, vertex", [
        # the angle at vertex 0 exceeds 120 degrees
        (lambda: embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1.95])), 0),
        # the unit pulls from vertex 2 toward the others sum to norm ~0.29
        (lambda: SimplexModel([[1, 0, 0], [-0.5, 0.866, 0], [0, 0, 0],
                               [-0.5, -0.866, 0.3]]), 2),
    ], ids=["obtuse-triangle", "tetrahedron"])
    @pytest.mark.parametrize("method", ["q", "r"])
    def test_vertex_optimum_decided_before_iterating(self, model, vertex, method,
                                                     count_calls):
        model = model()
        calls = count_calls(model, "vertex_distances")
        point, trace = fermat_point(model, method=method)
        assert np.array_equal(point.coords, BarycentricPoint.vertex(vertex, model.n).coords)
        assert trace.vertex_optimum and trace.converged
        assert trace.iterations_used == 0
        assert len(trace.iterates) == 2
        assert len(calls) <= 2
        assert trace.objective_values == [
            total_distance(p, model) for p in trace.iterates]

    def test_one_point_per_iteration(self, five_model, count_calls):
        # the start and each step build their point once
        made = count_calls(BarycentricPoint, "__post_init__")
        for method in ("q", "r"):
            made.clear()
            _, trace = fermat_point(five_model, method=method)
            assert trace.iterations_used > 2
            assert len(made) <= trace.iterations_used + 2

    def test_first_iterate_is_the_public_step(self, five_model):
        # from an interior start the magnitudes fermat_point feeds the
        # step kernel are the signed coordinates themselves
        start = np.array([0.2, 0.3, 0.1, 0.4])
        for method, step in (("q", weiszfeld_step_q), ("r", weiszfeld_step_r)):
            with pytest.raises(MaxIterationsExceeded) as info:
                fermat_point(five_model, start=start, method=method, max_iter=1)
            first = info.value.trace.iterates[1].coords
            assert np.array_equal(first, step(start, five_model).normalized_coords)

    def test_start_with_zero_coordinate_rejected(self, five_model):
        with pytest.raises(ZeroCoordinate):
            fermat_point(five_model, start=[0, 1, 1, 1])

    def test_unknown_method_rejected(self, five_model):
        with pytest.raises(ValueError, match="classic"):
            fermat_point(five_model, method="classic")


class TestDistanceSumGradient:
    def test_matches_vertex_loop(self):
        # the vectorized sum against the per-vertex loop, off and at a vertex
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = 2 + trial % 4
            model = make_random_model(rng, n)
            x = rng.standard_normal(n)
            assert np.abs(distance_sum_gradient(model, x)
                          - golden.distance_sum_gradient(model.vertices, x)).max() <= 1e-14 * n
            others = golden.distance_sum_gradient(model.vertices[1:], model.vertices[0])
            assert np.abs(distance_sum_gradient(model, model.vertices[0])
                          - others).max() <= 1e-14 * n


class TestTotalDistance:
    def test_vertex_of_equilateral(self, equilateral_triangle):
        assert abs(total_distance(BarycentricPoint.vertex(0, 2),
                                  equilateral_triangle) - 2.0) < 1e-14

    def test_regular_tetrahedron_centroid(self, regular_tetrahedron):
        g = BarycentricPoint([1, 1, 1, 1])
        assert abs(total_distance(g, regular_tetrahedron)
                   - 4 * math.sqrt(3 / 8)) < 1e-12

    def test_minimizer_beats_centroid_and_vertices(self, five_model):
        f0 = BarycentricPoint(golden.ISOGONIC_TABLE[0])
        best = total_distance(f0, five_model)
        assert best <= total_distance(
            BarycentricPoint([1, 1, 1, 1]), five_model)
        for i in range(4):
            assert best <= total_distance(BarycentricPoint.vertex(i, 3), five_model)
