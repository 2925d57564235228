import math

import numpy as np
import pytest

import golden
from conftest import COLLAPSED, make_random_model, random_interior_point

from simplexcenters import (
    AtVertex,
    BarycentricPoint,
    Degenerate,
    EdgeLengthTable,
    MaxIterationsExceeded,
    SimplexModel,
    ZeroCoordinate,
    embed_from_edge_lengths,
    enumerate_isogonic,
    fermat_point,
    polar_simplex,
    total_distance,
    weiszfeld_step_q,
    weiszfeld_step_r,
    z_correspondent,
)
from simplexcenters import fermat
from simplexcenters.fermat import distance_sum_gradient
from simplexcenters.isogonic import _claimed


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

    @pytest.mark.parametrize("figure", ["coincident-triangle", "coincident-tetrahedron"])
    def test_coincident_vertices_are_degenerate(self, figure):
        # the unit edges divide by every edge length
        with pytest.raises(Degenerate, match="coincident vertices"):
            fermat_point(COLLAPSED[figure]())

    def test_simson_line_figure_answers_its_middle_vertex(self):
        # collinear and distinct vertices: the middle one minimizes the distance sum
        point, trace = fermat_point(COLLAPSED["simson-line"]())
        assert trace.reason == "vertex optimum"
        assert point.coords.tolist() == [1.0, 0.0, 0.0]

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

    def test_a_tolerance_below_rounding_converges(self, five_model):
        # no step is 1e-20 diameters long: the run ends where the line
        # search cannot lower |g| <= 1e-10, as a catalog start does
        point, trace = fermat_point(five_model, tol=1e-20)
        assert trace.reason == "converged"
        assert np.abs(point.normalized_coords - golden.ISOGONIC_TABLE[0]).max() < 1e-9

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
        # Newton ends unaccepted before the budget, a singular Jacobian or a
        # line search that cannot lower the gradient, and so does its one
        # restart: the approach step and the restart point are the steps,
        # and the halvings that placed it count as evaluations
        monkeypatch.setattr(fermat, "_newton", lambda *args: ([], 1, "stalled", None))
        with pytest.raises(MaxIterationsExceeded,
                           match="Newton stalled after 2 iterations") as info:
            fermat_point(five_model)
        trace = info.value.trace
        assert trace.reason == "stalled" and not trace.converged
        assert trace.iterations_used == 2
        assert trace.gradient_evaluations == 2 + fermat._HALVINGS

    def test_one_distance_evaluation_per_iteration(self, count_calls):
        # the approach step reads the frame distances once and Newton reads
        # none; no distance sum is formed until the trace is read
        model = SimplexModel(golden.FIVE_VERTICES)
        calls = count_calls(model, "_distances")
        sums = count_calls(fermat, "total_distance")
        for method in ("q", "r"):
            calls.clear()
            sums.clear()
            _, trace = fermat_point(model, method=method)
            assert len(calls) == 1 and not sums
            assert trace.objective_values == [
                total_distance(p, model) for p in trace.iterates]
            assert len(sums) == len(trace.iterates) > 2

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
        calls = count_calls(model, "_distances")
        sums = count_calls(fermat, "total_distance")
        point, trace = fermat_point(model, method=method)
        assert not calls and not sums
        assert np.array_equal(point.coords, BarycentricPoint.vertex(vertex, model.n).coords)
        assert trace.vertex_optimum and trace.converged
        assert trace.iterations_used == 0
        assert len(trace.iterates) == 2
        assert trace.objective_values == [
            total_distance(p, model) for p in trace.iterates]

    def test_one_point_per_iteration(self, five_model, count_calls):
        # the start and the result are the only points built while the
        # trace is unread, whatever the iteration count
        made = count_calls(BarycentricPoint, "__post_init__")
        for method in ("q", "r"):
            made.clear()
            _, trace = fermat_point(five_model, method=method)
            assert trace.iterations_used > 2
            assert len(made) <= 2

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

    @pytest.mark.parametrize("name, value", [
        ("tol", math.nan), ("tol", 0.0), ("tol", -1.0), ("tol", math.inf),
        ("max_iter", 2.5), ("max_iter", True), ("max_iter", False), ("max_iter", -1),
    ])
    def test_bad_budget_rejected_before_any_work(self, count_calls, name, value):
        # tol must be finite and positive, max_iter an int >= 0 and no bool;
        # the check comes before any gradient or Kuhn's verdict
        model = SimplexModel(golden.FIVE_VERTICES)
        evaluations = count_calls(fermat, "_signed_gradient")
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fermat_point(model, **{name: value})
        assert not evaluations and "_fermat_vertex" not in vars(model)

    def test_numpy_integer_budget_accepted(self, five_model):
        bits = [fermat_point(five_model, max_iter=budget)[0].coords.tobytes()
                for budget in (50, np.int64(50))]
        assert bits[0] == bits[1]


def _assert_lazy_trace(model, trace, point=None, tol=1e-12, max_iter=10000, method="q"):
    """The trace formed on first read equals the eager formula: the seed,
    the approach step's point, then the solve's frame path in barycentric
    coordinates, each with its ``total_distance``."""
    assert "iterates" not in vars(trace) and "objective_values" not in vars(trace)
    iterates = trace.iterates
    assert iterates[0] is trace.seed
    assert len(iterates) == trace.iterations_used + 1 + trace.vertex_optimum
    if point is not None:
        assert iterates[-1].coords.tobytes() == point.coords.tobytes()
    if len(iterates) > 1 and not trace.vertex_optimum:
        h, path, *_ = fermat._fermat_solve(model, trace.seed, method, tol, max_iter)
        assert iterates[1].coords.tobytes() == BarycentricPoint(h).coords.tobytes()
        assert [p.coords.tobytes() for p in iterates[2:]] == [
            BarycentricPoint(model._coords(y)).coords.tobytes() for y in path]
    assert trace.objective_values == [total_distance(p, model) for p in iterates]
    assert trace.iterates is iterates
    assert trace.objective_values is trace.objective_values


class TestLazyTrace:
    @pytest.mark.parametrize("method", ["q", "r"])
    def test_reference_and_random_simplices(self, five_model, method):
        point, trace = fermat_point(five_model, method=method)
        _assert_lazy_trace(five_model, trace, point, method=method)
        rng = np.random.default_rng(77)
        for k in range(20):
            n = 2 + k % 7
            model = SimplexModel(rng.standard_normal((n + 1, n)))
            start = random_interior_point(rng, n)
            point, trace = fermat_point(model, start=start, method=method)
            _assert_lazy_trace(model, trace, point, method=method)

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    @pytest.mark.parametrize("method", ["q", "r"])
    def test_budget_exits(self, five_model, method, max_iter):
        with pytest.raises(MaxIterationsExceeded) as info:
            fermat_point(five_model, method=method, max_iter=max_iter)
        assert info.value.trace.reason == "out of budget"
        _assert_lazy_trace(five_model, info.value.trace, max_iter=max_iter, method=method)

    def test_stall_exit(self, five_model, monkeypatch):
        # the restart stalls too: its point ends the trace
        monkeypatch.setattr(fermat, "_newton", lambda *args: ([], 1, "stalled", None))
        with pytest.raises(MaxIterationsExceeded) as info:
            fermat_point(five_model)
        assert (info.value.trace.reason, info.value.trace.iterations_used) == ("stalled", 2)
        _assert_lazy_trace(five_model, info.value.trace)

    def test_vertex_optimum(self):
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1.95]))
        point, trace = fermat_point(model)
        assert trace.reason == "vertex optimum"
        _assert_lazy_trace(model, trace, point)

    def test_catalog_traces_read_empty(self, five_model):
        catalog = enumerate_isogonic(five_model)
        assert catalog.traces
        for trace in catalog.traces + catalog.failed_seeds:
            assert trace.iterates == [] and trace.objective_values == []


# two runs of tests/probe.py's default set that stalled near a vertex whose
# pull only just fails Kuhn's test: (vertices, probe index k, whose
# default_rng((78, k)) draws the Dirichlet start, method, steps before the
# stall, and the steps and evaluations of the whole solve)
STALLS = {
    "tetrahedra-73": ([[0.061025420582712334, 0.4804076135378379, 1.1917261875157645],
                       [0.45960070996772645, -1.0229479385930738, -0.2701487698644386],
                       [0.7593773989000225, -0.18366983287237906, 1.2888462218693157],
                       [0.27956309751922287, 0.24646248326792497, 1.2623425159323896]],
                      314, "q", 8, (15, 113)),
    "tetrahedra-168": ([[0.14831615920516072, -0.11638366726570919, -0.5734873035821089],
                        [-0.4081021846515626, -0.695078239050226, -1.545727407708353],
                        [0.37138716354097184, -0.952340230297456, -0.08043102921999797],
                        [0.3326815738848308, 0.10357040907326022, -0.7252267610453408]],
                       409, "r", 4, (9, 90)),
}


class TestStallRestart:
    @pytest.mark.parametrize("name", STALLS)
    def test_a_stall_near_a_vertex_restarts(self, name):
        vertices, k, method, before, counts = STALLS[name]
        model = SimplexModel(vertices)
        start = np.random.default_rng((78, k)).dirichlet(np.ones(4))
        point, trace = fermat_point(model, start, method)
        assert trace.converged
        assert (trace.iterations_used, trace.gradient_evaluations) == counts
        _assert_lazy_trace(model, trace, point, method=method)
        # the first Newton run stalls, and the solve restarts on the ray out
        # of the nearest vertex, where the distance sum stops falling
        first = fermat._newton(model, np.ones(4), trace.iterates[1].normalized_coords,
                               fermat._TOL, fermat._MAX_ITER - 1)
        assert (len(first[0]), first[2]) == (before, "stalled")
        y = trace._path[before]
        vertex = int(model._rays(first[0][-1])[1].argmin())
        pull = model._pulls(np.ones(4))[vertex]
        ray = (model._local[vertex] - y) @ pull / np.linalg.norm(pull)
        assert np.linalg.norm(model._local[vertex] - y) == pytest.approx(ray, rel=1e-12)
        assert fermat._signed_gradient(model._local, np.ones(4), y)[0] @ pull <= 0.0
        # to the bits of the solve from the centroid, or within rounding
        gap = model._frame(point) - model._frame(fermat_point(model)[0])
        assert np.linalg.norm(gap) <= 1e-15 * model._local_diameter


class TestModelConstants:
    def test_pulls_match_the_direct_expression(self):
        # the pulls and Kuhn's verdict as formed in one expression from the
        # frame vertices: sigma = +-1 makes (sigma d)/l and sigma (d/l) equal
        rng = np.random.default_rng(31)
        models = [SimplexModel(rng.standard_normal((n + 1, n)))
                  for n in range(1, 9) for _ in range(3)]
        models.append(embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1.95])))
        for model in models:
            local = model._local
            lengths = model._lengths + np.eye(model.n + 1)
            for sigma in _claimed(model.n + 1)[1]:
                direct = (sigma[:, None] * (local[:, None] - local[None])
                          / lengths[..., None]).sum(axis=1)
                assert model._pulls(sigma).tobytes() == direct.tobytes()
                if sigma.min() > 0:
                    optimal = np.flatnonzero(np.linalg.norm(direct, axis=1) <= 1.0)
                    assert model._fermat_vertex == (optimal[0] if optimal.size else None)
        assert models[-1]._fermat_vertex == 0

    def test_unit_edges_are_read_only_and_formed_once(self, count_calls):
        formed = count_calls(vars(SimplexModel)["_unit_edges"], "func")
        model = SimplexModel(golden.FIVE_VERTICES)
        edges = model._unit_edges
        with pytest.raises(ValueError, match="read-only"):
            edges[0, 1, 0] = 0.0
        enumerate_isogonic(model)
        fermat_point(model)
        assert model._unit_edges is edges and len(formed) == 1
        assert not edges[range(4), range(4)].any()
        assert np.abs(np.linalg.norm(edges, axis=2) + np.eye(4) - 1.0).max() <= 1e-15

    @pytest.mark.parametrize("model, vertex", [
        (lambda: SimplexModel(golden.FIVE_VERTICES), None),
        (lambda: embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1, 1, 1.95])), 0),
    ], ids=["five", "obtuse-triangle"])
    def test_kuhn_test_decided_once_per_model(self, count_calls, model, vertex):
        decided = count_calls(vars(SimplexModel)["_fermat_vertex"], "func")
        model = model()
        interior = np.arange(1.0, model.n + 2)
        for start in (None, interior):
            for method in ("q", "r"):
                _, trace = fermat_point(model, start, method)
                assert trace.vertex_optimum == (vertex is not None)
        assert len(decided) == 1 and model._fermat_vertex == vertex


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
