import itertools
import math

import numpy as np
import pytest

import golden
import probe
from abtime import _workloads
from conftest import (COLLAPSED, KUHN_TETRAHEDRON, kuhn_critical_model, make_random_model,
                      random_nonzero_point)

import simplexcenters
from simplexcenters import (
    REASONS,
    AtVertex,
    BarycentricPoint,
    Degenerate,
    EdgeLengthTable,
    MaxIterationsExceeded,
    SimplexModel,
    ZeroCoordinate,
    antipedal_simplex,
    classical_centers,
    default_seeds,
    embed_from_edge_lengths,
    enumerate_isogonic,
    equiareal_deviation,
    facet_volumes_of_points,
    fermat_point,
    inversive_image,
    is_isogonic,
    isodynamic_points,
    isogonal_conjugate,
    pedal_simplex,
    triad_angle_check,
)
from simplexcenters import fermat, isogonic
from simplexcenters.barycentric import _zero_entries, as_point


class TestIsogonalConjugate:
    def test_centroid_maps_to_symmedian(self, five_model):
        g = BarycentricPoint([1, 1, 1, 1])
        conj = isogonal_conjugate(g, five_model)
        k = classical_centers(five_model)["K"]
        assert np.abs(conj.normalized_coords - k.normalized_coords).max() < 1e-13

    def test_incenter_self_conjugate(self, five_model):
        i = classical_centers(five_model)["I"]
        conj = isogonal_conjugate(i, five_model)
        assert np.abs(conj.normalized_coords - i.normalized_coords).max() < 1e-13

    def test_involution(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = 2 + trial % 3
            model = make_random_model(rng, n)
            p = BarycentricPoint(random_nonzero_point(rng, n))
            back = isogonal_conjugate(isogonal_conjugate(p, model), model)
            assert np.abs(back.normalized_coords
                          - p.normalized_coords).max() <= 1e-12

    def test_table_pairing(self, five_model):
        # the conjugate of each equiareal-pedal point is the corresponding
        # isogonic point; facet volumes validated by the cross-product oracle
        oracle = golden.facet_areas_cross(golden.FIVE_VERTICES)
        assert np.abs(five_model.facet_volumes / oracle - 1).max() < 1e-12
        for k in range(5):
            conj = isogonal_conjugate(
                BarycentricPoint(golden.CONJUGATE_TABLE[k]), five_model)
            assert np.abs(conj.normalized_coords
                          - golden.ISOGONIC_TABLE[k]).max() < 1e-8

    def test_zero_coordinate_rejected(self, five_model):
        with pytest.raises(ZeroCoordinate):
            isogonal_conjugate(BarycentricPoint([1, 0, 1, 1]), five_model)

    def test_subnormal_direction(self):
        # a_i^2 / p_i overflows on these entries; the conjugate is that of
        # [1 : -2 : 1], and a catalog seeded with it runs that start
        model = SimplexModel([[0, 0], [4, 0], [1, 3]])
        subnormal, unit = [1e-310, -2e-310, 1e-310], [1.0, -2.0, 1.0]
        conj = isogonal_conjugate(subnormal, model)
        assert np.abs(conj.normalized_coords
                      - isogonal_conjugate(unit, model).normalized_coords).max() <= 1e-12
        traces = [enumerate_isogonic(model, seeds=[seed]).failed_seeds[-1]
                  for seed in (subnormal, unit)]
        assert [(t.reason, t.iterations_used) for t in traces] == [("stalled", 10)] * 2

    def test_directions_keep_their_conjugates_bits(self):
        # scaling a direction by a power of two before the map leaves a
        # finite conjugate's bits as the plain a_i^2 / p_i gives them
        rng = np.random.default_rng(4110)
        for n in range(2, 6):
            model = make_random_model(rng, n)
            for exponent in range(-290, 291, 10):
                p = rng.uniform(0.5, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
                p[-1] -= p.sum()
                p *= 10.0 ** exponent
                assert not BarycentricPoint(p).is_finite()
                if not np.count_nonzero(_zero_entries(p)):
                    plain = BarycentricPoint(model._facets ** 2 / p)
                    assert isogonal_conjugate(p, model).coords.tobytes() == plain.coords.tobytes()


# a tetrahedron whose class (+, -, +, -) has a pseudo-root far out
FAR_PSEUDO_ROOT = [[-0.117334, 1.194104, -0.930726],
                   [-2.043466, -2.048336, 2.213690],
                   [-1.827079, 2.301102, -2.075163],
                   [-0.584854, -0.731705, 0.349025]]
# that pseudo-root, 1.5e7 diameters from vertex 0
FAR_POINT = [11116095.85, -11116095.20, 11116095.91, -11116095.56]

# a tetrahedron on which one catalog start takes all its Newton steps
BUDGET_TETRAHEDRON = [[-1.2, 0.71, 0.05], [0.28, 0.63, 0.72],
                      [1.74, -0.07, -0.26], [-0.96, 0.25, 0.26]]

# a tetrahedron whose catalog once missed its Fermat point, which lies near
# vertex 1; four of its starts stall, and their line searches often reject
# the whole step
STALL_TETRAHEDRON = [[-0.008775, 0.306069, 1.271732],
                     [-1.087569, -0.140184, -0.296931],
                     [-2.010313, -0.678083, -1.609774],
                     [0.101443, -0.204785, 0.277038]]

# the corner tetrahedron, whose isogonic point [-1 : 1 : 1 : 1] has its
# conjugate at infinity
CORNER_TETRAHEDRON = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.fixture(scope="module")
def probe_simplices() -> dict[str, np.ndarray]:
    """The vertices of ``tests/probe.py``'s probe set up to tetrahedra-461
    and four-9 (the benchmark's inputs at seed 1 among them), and of the
    reference and the corner tetrahedron, by label."""
    simplices = dict(probe.probe_set({"triangles": 0, "tetrahedra": 462, "four": 10, "five": 0}))
    simplices["reference"] = np.array(golden.FIVE_VERTICES, dtype=float)
    simplices["corner"] = np.array(CORNER_TETRAHEDRON, dtype=float)
    return simplices


def _in_labels(catalog, order) -> np.ndarray:
    """The normalized coordinates of the catalog's points on the vertices
    taken in ``order``, mapped back to the original labels."""
    points = np.zeros((len(catalog), len(order)))
    for row, point in zip(points, catalog.isogonic_points):
        row[list(order)] = point.normalized_coords
    return points


def _same_points(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """Whether each point of either set lies within ``tol`` of one of the other."""
    if len(a) != len(b):
        return False
    gaps = np.abs(a[:, None] - b[None]).max(axis=2)
    return len(a) == 0 or bool(gaps.min(axis=0).max() <= tol and gaps.min(axis=1).max() <= tol)


def _far_seed(model: SimplexModel) -> BarycentricPoint:
    """The conjugate of a point 1e8 diameters out along sum_i sigma_i A_i
    for sigma = (+, -, +, -), where |g_sigma| decays like 1/|x|^2."""
    w = np.array([1, -1, 1, -1]) @ model.vertices
    far = model.vertices[0] + 1e8 * model.diameter * w / np.linalg.norm(w)
    return isogonal_conjugate(model.cart_to_bary(far), model)


def _sides(*degrees):
    """Edge lengths [d01, d02, d12] of the triangle with these angles at
    vertices 0, 1 and 2."""
    a, b, c = np.sin(np.radians(degrees))
    return [c, b, a]


class TestEnumerateIsogonic:
    def test_five_tetrahedron_full_catalog(self, five_model):
        catalog = enumerate_isogonic(five_model)
        assert len(catalog) == 5
        for k in range(5):
            assert np.abs(catalog.conjugate_points[k].normalized_coords
                          - golden.CONJUGATE_TABLE[k]).max() < 1e-9
            assert np.abs(catalog.isogonic_points[k].normalized_coords
                          - golden.ISOGONIC_TABLE[k]).max() < 1e-9
            assert abs(catalog.pedal_areas[k]
                       / golden.PEDAL_AREA_TABLE[k] - 1) < 1e-6
            assert abs(catalog.antipedal_areas[k]
                       / golden.ANTIPEDAL_AREA_TABLE[k] - 1) < 1e-6

    def test_a_near_vertex_start_finds_a_second_root_in_its_class(self, probe_simplices):
        # class (1, 1, 1, -1) of the benchmark's gauss-n3-2 tetrahedron has
        # two roots; in every vertex order, a further start finds one or
        # both, and each such start lies _NEAR_VERTEX diameters from a vertex
        for order in itertools.permutations(range(4)):
            model = SimplexModel(probe_simplices["gauss-n3-2"][list(order)])
            catalog = enumerate_isogonic(model)
            signs = [tuple(np.sign(row)) for row in _in_labels(catalog, order)]
            assert len(signs) == 6 and signs.count((1, 1, 1, -1)) == 2
            defaults = [s.coords.tobytes() for s in default_seeds(model)]
            further = [t.seed for t, sign in zip(catalog.traces, signs)
                       if sign == (1, 1, 1, -1) and t.seed.coords.tobytes() not in defaults]
            assert further
            for seed in further:
                start = model.bary_to_cart(isogonal_conjugate(seed, model))
                radii = np.linalg.norm(model.vertices - start, axis=1) / model.diameter
                assert np.abs(radii[:, None] - isogonic._NEAR_VERTEX).min() <= 1e-9

    def test_segment_stalls_on_a_singular_jacobian(self):
        # on a line the Jacobian of g_sigma vanishes: the all-positive start
        # stops at once, and the one-negative seeds have no finite conjugate
        catalog = enumerate_isogonic(SimplexModel([[0.0], [1.0]]))
        assert len(catalog) == 0
        assert [(t.reason, t.iterations_used) for t in catalog.failed_seeds] == [
            ("stalled", 0), ("rejected", 0), ("rejected", 0)]

    def test_benchmark_anchor_iteration_counts(self, five_model):
        # the per-seed Newton steps and Fermat iteration counts of the
        # benchmark anchor; every class balances after its seed
        catalog = enumerate_isogonic(five_model)
        used = {t.seed.normalized_coords.tobytes(): t.iterations_used
                for t in catalog.traces + catalog.failed_seeds}
        assert len(used) == 5
        assert [used[s.normalized_coords.tobytes()] for s in default_seeds(five_model)] \
            == [5, 8, 6, 5, 6]
        assert [fermat_point(five_model, method=m)[1].iterations_used
                for m in ("q", "r")] == [5, 5]

    def test_anchor_gradient_evaluations(self, five_model):
        # evaluations of g_sigma next to the Newton steps pinned above
        catalog = enumerate_isogonic(five_model)
        used = {t.seed.normalized_coords.tobytes(): t.gradient_evaluations
                for t in catalog.traces + catalog.failed_seeds}
        assert [used[s.normalized_coords.tobytes()] for s in default_seeds(five_model)] \
            == [4, 10, 6, 5, 6]
        assert [fermat_point(five_model, method=m)[1].gradient_evaluations
                for m in ("q", "r")] == [4, 4]

    def test_stall_tetrahedron_counts(self, count_calls):
        # the batched halvings run here, and each start reads (reason,
        # Newton steps, evaluations) as the one-at-a-time search counts them
        calls = count_calls(fermat, "_signed_gradient")
        catalog = enumerate_isogonic(SimplexModel(STALL_TETRAHEDRON))
        assert [args for args in calls if args[2].ndim == 2]
        assert [(t.reason, t.iterations_used, t.gradient_evaluations)
                for t in catalog.failed_seeds] == [
            ("stalled", 9, 63), ("stalled", 14, 77), ("stalled", 13, 77),
            ("stalled", 2, 32)]
        assert [(t.reason, t.iterations_used, t.gradient_evaluations)
                for t in catalog.traces] == [("converged", 9, 10)]

    def test_stall_tetrahedron_evaluation_budget(self, count_calls):
        # a halving step reads g_sigma, J and M at its point from the pass
        # that measured it, and a step after one that took t <= 1/8 tries
        # all twelve fractions in one pass; the one-point gradient runs 33
        # times here, 68 if each such point were evaluated anew
        calls = count_calls(fermat, "_signed_gradient")
        enumerate_isogonic(SimplexModel(STALL_TETRAHEDRON))
        points = [args[2] for args in calls]
        assert len([x for x in points if x.ndim == 1]) <= 40
        assert 12 in [len(x) for x in points if x.ndim == 2]

    def test_deflated_starts_evaluation_budget(self, probe_simplices, monkeypatch, count_calls):
        # class (1, 1, 1, -1) of gauss-n3-2 has two roots, so its later
        # starts are deflated; such a start forms M alone at its first point
        # and at each full step it tries, at most its Newton steps plus two,
        # and reads M at every halving from the pass that measured it
        newton = isogonic._newton
        deflated = []

        def recorded(model, sigma, start, tol, steps, roots):
            run = newton(model, sigma, start, tol, steps, roots)
            if roots:
                deflated.append(len(run[0]))
            return run

        monkeypatch.setattr(isogonic, "_newton", recorded)
        deflations = count_calls(fermat, "_deflation")
        enumerate_isogonic(SimplexModel(probe_simplices["gauss-n3-2"]))
        points = [args[0] for args in deflations]
        assert len(deflated) >= 10
        assert 0 < len([x for x in points if x.ndim == 1]) <= sum(steps + 2 for steps in deflated)
        assert [x for x in points if x.ndim == 2]

    @pytest.mark.parametrize("vertices, evaluations", [
        (golden.FIVE_VERTICES, 29), (STALL_TETRAHEDRON, 33)], ids=["reference", "stall"])
    def test_one_point_evaluations_of_a_catalog(self, monkeypatch, vertices, evaluations):
        # each root's index sign det J comes from Newton's last Jacobian, so
        # the degree balance evaluates nothing; counted through isogonic's
        # name too, should it import the kernel, and a line-search pass's
        # stack of points apart from the one-point calls
        calls = []
        original = fermat._signed_gradient

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fermat, "_signed_gradient", counted)
        monkeypatch.setattr(isogonic, "_signed_gradient", counted, raising=False)
        enumerate_isogonic(SimplexModel(vertices))
        assert len([args for args in calls if args[2].ndim == 1]) == evaluations
        assert [args for args in calls if args[2].ndim == 2]

    def test_each_antipedal_figure_is_measured_once(self, five_model, count_calls):
        # a root is accepted on its antipedal facet volumes, and the
        # catalog's areas are those volumes
        calls = count_calls(isogonic, "_antipedal_points")
        catalog = enumerate_isogonic(five_model)
        assert len(calls) == len(catalog) == 5
        for k in range(5):
            assert abs(catalog.antipedal_areas[k]
                       / golden.ANTIPEDAL_AREA_TABLE[k] - 1) < 1e-6

    @pytest.mark.parametrize("label, points, runs",
                             [("five-isogonic", 14, 5), ("gauss-n2-0", 8, 2)])
    def test_points_formed_and_newton_runs_per_catalog(self, count_calls, label, points, runs):
        # on a benchmark input, a catalog forms as points each seed, each
        # conjugate that starts Newton, and each root with its conjugate: a
        # triangle's seeds come from the incenter's coordinates, and a
        # tetrahedron's seeds, the sign patterns, are formed once per
        # dimension, by the first call; its Fermat solve starts at the centroid
        cases = _workloads().WORKLOADS["isogonic-catalog"](simplexcenters, 1, "tiny").cases
        [model] = [case.args[0] for case in cases if case.label == label]
        enumerate_isogonic(model)
        formed = count_calls(BarycentricPoint, "__post_init__")
        newton = count_calls(isogonic, "_newton"), count_calls(fermat, "_newton")
        catalog = enumerate_isogonic(model)
        assert (len(formed), sum(map(len, newton))) == (points, runs)
        assert len(catalog) == runs and not catalog.failed_seeds

    def test_canonical_ordering(self, five_model):
        catalog = enumerate_isogonic(five_model)
        first = catalog.isogonic_points[0].normalized_coords
        assert np.all(first > 0)
        for k in range(1, 5):
            coords = catalog.isogonic_points[k].normalized_coords
            neg = np.flatnonzero(coords < 0)
            assert neg.size == 1 and neg[0] == k - 1

    def test_regular_tetrahedron_contains_center(self, regular_tetrahedron):
        catalog = enumerate_isogonic(regular_tetrahedron)
        assert len(catalog) >= 1
        assert np.abs(catalog.isogonic_points[0].normalized_coords - 0.25).max() < 1e-9
        # every returned point genuinely verifies
        for f in catalog.isogonic_points:
            ok, dev = is_isogonic(f, regular_tetrahedron)
            assert ok and dev <= 1e-9, dev

    def test_regular_tetrahedron_exterior_family(self, regular_tetrahedron):
        # besides the center, the default seeds find four exterior isogonic
        # points; on the symmetry axes they take the exact rational form
        # [-3 : 5 : 5 : 5] with equiareal-pedal partner [-5 : 3 : 3 : 3]
        catalog = enumerate_isogonic(regular_tetrahedron)
        assert len(catalog) == 5
        for k in range(1, 5):
            expected_f = np.full(4, 5.0)
            expected_f[k - 1] = -3.0
            expected_f /= expected_f.sum()
            assert np.abs(catalog.isogonic_points[k].normalized_coords
                          - expected_f).max() < 1e-9
            expected_l = np.full(4, 3.0)
            expected_l[k - 1] = -5.0
            expected_l /= expected_l.sum()
            assert np.abs(catalog.conjugate_points[k].normalized_coords
                          - expected_l).max() < 1e-9
        # and the exact rational points themselves verify to near machine level
        exact_l = BarycentricPoint([-5.0, 3.0, 3.0, 3.0])
        assert equiareal_deviation(
            pedal_simplex(exact_l, regular_tetrahedron)) < 1e-12
        exact_f = BarycentricPoint([-3.0, 5.0, 5.0, 5.0])
        ok, dev = is_isogonic(exact_f, regular_tetrahedron)
        assert ok and dev <= 1e-12, dev

    def test_triangle_two_points_positive_is_fermat(self, gap_triangle):
        catalog = enumerate_isogonic(gap_triangle)
        assert len(catalog) == 2
        interior = catalog.isogonic_points[0].normalized_coords
        assert np.all(interior > 0)
        fermat, _ = fermat_point(gap_triangle)
        assert np.abs(interior - fermat.normalized_coords).max() < 1e-8

    @pytest.mark.parametrize("triangle, seeds", [
        ("gap_triangle", 2),
        (_sides(1.48, 1.48, 177.04), 2),
        (_sides(120.5, 30.0, 29.5), 2),
        (_sides(60.3, 59.8, 59.9), 2),
        # X(16) is already a root of g_sigma, where Newton cannot lower it
        (_sides(59.99354427986009, 59.9995813811239, 60.00687433901601), 2),
        ([3.0, 4.0, 5.0], 2),
        ("equilateral_triangle", 1),
    ], ids=["gap", "near-flat", "near-120", "near-equilateral",
            "within-0.007-of-equilateral", "3-4-5", "equilateral"])
    def test_triangle_catalog_conjugates_are_isodynamic(self, triangle, seeds, request):
        model = (request.getfixturevalue(triangle) if isinstance(triangle, str)
                 else embed_from_edge_lengths(EdgeLengthTable.from_flat(2, triangle)))
        catalog = enumerate_isogonic(model)
        result = isodynamic_points(classical_centers(model)["I"], model)
        found = [isogonal_conjugate(j, model).normalized_coords
                 for j in result.points]
        for f in catalog.isogonic_points:
            best = min(np.abs(f.normalized_coords - c).max() for c in found)
            assert best < 1e-8
            anti = antipedal_simplex(f, model).vertices
            sides = [np.linalg.norm(anti[a] - anti[b])
                     for a, b in itertools.combinations(range(3), 2)]
            assert (max(sides) - min(sides)) / np.mean(sides) <= 1e-8
        assert catalog.failed_seeds == []
        assert len(default_seeds(model)) == seeds
        assert all(t.reason in REASONS for t in catalog.traces + catalog.failed_seeds)
        assert len(catalog.traces) + len(catalog.failed_seeds) == seeds

    def test_all_points_verify(self, five_model):
        catalog = enumerate_isogonic(five_model)
        for pt in catalog.conjugate_points:
            assert equiareal_deviation(pedal_simplex(pt, five_model)) <= 1e-7
        for f in catalog.isogonic_points:
            ok, deviation = is_isogonic(f, five_model)
            assert ok and deviation <= 1e-7

    def test_deduplication(self, five_model):
        # feeding near-duplicate seeds must not duplicate catalog entries
        catalog = enumerate_isogonic(
            five_model,
            seeds=[[1, 1, 1, 1], [1.0001, 1, 1, 1], [0.26, 0.28, 0.22, 0.24]])
        assert len(catalog) == 5
        for a, b in itertools.combinations(range(5), 2):
            gap = np.abs(catalog.isogonic_points[a].normalized_coords
                         - catalog.isogonic_points[b].normalized_coords).max()
            assert gap > 1e-6

    def test_duplicate_seeds_are_failed_seeds(self, five_model):
        # the three seeds start in the all-positive class, whose one root
        # the Fermat seed found first; deflated against it, each run stops
        # short and is a failed seed, so every seed is in the traces or the
        # failed seeds
        seeds = [[1, 1, 1, 1], [1.0001, 1, 1, 1], [0.26, 0.28, 0.22, 0.24]]
        catalog = enumerate_isogonic(five_model, seeds=seeds)
        assert len(catalog) == len(catalog.traces) == 5
        assert [t.reason for t in catalog.failed_seeds] == ["stalled"] * 3
        for trace, seed in zip(catalog.failed_seeds, seeds):
            assert np.array_equal(trace.seed.coords, BarycentricPoint(seed).coords)

    def test_seed_at_a_known_root_is_a_failed_seed(self, gap_triangle):
        # a seed given twice starts within rounding of the root it found the
        # first time, where the deflation has its pole and turns Newton's
        # last step around
        seed = default_seeds(gap_triangle)[0]
        catalog = enumerate_isogonic(gap_triangle, seeds=[seed])
        assert len(catalog) == 2
        assert [t.reason for t in catalog.failed_seeds] == ["stalled"]

    def test_repeated_calls_are_bitwise_equal(self, five_model):
        first, second = enumerate_isogonic(five_model), enumerate_isogonic(five_model)
        assert [p.coords.tobytes() for p in first.isogonic_points] \
            == [p.coords.tobytes() for p in second.isogonic_points]
        assert first.pedal_areas == second.pedal_areas

    def test_far_pseudo_root_rejected(self):
        # in the sign class (+, -, +, -) |g_sigma| decays like 1/|x|^2 along
        # one direction, so far out it is at the level of rounding; the
        # catalog holds the one all-positive point and nothing far out
        model = SimplexModel(FAR_PSEUDO_ROOT)
        catalog = enumerate_isogonic(model)
        assert len(catalog) == 1
        assert np.abs(catalog.isogonic_points[0].normalized_coords).max() < 1

    @pytest.mark.parametrize("offset", [1e8, 1e10, 1e12], ids=["1e8", "1e10", "1e12"])
    def test_far_translated_simplex(self, offset):
        # the search runs in the model's frame, vertex 0 at the origin
        catalog = enumerate_isogonic(SimplexModel(golden.FIVE_VERTICES + offset))
        assert len(catalog) == 5
        for k in range(5):
            assert np.abs(catalog.isogonic_points[k].normalized_coords
                          - golden.ISOGONIC_TABLE[k]).max() < 1e-9

    def test_fermat_point_is_the_positive_point(self):
        # the map from the centroid missed the Fermat point of this
        # tetrahedron, and the catalog was empty
        model = SimplexModel(STALL_TETRAHEDRON)
        catalog = enumerate_isogonic(model)
        fermat, _ = fermat_point(model)
        assert len(catalog) >= 1
        first = catalog.isogonic_points[0]
        assert np.abs(first.normalized_coords - fermat.normalized_coords).max() <= 1e-10
        assert is_isogonic(first, model)[0]

    def test_every_seed_is_accounted_for_near_a_zero_coordinate_sum(self):
        # a seed of this tetrahedron once ended where the coordinate sum
        # rounds to zero, and the catalog raised PointAtInfinity
        model = SimplexModel([
            [-0.7597485546982828, -0.03252294487587042, -0.01805508335382325],
            [3.6644468631668214, -0.5105178194576714, 1.2460322419563814],
            [0.40658745808193825, -0.0917578410402191, 0.4082240966626889],
            [0.3584046464660922, -0.03180264480253405, -0.24947858283349625]])
        catalog = enumerate_isogonic(model)
        assert len(catalog) == 1
        traced = {t.seed.coords.tobytes() for t in catalog.traces + catalog.failed_seeds}
        assert {s.coords.tobytes() for s in default_seeds(model)} <= traced

    def test_far_root_is_an_escaped_seed(self):
        # a seed whose conjugate is a root to rounding, beyond the escape
        # radius
        model = SimplexModel(FAR_PSEUDO_ROOT)
        seed = _far_seed(model)
        catalog = enumerate_isogonic(model, seeds=[seed])
        assert len(catalog) == 1
        last = catalog.failed_seeds[-1]
        assert last.reason == "escaped"
        assert np.array_equal(last.seed.coords, seed.coords)

    def test_refused_root_keeps_its_trace(self, five_model, monkeypatch):
        # with every root refused, no class balances: each seed's trace is
        # a failed seed, and so is each further start of its class
        def unbounded(p, model):
            raise ZeroCoordinate("refused")

        monkeypatch.setattr(isogonic, "_antipedal_points", unbounded)
        catalog = enumerate_isogonic(five_model)
        seeds = default_seeds(five_model)
        assert len(catalog) == 0
        assert len(catalog.failed_seeds) > len(seeds)
        assert all(t.reason in REASONS for t in catalog.failed_seeds)
        reasons = {t.seed.coords.tobytes(): t.reason for t in catalog.failed_seeds}
        assert [reasons.get(s.coords.tobytes()) for s in seeds] == ["rejected"] * len(seeds)

    @pytest.mark.parametrize("refusal", ["sign-pattern", "antipedal-spread"])
    def test_refused_root_is_a_rejected_seed(self, gap_triangle, monkeypatch, refusal):
        # both starts converge, and each root is refused: it is the isogonic
        # point of the other start's sign class, or its antipedal facets are
        # unequal
        found = enumerate_isogonic(gap_triangle).isogonic_points
        runs = []

        def newton(model, sigma, *args):
            path, evaluations, reason, jac = fermat._newton(model, sigma, *args)
            runs.append((len(path), evaluations))
            if refusal == "sign-pattern":
                other = next(p for p in found if abs(np.sign(p.coords) @ sigma) < len(sigma))
                path = path[:-1] + [model._frame(other)]
            return path, evaluations, reason, jac

        def unequal(points):
            volumes = facet_volumes_of_points(points)
            volumes[..., 0] *= 2.0
            return volumes

        monkeypatch.setattr(isogonic, "_newton", newton)
        if refusal == "antipedal-spread":
            monkeypatch.setattr(isogonic, "facet_volumes_of_points", unequal)
        catalog = enumerate_isogonic(gap_triangle)
        assert len(catalog) == 0 and len(runs) == 2
        assert [(t.reason, t.iterations_used, t.gradient_evaluations)
                for t in catalog.failed_seeds] == [("rejected", *run) for run in runs]

    def test_conjugate_at_infinity_is_a_failed_seed(self):
        # [9 : 5 : -4] lies on the circumcircle, so its conjugate lies at
        # infinity and no Newton run starts from it
        model = SimplexModel([[0, 0], [4, 0], [1, 3]])
        catalog = enumerate_isogonic(model, seeds=[[9, 5, -4]])
        assert len(catalog) == len(enumerate_isogonic(model)) == 2
        last = catalog.failed_seeds[-1]
        assert last.reason == "rejected" and last.iterations_used == 0
        assert np.array_equal(last.seed.coords, [0.9, 0.5, -0.4])


    def test_corner_tetrahedron_keeps_a_root_with_a_conjugate_at_infinity(self):
        # on (0, e1, e2, e3) the isogonic point [-1 : 1 : 1 : 1] has the
        # conjugate [-3 : 1 : 1 : 1], a direction: its pedal area is
        # undefined, and the catalog keeps it and the other four points
        model = SimplexModel(CORNER_TETRAHEDRON)
        catalog = enumerate_isogonic(model)
        assert len(catalog) == 5
        assert [q.is_finite() for q in catalog.conjugate_points] == [True, False, True, True, True]
        assert np.abs(catalog.isogonic_points[1].report_scaled() - [1, -1, -1, -1]).max() <= 1e-12
        assert np.abs(catalog.conjugate_points[1].coords / catalog.conjugate_points[1].coords[1]
                      - [-3, 1, 1, 1]).max() <= 1e-12
        assert math.isnan(catalog.pedal_areas[1])
        assert all(math.isfinite(a) and a > 0 for a in
                   catalog.antipedal_areas + catalog.pedal_areas[:1] + catalog.pedal_areas[2:])
        for point in catalog.isogonic_points:
            assert is_isogonic(point, model)[0]
        for q, area in zip(catalog.conjugate_points[2:], catalog.pedal_areas[2:]):
            pedal = pedal_simplex(q, model)
            assert equiareal_deviation(pedal) <= 1e-9
            assert pedal.facet_volumes.mean() == pytest.approx(area, rel=1e-12)

    def test_each_root_is_measured_in_one_volume_pass(self, five_model, count_calls):
        # a root's antipedal figure and its conjugate's pedal figure are
        # measured together, once the root passes the sign, escape and
        # bounded-antipedal tests
        calls = count_calls(isogonic, "facet_volumes_of_points")
        catalog = enumerate_isogonic(five_model)
        assert len(calls) == len(catalog) == 5
        assert [np.shape(args[0]) for args in calls] == [(2, 4, 3)] * 5


def _antipedal_facet_areas(vertices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Facet areas of the antipedal tetrahedron of x, without the library.

    Facet i lies in the plane through vertex i perpendicular to x - A_i;
    corner j is where the three facet planes other than j meet.
    """
    normals = x - vertices
    offsets = np.einsum("ij,ij->i", normals, vertices)
    corners = np.array([np.linalg.solve(np.delete(normals, j, axis=0),
                                        np.delete(offsets, j)) for j in range(4)])
    return golden.facet_areas_cross(corners)


def _claimed_classes(m: int) -> list[np.ndarray]:
    return [np.ones(m)] + [np.where(np.arange(m) == k, -1.0, 1.0) for k in range(m)]


def _degree_terms(vertices: np.ndarray, sigma: np.ndarray, points: list[np.ndarray]):
    """The index sign det J_sigma of each root, the vertex term
    sum_{|c_k| < 1} sigma_k^n and sign(S)^n, computed without the library."""
    n = vertices.shape[1]
    indices = []
    for p in points:
        gaps = vertices.T @ p - vertices
        dist = np.linalg.norm(gaps, axis=1)
        jac = sum(s / d * (np.eye(n) - np.outer(g, g) / d ** 2)
                  for s, d, g in zip(sigma, dist, gaps))
        indices.append(int(np.sign(np.linalg.det(jac))))
    vertex = 0
    for k in range(n + 1):
        pull = sum(sigma[i] * (vertices[k] - vertices[i])
                   / np.linalg.norm(vertices[k] - vertices[i])
                   for i in range(n + 1) if i != k)
        assert abs(np.linalg.norm(pull) - 1.0) > 1e-6   # the class is certified
        vertex += int(sigma[k] ** n) * (np.linalg.norm(pull) < 1.0)
    return indices, vertex, int(np.sign(sigma.sum())) ** n


@pytest.mark.parametrize("fixture", ["five_model", "regular_tetrahedron",
                                     FAR_PSEUDO_ROOT, "gap_triangle"],
                         ids=["reference", "regular", "far-pseudo-root", "gap-triangle"])
def test_degree_balance_holds_in_every_claimed_class(fixture, request):
    # sum_roots sign det J_sigma + sum_{|c_k| < 1} sigma_k^n = sign(S)^n,
    # and each root's index is nonzero, so dropping any root unbalances
    model = (request.getfixturevalue(fixture) if isinstance(fixture, str)
             else SimplexModel(fixture))
    catalog = enumerate_isogonic(model)
    assigned = 0
    for sigma in _claimed_classes(model.n + 1):
        roots = [p.normalized_coords for p in catalog.isogonic_points
                 if abs(np.sign(p.normalized_coords) @ sigma) == model.n + 1]
        assigned += len(roots)
        indices, vertex, target = _degree_terms(model.vertices, sigma, roots)
        assert sum(indices) + vertex == target
        for index in indices:
            assert sum(indices) - index + vertex != target
    assert assigned == len(catalog)


# the tetrahedra whose number of points once depended on the vertex order,
# the reference tetrahedron (five points) and the corner tetrahedron (a
# conjugate at infinity)
ORDER_CASES = ["gauss-n3-2", "tetrahedra-82", "tetrahedra-136", "tetrahedra-175",
               "tetrahedra-443", "tetrahedra-461", "reference", "corner"]


@pytest.mark.parametrize("label", ORDER_CASES)
def test_every_vertex_order_finds_the_same_points(label, probe_simplices):
    # the further starts follow the geometry, so relabeling the vertices
    # relabels the points found and changes none of them beyond rounding
    verts = probe_simplices[label]
    identity, *orders = itertools.permutations(range(4))
    found = _in_labels(enumerate_isogonic(SimplexModel(verts)), identity)
    for order in orders:
        catalog = enumerate_isogonic(SimplexModel(verts[list(order)]))
        assert _same_points(_in_labels(catalog, order), found, 1e-12), order


def test_random_vertex_orders_find_the_same_points(probe_simplices):
    # a random order of each of 50 probe tetrahedra and 10 probe 4-simplices
    rng = np.random.default_rng(4104)
    labels = [f"tetrahedra-{k}" for k in range(50)] + [f"four-{k}" for k in range(10)]
    for label in labels:
        verts = probe_simplices[label]
        found = _in_labels(enumerate_isogonic(SimplexModel(verts)), range(len(verts)))
        order = rng.permutation(len(verts))
        catalog = enumerate_isogonic(SimplexModel(verts[order]))
        assert _same_points(_in_labels(catalog, order), found, 1e-12), (label, order)


def _sequential_newton(model: SimplexModel, sigma: np.ndarray, coords: np.ndarray,
                       tol: float, max_steps: int, roots=(),
                       ) -> tuple[list[np.ndarray], int, str, np.ndarray]:
    """``fermat._newton`` with a line search that tries its 12 step
    fractions one at a time, evaluating g_sigma, J and M at each."""
    local = model._local
    known = np.reshape(roots, (-1, model.n))
    d2 = model._local_diameter ** 2
    tol = tol * model._local_diameter
    x = local.T @ coords
    g, *terms = fermat._signed_gradient(local, sigma, x)
    jac = fermat._jacobian(*terms)
    weight, dlog = fermat._deflation(x, known, d2) if len(known) else (1.0, None)
    evaluations = 1
    path: list[np.ndarray] = []
    ok = False
    for _ in range(max_steps):
        try:
            step = -np.linalg.solve(jac, g)
        except np.linalg.LinAlgError:
            break
        factor = 1.0
        if dlog is not None:
            factor = 1.0 / (1.0 - dlog @ step)
            step = factor * step
        if math.sqrt(step @ step) <= tol:
            x = x + step
            path.append(x)
            ok = factor > 0.0
            break
        merit = weight * math.sqrt(g @ g)
        t = 1.0
        for _ in range(12):
            y = x + t * step
            gy, *terms = fermat._signed_gradient(local, sigma, y)
            jy = fermat._jacobian(*terms)
            wy, dy = fermat._deflation(y, known, d2) if len(known) else (1.0, None)
            evaluations += 1
            if wy * math.sqrt(gy @ gy) <= (1.0 - 1e-4 * t) * merit:
                break
            t *= 0.5
        else:
            ok = merit <= fermat._RESIDUAL
            if ok and not path:
                path.append(x)
            break
        x, g, jac, weight, dlog = y, gy, jy, wy, dy
        path.append(x)
    if ok:
        return path, evaluations, "converged", jac
    return path, evaluations, "out of budget" if len(path) == max_steps else "stalled", jac


def _probe_models() -> list[SimplexModel]:
    """20 Gaussian tetrahedra and 10 Gaussian 4-simplices, none near flat."""
    rng = np.random.default_rng(77)
    models = []
    while len(models) < 30:
        n = 3 if len(models) < 20 else 4
        verts = rng.standard_normal((n + 1, n))
        centred = verts - verts.mean(axis=0)
        gram = np.linalg.eigvalsh(centred.T @ centred)
        if gram[0] > 1e-6 * gram[-1]:
            models.append(SimplexModel(verts))
    return models


def _catalog_bits(catalog) -> tuple:
    return ([p.coords.tobytes() for p in catalog.isogonic_points + catalog.conjugate_points],
            np.array(catalog.pedal_areas + catalog.antipedal_areas).tobytes(),
            [(t.reason, t.iterations_used, t.gradient_evaluations)
             for t in catalog.traces + catalog.failed_seeds])


def _fermat_bits(model: SimplexModel) -> tuple:
    point, trace = fermat_point(model)
    return (point.coords.tobytes(), trace.reason, trace.iterations_used,
            trace.gradient_evaluations)


def test_batched_line_search_matches_the_sequential_one(five_model, monkeypatch):
    # the batched trials accept the halving that the sequential search
    # accepts, so catalogs and Fermat runs agree bit for bit
    models = [five_model, SimplexModel(STALL_TETRAHEDRON)] + _probe_models()
    batched = [(_catalog_bits(enumerate_isogonic(m)), _fermat_bits(m)) for m in models]
    monkeypatch.setattr(isogonic, "_newton", _sequential_newton)
    monkeypatch.setattr(fermat, "_newton", _sequential_newton)
    assert [(_catalog_bits(enumerate_isogonic(m)), _fermat_bits(m)) for m in models] \
        == batched


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("negative", [False, True], ids=["all-positive", "one-negative"])
@pytest.mark.parametrize("roots", [0, 1, 3])
def test_a_line_search_pass_evaluates_each_row_as_one_point(n, negative, roots):
    # every row of a pass, one of them exactly at a vertex, reads from the
    # kernels' stack form what their one-point form gives there, bit for bit
    rng = np.random.default_rng([n, negative, roots])
    vertices = rng.standard_normal((n + 1, n))
    sigma = np.ones(n + 1)
    sigma[n // 2] = -1.0 if negative else 1.0
    known = rng.standard_normal((roots, n))
    d2 = float(np.ptp(vertices, axis=0) @ np.ptp(vertices, axis=0))
    ys = rng.standard_normal(n) + fermat._FRACTIONS[:, None] * rng.standard_normal(n)
    ys[5] = vertices[1]
    gs, units, weights = fermat._signed_gradient(vertices, sigma, ys)
    weights_ys, dlogs = fermat._deflation(ys, known, d2) if roots else (np.ones(12), None)
    # M |g_sigma| per row as _newton forms it, a dot per row
    merits = np.sqrt((gs[:, None] @ gs[..., None])[:, 0, 0]) * weights_ys
    assert len(gs) == len(units) == len(weights) == len(merits) == len(ys) == 12
    for k, y in enumerate(ys):
        g, *terms = fermat._signed_gradient(vertices, sigma, y)
        jac = fermat._jacobian(*terms)
        weight, dlog = fermat._deflation(y, known, d2) if roots else (1.0, None)
        merit = weight * math.sqrt(g @ g)
        assert (gs[k].tobytes(), fermat._jacobian(units[k], weights[k]).tobytes()) == (
            g.tobytes(), jac.tobytes())
        assert (dlogs is None) == (dlog is None) == (roots == 0)
        assert dlog is None or dlogs[k].tobytes() == dlog.tobytes()
        assert weights_ys[k] == weight and merits[k] == merit


def _catalog_trace(model: SimplexModel, seed) -> fermat.SolverTrace:
    """The trace of the start from a caller's seed."""
    catalog = enumerate_isogonic(model, seeds=[seed])
    coords = as_point(seed, model.n).coords
    return next(t for t in catalog.traces + catalog.failed_seeds
                if np.array_equal(t.seed.coords, coords))


def _stopped(call) -> fermat.SolverTrace:
    with pytest.raises(MaxIterationsExceeded) as info:
        call()
    return info.value.trace


# one real input per stop reason
REASON_PATHS = {
    "converged": lambda r: fermat_point(r.getfixturevalue("five_model"))[1],
    "vertex optimum": lambda r: fermat_point(SimplexModel(
        [[0, 0, 0.1], [1, 0, 0], [-0.5, 0.866, 0], [-0.5, -0.866, 0]]))[1],
    "out of budget": lambda r: _stopped(
        lambda: fermat_point(r.getfixturevalue("five_model"), max_iter=3)),
    "stalled": lambda r: _catalog_trace(r.getfixturevalue("five_model"), [1, 2, 3, 4]),
    "escaped": lambda r: _catalog_trace(SimplexModel(FAR_PSEUDO_ROOT),
                                        _far_seed(SimplexModel(FAR_PSEUDO_ROOT))),
    "rejected": lambda r: _catalog_trace(SimplexModel([[0, 0], [4, 0], [1, 3]]), [9, 5, -4]),
}


@pytest.mark.parametrize("reason", REASONS)
def test_every_reason_has_a_path(reason, request):
    assert set(REASON_PATHS) == set(REASONS)
    assert REASON_PATHS[reason](request).reason == reason


class TestStopReason:
    # one rule, in the Newton kernel: "converged" if the run succeeded,
    # "out of budget" if it took every step, "stalled" otherwise
    def test_a_run_cut_by_its_budget(self, five_model):
        for steps in (0, 2):
            path, _, reason, jac = fermat._newton(
                five_model, np.ones(4), np.full(4, 0.25), 1e-12, steps)
            assert (len(path), reason) == (steps, "out of budget")
            if path:
                assert jac.tobytes() == fermat._jacobian(*fermat._signed_gradient(
                    five_model._local, np.ones(4), path[-1])[1:]).tobytes()

    @pytest.mark.parametrize("sigma", [[1.0, 1.0], [1.0, -1.0]])
    def test_a_singular_jacobian_on_a_segment(self, sigma):
        # on a 1-simplex every u_i is +-1, so J = sum_i w_i (1 - u_i^2) = 0
        path, evaluations, reason, jac = fermat._newton(
            SimplexModel([[0.0], [3.0]]), np.array(sigma), np.array([0.3, 0.7]), 1e-12, 30)
        assert (path, evaluations, reason) == ([], 1, "stalled")
        assert jac.tobytes() == np.zeros((1, 1)).tobytes()

    def test_each_root_adds_the_index_of_its_own_jacobian(self, five_model, monkeypatch):
        # the degree balance reads sign det J_sigma from Newton's last
        # Jacobian, which a closing short step leaves one point behind; at
        # every root it is the sign at the root itself
        run = isogonic._run
        added = []

        def recorded(model, sigma, seed, start, roots, indices):
            result, trace = run(model, sigma, seed, start, roots, indices)
            if result is not None:
                added.append((model, sigma, roots[-1], indices[-1]))
            return result, trace

        monkeypatch.setattr(isogonic, "_run", recorded)
        for model in [five_model] + _probe_models():
            enumerate_isogonic(model)
        assert len(added) > 100
        for model, sigma, root, index in added:
            units, weights = fermat._signed_gradient(model._local, sigma, root)[1:]
            assert index == np.sign(np.linalg.det(fermat._jacobian(units, weights)))

    def test_fermat_and_catalog_traces_agree(self, five_model, monkeypatch):
        # the same kind of stop reads the same reason in both traces
        fermat_budget = _stopped(lambda: fermat_point(five_model, max_iter=3))
        catalog_budget = enumerate_isogonic(SimplexModel(BUDGET_TETRAHEDRON)).failed_seeds
        assert (fermat_budget.reason, fermat_budget.iterations_used) == ("out of budget", 3)
        assert [(t.reason, t.iterations_used) for t in catalog_budget] == [("out of budget", 30)]
        catalog_stall = enumerate_isogonic(SimplexModel(STALL_TETRAHEDRON)).failed_seeds
        assert [t.reason for t in catalog_stall] == ["stalled"] * 4
        # no Fermat solve is known to stall past its restart: every Newton run
        # stalls here, the approach step and the restart point are its steps
        monkeypatch.setattr(fermat, "_newton", lambda *args: ([], 1, "stalled", None))
        fermat_stall = _stopped(lambda: fermat_point(five_model))
        assert (fermat_stall.reason, fermat_stall.iterations_used) == ("stalled", 2)


def _catalog_and_fermat_bits(vertices) -> list:
    """Every number and count of a catalog and of both Fermat solves."""
    model = SimplexModel(vertices)
    catalog = enumerate_isogonic(model)
    bits = [p.coords.tobytes() for p in catalog.isogonic_points + catalog.conjugate_points]
    bits += [np.array(catalog.pedal_areas + catalog.antipedal_areas).tobytes()]
    bits += [(t.reason, t.iterations_used, t.gradient_evaluations)
             for t in catalog.traces + catalog.failed_seeds]
    return bits + [fermat_point(model, method=m)[0].coords.tobytes() for m in ("q", "r")]


class TestErrstate:
    # the Newton kernel runs under its own np.errstate(all="ignore"), which
    # leaves the caller's settings as they were, and reads none of them
    def test_the_callers_settings_are_restored(self, five_model):
        before = np.geterr()
        fermat_point(five_model)
        enumerate_isogonic(five_model)
        assert np.geterr() == before
        _stopped(lambda: fermat_point(five_model, max_iter=2))
        assert np.geterr() == before

    @pytest.mark.parametrize("vertices", [golden.FIVE_VERTICES, STALL_TETRAHEDRON],
                             ids=["reference", "stall"])
    def test_same_bits_when_the_caller_raises(self, vertices):
        expected = _catalog_and_fermat_bits(vertices)
        with np.errstate(all="raise"):
            assert _catalog_and_fermat_bits(vertices) == expected


class TestTwoNegativeSignClasses:
    # outside the default catalog: one isogonic point in each of the three
    # two-negative sign classes of the reference tetrahedron, reached by
    # Newton on g_sigma from six-digit approximations
    @pytest.mark.parametrize("approx, area, rel", [
        ([1.359910, 1.618145, -0.927635, -1.050420], 838.6477152929, 1e-11),
        ([1.098618, -0.854507, -0.743995, 1.499884], 200.8771225640, 1e-11),
        ([5.248975, -4.920063, 5.645040, -4.973953], 10578.84, 1e-6),
    ], ids=["F6", "F7", "F8"])
    def test_newton_root_is_isogonic(self, five_model, approx, area, rel):
        vertices = golden.FIVE_VERTICES
        sigma = np.sign(approx)
        path, _, reason, _ = fermat._newton(five_model, sigma,
                                            np.array(approx) / sum(approx), 1e-12, 50)
        assert reason == "converged"
        bary = five_model._coords(path[-1])
        assert np.array_equal(np.sign(bary), sigma)
        x = vertices.T @ bary
        units = (x - vertices) / np.linalg.norm(x - vertices, axis=1)[:, None]
        assert np.linalg.norm(sigma @ units) <= 1e-10
        areas = _antipedal_facet_areas(vertices, x)
        assert np.ptp(areas) / areas.mean() <= 1e-9
        assert areas.mean() == pytest.approx(area, rel=rel)


class TestDefaultSeeds:
    def test_programming_errors_propagate(self, gap_triangle, monkeypatch):
        def broken(p, model):
            raise TypeError("broken")

        monkeypatch.setattr(isogonic, "_common_points", broken)
        with pytest.raises(TypeError):
            default_seeds(gap_triangle)

    @pytest.mark.parametrize("figure", COLLAPSED)
    def test_collapsed_model_has_no_seeds(self, figure, count_calls):
        # refused before any Newton step, as is_isogonic refuses it
        model = COLLAPSED[figure]()
        newton = count_calls(isogonic, "_newton")
        assert model.degenerate
        for search in (default_seeds, enumerate_isogonic):
            with pytest.raises(Degenerate, match="collapsed"):
                search(model)
        assert newton == []

    def test_triangle_seeds_are_the_isodynamic_points(self, gap_triangle,
                                                      equilateral_triangle):
        # bit for bit, with the equilateral center and a seed on a side line
        angle = math.radians(120)
        side_line = SimplexModel([[0, 0], [1, 0], [1.3 * math.cos(angle), 1.3 * math.sin(angle)]])
        for model, count in ((gap_triangle, 2), (side_line, 2), (equilateral_triangle, 1)):
            seeds = default_seeds(model)
            expected = isodynamic_points(model._facets, model).points
            assert len(seeds) == count
            assert [s.coords.tobytes() for s in seeds] == [p.coords.tobytes() for p in expected]

    def test_seed_on_a_side_line_is_rejected(self):
        # with a 120-degree angle one isodynamic point lies on a side line, so
        # its conjugate is a vertex: the catalog records it as a rejected start
        angle = math.radians(120)
        model = SimplexModel([[0, 0], [1, 0], [1.3 * math.cos(angle), 1.3 * math.sin(angle)]])
        seeds = default_seeds(model)
        catalog = enumerate_isogonic(model)
        assert (len(seeds), len(catalog)) == (2, 1)
        [trace] = catalog.failed_seeds
        assert trace.reason == "rejected"
        assert np.array_equal(trace.seed.coords, seeds[0].coords)

    def test_vertex_optimum_keeps_the_centroid(self, five_model):
        # for n >= 3 the seeds are the centroid, where the Fermat solve
        # starts, and its one-negative reflections, also where vertex 0 sits
        # just above the center of the other three, so it minimizes the
        # distance sum
        optimum = SimplexModel([[0, 0, 0.1], [1, 0, 0], [-0.5, 0.866, 0], [-0.5, -0.866, 0]])
        reflections = [[0.5] * k + [-0.5] + [0.5] * (3 - k) for k in range(4)]
        for model in (five_model, optimum):
            assert [list(s.coords) for s in default_seeds(model)] == [[0.25] * 4] + reflections

    def test_the_all_positive_point_has_the_bits_of_fermat_point(self, five_model):
        # the all-positive class runs fermat_point's solve from the centroid,
        # so where the minimizer is interior its point and counts are
        # fermat_point's; Newton from the symmedian point once stalled on
        # STALL_TETRAHEDRON, and 3 of the probe models have a vertex optimum
        interior = 0
        for model in [five_model, SimplexModel(STALL_TETRAHEDRON)] + _probe_models():
            point, trace = fermat_point(model)
            if trace.vertex_optimum:
                continue
            interior += 1
            catalog = enumerate_isogonic(model)
            found = catalog.traces[0]
            assert catalog.isogonic_points[0].coords.tobytes() == point.coords.tobytes()
            assert found.seed.coords.tobytes() == default_seeds(model)[0].coords.tobytes()
            assert (found.reason, found.iterations_used, found.gradient_evaluations) == (
                trace.reason, trace.iterations_used, trace.gradient_evaluations)
        assert interior == 29

    def test_no_all_positive_start_at_a_vertex_optimum(self, probe_simplices, count_calls):
        # Kuhn's test names vertex 3 of the benchmark's gauss-n3-2, so the
        # all-positive class has no root, and the catalog runs no start in it
        model = SimplexModel(probe_simplices["gauss-n3-2"])
        runs = count_calls(isogonic, "_run")
        catalog = enumerate_isogonic(model)
        assert model._fermat_vertex == 3
        assert len(runs) == len(catalog.traces) + len(catalog.failed_seeds) > 0
        assert all(np.count_nonzero(args[1] < 0) for args in runs)
        assert all(np.count_nonzero(p.coords < 0) for p in catalog.isogonic_points)

    @pytest.mark.parametrize("seed, reason", [
        ([0, 1, 1, 1], "rejected"), ([1, 1, 1, 1], "stalled"), ([0.1, 0.2, 0.3, 0.4], "stalled")])
    def test_a_callers_all_positive_seed_runs_at_a_vertex_optimum(self, seed, reason):
        # Kuhn's test names vertex 3, so the catalog's own Fermat solve is
        # left out; a caller's seed whose start falls in the all-positive
        # class still runs, and fails with its reason
        model = SimplexModel([[0, 0, 0], [10, 0, 0], [0, 10, 0], [0.3, 0.3, 0.2]])
        assert model._fermat_vertex == 3
        assert enumerate_isogonic(model).failed_seeds == []
        assert _catalog_trace(model, seed).reason == reason

    def test_a_stalled_fermat_solve_is_a_failed_seed(self, five_model, monkeypatch):
        # the class then fails its balance, and its near-vertex starts find
        # the Fermat point
        solve = isogonic._fermat_solve

        def stalled(*args):
            h, path, evaluations, _, jac = solve(*args)
            return h, path, evaluations, "stalled", jac

        monkeypatch.setattr(isogonic, "_fermat_solve", stalled)
        catalog = enumerate_isogonic(five_model)
        centroid = default_seeds(five_model)[0].coords.tobytes()
        [failed] = [t for t in catalog.failed_seeds if t.seed.coords.tobytes() == centroid]
        assert failed.reason == "stalled"
        assert np.abs(catalog.isogonic_points[0].normalized_coords
                      - fermat_point(five_model)[0].normalized_coords).max() <= 1e-12

    def test_the_catalog_runs_no_fermat_solver(self, five_model, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the catalog called fermat_point")

        for owner in (fermat, isogonic):
            monkeypatch.setattr(owner, "fermat_point", refused, raising=False)
        catalog = enumerate_isogonic(five_model)
        assert len(catalog) == 5
        for point, expected in zip(catalog.isogonic_points, golden.ISOGONIC_TABLE):
            assert np.abs(point.normalized_coords - expected).max() < 1e-9


class TestIsIsogonic:
    def test_table_points_true(self, five_model):
        for k in range(5):
            ok, deviation = is_isogonic(
                BarycentricPoint(golden.ISOGONIC_TABLE[k]), five_model)
            assert ok
            assert deviation <= 1e-7

    def test_centroid_false(self, five_model):
        ok, deviation = is_isogonic(
            BarycentricPoint([1, 1, 1, 1]), five_model)
        assert not ok
        assert deviation > 1e-3

    def test_regular_center_true(self, regular_tetrahedron):
        ok, _ = is_isogonic(BarycentricPoint([1, 1, 1, 1]),
                            regular_tetrahedron)
        assert ok

    def test_unbounded_antipedal_reports_false(self, five_model):
        on_edge_line = BarycentricPoint([0.0, 0.0, 1.0, 1.0])
        with pytest.raises(ZeroCoordinate, match="antipedal vertex 0 is unbounded"):
            antipedal_simplex(on_edge_line, five_model)
        ok, deviation = is_isogonic(on_edge_line, five_model)
        assert not ok
        assert math.isinf(deviation)

    def test_vertex_reports_false(self, five_model):
        # a vertex lies on n sideplanes; the antipedal simplex still refuses it
        for k in range(4):
            vertex = BarycentricPoint.vertex(k, 3)
            with pytest.raises(AtVertex):
                antipedal_simplex(vertex, five_model)
            ok, deviation = is_isogonic(vertex, five_model)
            assert not ok
            assert math.isinf(deviation)

    def test_point_past_the_escape_radius_reports_false(self):
        # its antipedal spread is 3.7e-8, but the catalog would not accept it
        model = SimplexModel(FAR_PSEUDO_ROOT)
        assert is_isogonic(FAR_POINT, model) == (False, math.inf)


class TestKuhnBoundary:
    """A vertex whose pull |c_k| is 1 to rounding draws further starts onto
    it; a root there is rejected, as one on a sideplane is."""

    def test_integer_tetrahedron(self):
        model = SimplexModel(KUHN_TETRAHEDRON)
        assert model._fermat_vertex == 0
        catalog = enumerate_isogonic(model)
        assert len(catalog) == 5
        assert all(is_isogonic(p, model)[0] for p in catalog.isogonic_points)
        assert "rejected" in {t.reason for t in catalog.failed_seeds}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_seeded_critical_draws(self, n):
        rng = np.random.default_rng((45, n))
        for _ in range(5):
            model = kuhn_critical_model(rng, n)
            catalog = enumerate_isogonic(model)
            assert all(is_isogonic(p, model)[0] for p in catalog.isogonic_points)


class TestTriadAngles:
    def test_isogonic_point_passes(self, five_model):
        ok, table = triad_angle_check(
            BarycentricPoint(golden.ISOGONIC_TABLE[0]), five_model)
        assert ok
        assert len(table) == 4

    def test_centroid_fails(self, five_model):
        ok, _ = triad_angle_check(
            BarycentricPoint([1, 1, 1, 1]), five_model)
        assert not ok

    def test_regular_center_angles(self, regular_tetrahedron):
        ok, table = triad_angle_check(
            BarycentricPoint([1, 1, 1, 1]), regular_tetrahedron)
        assert ok
        # rays from the center meet at arccos(-1/3); as undirected lines the
        # angle folds into [0, pi/2] as arccos(1/3)
        for angles in table.values():
            assert np.abs(angles - math.acos(1 / 3)).max() < 1e-12

    def test_requires_dimension_three(self, gap_triangle):
        with pytest.raises(ValueError):
            triad_angle_check(BarycentricPoint([1, 1, 1]), gap_triangle)

    def test_far_point_passes(self):
        # lines through a far point are nearly parallel: the check is a
        # necessary condition only, which is_isogonic's escape radius bounds
        assert triad_angle_check(FAR_POINT, SimplexModel(FAR_PSEUDO_ROOT))[0]


@pytest.mark.xfail(
    strict=True,
    reason="the claimed equivalence between an equiareal antipedal simplex "
           "and an equiareal vertex inversion does not hold: inversion about "
           "a point is similar to its *pedal* configuration in the plane, "
           "and for the reference tetrahedron the inversion about the first "
           "isogonic point has facet-area spread ~0.5 while its antipedal "
           "is equiareal to 2e-12")
def test_inversive_equiareality_equivalence_claim(five_model):
    for k in range(5):
        point = BarycentricPoint(golden.ISOGONIC_TABLE[k])
        ok, _ = is_isogonic(point, five_model)
        assert ok
        x = five_model.bary_to_cart(point)
        mirrored = inversive_image(five_model, x, 1.0)
        assert equiareal_deviation(mirrored) <= 1e-7
