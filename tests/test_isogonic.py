import itertools
import math

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_nonzero_point

from simplexcenters import (
    REASONS,
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
    fermat_point,
    inversive_image,
    is_isogonic,
    isodynamic_points,
    isogonal_conjugate,
    pedal_simplex,
    triad_angle_check,
)
from simplexcenters import fermat, isogonic
from simplexcenters.barycentric import as_point


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


# a tetrahedron whose class (+, -, +, -) has a pseudo-root far out
FAR_PSEUDO_ROOT = [[-0.117334, 1.194104, -0.930726],
                   [-2.043466, -2.048336, 2.213690],
                   [-1.827079, 2.301102, -2.075163],
                   [-0.584854, -0.731705, 0.349025]]

# a tetrahedron whose catalog once missed its Fermat point, which lies near
# vertex 1; four of its starts stall, and their line searches often reject
# the whole step
STALL_TETRAHEDRON = [[-0.008775, 0.306069, 1.271732],
                     [-1.087569, -0.140184, -0.296931],
                     [-2.010313, -0.678083, -1.609774],
                     [0.101443, -0.204785, 0.277038]]


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

    def test_dirichlet_start_finds_a_second_root_in_its_class(self, monkeypatch):
        # the benchmark's gauss-n3-2 tetrahedron in its seed-1 pose: class
        # (1, 1, 1, -1) has two roots, and only a Dirichlet start reaches the
        # second, so the random further starts are not yet dead code
        model = SimplexModel([
            [0.8715261111573812, 0.07957296834847231, -0.5028813226903299],
            [-1.0598656404068991, 0.13969474356198922, -0.29110144199848],
            [2.0010531301578856, 1.6843461973169702, -0.5525316475421018],
            [0.5775094827568734, 0.46654004858640064, -0.6113976202958499]])
        signs = [tuple(np.sign(p.normalized_coords)) for p in
                 enumerate_isogonic(model).isogonic_points]
        assert len(signs) == 6 and signs.count((1, 1, 1, -1)) == 2
        monkeypatch.setattr(isogonic, "_CLASS_POINTS", 0)
        signs = [tuple(np.sign(p.normalized_coords)) for p in
                 enumerate_isogonic(model).isogonic_points]
        assert len(signs) == 5 and signs.count((1, 1, 1, -1)) == 1

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
            == [6, 11, 7, 6, 7]
        assert [fermat_point(five_model, method=m)[1].gradient_evaluations
                for m in ("q", "r")] == [4, 4]

    def test_stall_tetrahedron_counts(self, count_calls):
        # the batched halvings run here, and each start reads (reason,
        # Newton steps, evaluations) as the one-at-a-time search counts them
        calls = count_calls(fermat, "_trial_merits")
        catalog = enumerate_isogonic(SimplexModel(STALL_TETRAHEDRON))
        assert calls
        assert [(t.reason, t.iterations_used, t.gradient_evaluations)
                for t in catalog.failed_seeds] == [
            ("stalled", 9, 63), ("stalled", 14, 77), ("stalled", 13, 77),
            ("stalled", 2, 32)]
        assert [(t.reason, t.iterations_used, t.gradient_evaluations)
                for t in catalog.traces] == [("converged", 8, 11)]

    def test_each_antipedal_figure_is_measured_once(self, five_model, count_calls):
        # a root is accepted on its antipedal facet volumes, and the
        # catalog's areas are those volumes
        calls = count_calls(isogonic, "_antipedal_points")
        catalog = enumerate_isogonic(five_model)
        assert len(calls) == len(catalog) == 5
        for k in range(5):
            assert abs(catalog.antipedal_areas[k]
                       / golden.ANTIPEDAL_AREA_TABLE[k] - 1) < 1e-6

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
            ok, dev = is_isogonic(f, regular_tetrahedron, tol=1e-9)
            assert ok, dev

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
        ok, dev = is_isogonic(exact_f, regular_tetrahedron, tol=1e-12)
        assert ok, dev

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
        monkeypatch.setattr(isogonic, "_antipedal_volumes", lambda p, model: None)
        catalog = enumerate_isogonic(five_model)
        seeds = default_seeds(five_model)
        assert len(catalog) == 0
        assert len(catalog.failed_seeds) > len(seeds)
        assert all(t.reason in REASONS for t in catalog.failed_seeds)
        reasons = {t.seed.coords.tobytes(): t.reason for t in catalog.failed_seeds}
        assert [reasons.get(s.coords.tobytes()) for s in seeds] == ["rejected"] * len(seeds)

    def test_conjugate_at_infinity_is_a_failed_seed(self):
        # [9 : 5 : -4] lies on the circumcircle, so its conjugate lies at
        # infinity and no Newton run starts from it
        model = SimplexModel([[0, 0], [4, 0], [1, 3]])
        catalog = enumerate_isogonic(model, seeds=[[9, 5, -4]])
        assert len(catalog) == len(enumerate_isogonic(model)) == 2
        last = catalog.failed_seeds[-1]
        assert last.reason == "rejected" and last.iterations_used == 0
        assert np.array_equal(last.seed.coords, [0.9, 0.5, -0.4])


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


def _sequential_newton(model: SimplexModel, sigma: np.ndarray, coords: np.ndarray,
                       tol: float, max_steps: int, residual: float = math.inf,
                       roots=()) -> tuple[list[np.ndarray], int, bool]:
    """``fermat._newton`` with a line search that tries its 12 step
    fractions one at a time, evaluating g_sigma, J and M at each."""
    local = model._local
    known = np.reshape(roots, (-1, model.n))
    d2 = model._local_diameter ** 2
    tol = tol * model._local_diameter
    x = local.T @ coords
    g, jac = fermat._signed_gradient(local, sigma, x)
    weight, dlog = fermat._deflation(x, known, d2)
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
            if math.isfinite(residual):
                evaluations += 1
                g = fermat._signed_gradient(local, sigma, x)[0]
                ok = ok and math.sqrt(g @ g) <= residual
            break
        merit = weight * math.sqrt(g @ g)
        t = 1.0
        for _ in range(12):
            y = x + t * step
            gy, jy = fermat._signed_gradient(local, sigma, y)
            wy, dy = fermat._deflation(y, known, d2)
            evaluations += 1
            if wy * math.sqrt(gy @ gy) <= (1.0 - 1e-4 * t) * merit:
                break
            t *= 0.5
        else:
            ok = math.isfinite(residual) and merit <= residual
            if ok and not path:
                path.append(x)
            break
        x, g, jac, weight, dlog = y, gy, jy, wy, dy
        path.append(x)
    return path, evaluations, ok


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
        path, _, converged = fermat._newton(five_model, sigma, np.array(approx) / sum(approx),
                                            1e-12, 50)
        assert converged
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

        monkeypatch.setattr(isogonic, "isodynamic_points", broken)
        with pytest.raises(TypeError):
            default_seeds(gap_triangle)

    def test_geometric_errors_leave_orthant_seeds(self, gap_triangle, monkeypatch):
        def undefined(p, model):
            raise Degenerate("no axis")

        monkeypatch.setattr(isogonic, "isodynamic_points", undefined)
        assert len(default_seeds(gap_triangle)) == 4

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
        # for n >= 3 the seeds are [a_i^2 |G - A_i|], whose conjugate is the
        # centroid's Weiszfeld step, and the centroid's one-negative
        # reflections, also where vertex 0 sits just above the center of the
        # other three, so it minimizes the distance sum
        optimum = SimplexModel([[0, 0, 0.1], [1, 0, 0], [-0.5, 0.866, 0], [-0.5, -0.866, 0]])
        reflections = [[0.5] * k + [-0.5] + [0.5] * (3 - k) for k in range(4)]
        for model, first in (
                (five_model, [0.30780518394326833, 0.2757934448131684,
                              0.18935198239963938, 0.22704938884392392]),
                (optimum, [0.17782191284410906, 0.27406307029977683,
                           0.2740575084280571, 0.2740575084280571])):
            assert [list(s.coords) for s in default_seeds(model)] == [first] + reflections

    def test_the_all_positive_start_is_where_fermat_point_starts(self):
        # Newton from the symmedian point stalled on this tetrahedron; from
        # the centroid's Weiszfeld step it converges to the Fermat point
        model = SimplexModel(STALL_TETRAHEDRON)
        seed = default_seeds(model)[0]
        point, trace = fermat_point(model)
        assert np.abs(isogonal_conjugate(seed, model).normalized_coords
                      - trace.iterates[1].normalized_coords).max() <= 1e-15
        catalog = enumerate_isogonic(model)
        [found] = [k for k, t in enumerate(catalog.traces)
                   if np.array_equal(t.seed.coords, seed.coords)]
        assert catalog.traces[found].reason == "converged"
        assert np.abs(catalog.isogonic_points[found].normalized_coords
                      - point.normalized_coords).max() <= 1e-10

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
        ok, deviation = is_isogonic(on_edge_line, five_model)
        assert not ok
        assert math.isinf(deviation)


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
