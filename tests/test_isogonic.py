import itertools
import math

import numpy as np
import pytest

import golden
from conftest import make_random_model, random_nonzero_point

from simplexcenters import (
    AxisUndefined,
    BarycentricPoint,
    ZeroCoordinate,
    classical_centers,
    default_seeds,
    enumerate_isogonic,
    equiareal_deviation,
    fermat_point,
    inversive_image,
    is_isogonic,
    isodynamic_points,
    isogonal_conjugate,
    pedal_equiareal_iteration,
    pedal_simplex,
    triad_angle_check,
)
from simplexcenters import isogonic


class TestIsogonalConjugate:
    def test_centroid_maps_to_symmedian(self, five_model):
        g = BarycentricPoint.homogeneous([1, 1, 1, 1])
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
            p = BarycentricPoint.homogeneous(random_nonzero_point(rng, n))
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
                BarycentricPoint.homogeneous(golden.CONJUGATE_TABLE[k]), five_model)
            assert np.abs(conj.normalized_coords
                          - golden.ISOGONIC_TABLE[k]).max() < 1e-8

    def test_zero_coordinate_rejected(self, five_model):
        with pytest.raises(ZeroCoordinate):
            isogonal_conjugate(BarycentricPoint.homogeneous([1, 0, 1, 1]), five_model)


class TestPedalEquiarealIteration:
    def test_regular_simplex_centroid_immediate(self, regular_tetrahedron):
        g = BarycentricPoint.homogeneous([1, 1, 1, 1])
        point, trace = pedal_equiareal_iteration(g, regular_tetrahedron)
        assert trace.converged
        assert trace.iterations_used == 1
        assert np.abs(point.normalized_coords - 0.25).max() < 1e-12

    def test_centroid_start_reaches_first_limit(self, five_model):
        g = BarycentricPoint.homogeneous([1, 1, 1, 1])
        point, trace = pedal_equiareal_iteration(g, five_model)
        assert trace.converged
        assert np.abs(point.normalized_coords
                      - golden.CONJUGATE_TABLE[0]).max() < 1e-9

    def test_negative_orthant_start_reaches_second_limit(self, five_model):
        start = BarycentricPoint.homogeneous([-4.0, 2.5, 1.6, 1.0])
        point, trace = pedal_equiareal_iteration(start, five_model)
        assert trace.converged
        assert np.abs(point.normalized_coords
                      - golden.CONJUGATE_TABLE[1]).max() < 1e-9

    def test_limit_has_equiareal_pedal(self, five_model):
        g = BarycentricPoint.homogeneous([1, 1, 1, 1])
        point, _ = pedal_equiareal_iteration(g, five_model)
        assert equiareal_deviation(pedal_simplex(point, five_model)) <= 1e-7


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
        exact_l = BarycentricPoint.homogeneous([-5.0, 3.0, 3.0, 3.0])
        assert equiareal_deviation(
            pedal_simplex(exact_l, regular_tetrahedron)) < 1e-12
        exact_f = BarycentricPoint.homogeneous([-3.0, 5.0, 5.0, 5.0])
        ok, dev = is_isogonic(exact_f, regular_tetrahedron, tol=1e-12)
        assert ok, dev

    def test_triangle_two_points_positive_is_fermat(self, gap_triangle):
        catalog = enumerate_isogonic(gap_triangle)
        assert len(catalog) == 2
        interior = catalog.isogonic_points[0].normalized_coords
        assert np.all(interior > 0)
        fermat, _ = fermat_point(gap_triangle)
        assert np.abs(interior - fermat.normalized_coords).max() < 1e-8

    def test_triangle_catalog_conjugates_are_isodynamic(self, gap_triangle):
        catalog = enumerate_isogonic(gap_triangle)
        result = isodynamic_points(classical_centers(gap_triangle)["I"], gap_triangle)
        found = [isogonal_conjugate(j, gap_triangle).normalized_coords
                 for j in result.points]
        for f in catalog.isogonic_points:
            best = min(np.abs(f.normalized_coords - c).max() for c in found)
            assert best < 1e-8

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


class TestDefaultSeeds:
    def test_programming_errors_propagate(self, gap_triangle, monkeypatch):
        def broken(p, model):
            raise TypeError("broken")

        monkeypatch.setattr(isogonic, "isodynamic_points", broken)
        with pytest.raises(TypeError):
            default_seeds(gap_triangle)

    def test_geometric_errors_leave_orthant_seeds(self, gap_triangle, monkeypatch):
        def undefined(p, model):
            raise AxisUndefined("no axis")

        monkeypatch.setattr(isogonic, "isodynamic_points", undefined)
        assert len(default_seeds(gap_triangle)) == 4


class TestIsIsogonic:
    def test_table_points_true(self, five_model):
        for k in range(5):
            ok, deviation = is_isogonic(
                BarycentricPoint.homogeneous(golden.ISOGONIC_TABLE[k]), five_model)
            assert ok
            assert deviation <= 1e-7

    def test_centroid_false(self, five_model):
        ok, deviation = is_isogonic(
            BarycentricPoint.homogeneous([1, 1, 1, 1]), five_model)
        assert not ok
        assert deviation > 1e-3

    def test_regular_center_true(self, regular_tetrahedron):
        ok, _ = is_isogonic(BarycentricPoint.homogeneous([1, 1, 1, 1]),
                            regular_tetrahedron)
        assert ok

    def test_unbounded_antipedal_reports_false(self, five_model):
        on_edge_line = BarycentricPoint.homogeneous([0.0, 0.0, 1.0, 1.0])
        ok, deviation = is_isogonic(on_edge_line, five_model)
        assert not ok
        assert math.isinf(deviation)


class TestTriadAngles:
    def test_isogonic_point_passes(self, five_model):
        ok, table = triad_angle_check(
            BarycentricPoint.homogeneous(golden.ISOGONIC_TABLE[0]), five_model)
        assert ok
        assert len(table) == 4

    def test_centroid_fails(self, five_model):
        ok, _ = triad_angle_check(
            BarycentricPoint.homogeneous([1, 1, 1, 1]), five_model)
        assert not ok

    def test_regular_center_angles(self, regular_tetrahedron):
        ok, table = triad_angle_check(
            BarycentricPoint.homogeneous([1, 1, 1, 1]), regular_tetrahedron)
        assert ok
        # rays from the center meet at arccos(-1/3); as undirected lines the
        # angle folds into [0, pi/2] as arccos(1/3)
        for angles in table.values():
            assert np.abs(angles - math.acos(1 / 3)).max() < 1e-12

    def test_requires_dimension_three(self, gap_triangle):
        with pytest.raises(ValueError):
            triad_angle_check(BarycentricPoint.homogeneous([1, 1, 1]), gap_triangle)


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
        point = BarycentricPoint.homogeneous(golden.ISOGONIC_TABLE[k])
        ok, _ = is_isogonic(point, five_model)
        assert ok
        x = five_model.bary_to_cart(point)
        mirrored = inversive_image(five_model, x, 1.0)
        assert equiareal_deviation(mirrored) <= 1e-7
