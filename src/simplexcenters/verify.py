"""Built-in reference checks.

Recomputes every number in the two reference configurations shipped with
the package — the tetrahedron with edge lengths (13, 11, 9, 12, 5, 11)
whose Apollonian spheres share no point, and the tetrahedron on
(0,0,0), (6,0,0), (0,8,0), (2,2,6) with five isogonic points — and runs
seeded random property suites for the solvers.  Every check prints one
expected/computed/tolerance row; the harness passes only if all rows do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .apollonian import (
    collinear_cross_ratio,
    isodynamic_points,
    restrict_to_facet,
    sphere_family,
    yiu_triangle_test,
)
from .barycentric import (
    BarycentricPoint,
    EdgeLengthTable,
    SimplexModel,
    circumcenter_cart,
    classical_centers,
    embed_from_edge_lengths,
)
from .documents import parse_document
from .fermat import (
    distance_sum_gradient,
    fermat_point,
    total_distance,
    weiszfeld_step_q,
    weiszfeld_step_r,
    z_correspondent,
)
from .isogonic import enumerate_isogonic, isogonal_conjugate
from .pedal import antipedal_simplex, pedal_simplex, polar_simplex

GAP_TETRAHEDRON_DOC = {
    "name": "apollonian-gap-tetrahedron",
    "edge_lengths": {"dimension": 3, "values": [13, 11, 9, 12, 5, 11]},
}
GAP_FACET_TRIANGLE_DOC = {
    "name": "apollonian-gap-facet-triangle",
    "edge_lengths": {"dimension": 2, "values": [13, 11, 12]},
}
FIVE_ISOGONIC_DOC = {
    "name": "five-isogonic-tetrahedron",
    "vertices": [[0, 0, 0], [6, 0, 0], [0, 8, 0], [2, 2, 6]],
}

BUILTIN_DOCUMENTS = {
    doc["name"]: doc
    for doc in (GAP_TETRAHEDRON_DOC, GAP_FACET_TRIANGLE_DOC, FIVE_ISOGONIC_DOC)
}

# facet areas of the gap tetrahedron, opposite each vertex
GAP_FACET_AREAS = (
    6.0 * math.sqrt(21.0),
    2.25 * math.sqrt(403.0),
    2.25 * math.sqrt(51.0),
    6.0 * math.sqrt(105.0),
)
GAP_FACET_CIRCUMCENTER = (Fraction(73, 210), Fraction(121, 315), Fraction(169, 630))
GAP_FACET_CIRCUMRADIUS = 1716.0 / (24.0 * math.sqrt(105.0))
GAP_WITNESS = (
    Fraction(3326952, 4504043),
    Fraction(25180529, 27024258),
    Fraction(-18117983, 27024258),
)

FIVE_FACET_VOLUMES = (10 * math.sqrt(10), 8 * math.sqrt(10), 6 * math.sqrt(10), 24.0)
CONJUGATE_TABLE = (
    (0.266996565955, 0.275481800939, 0.217355830792, 0.240165802314),
    (-4.180629474014, 2.569387212447, 1.602113038329, 1.009129223238),
    (1.193250865914, -1.252645952150, 0.354761022780, 0.704634063455),
    (0.713260932730, 0.358215195120, -0.616627271982, 0.545151144132),
    (0.657546390333, 0.802131717931, 0.639088262811, -1.098766371077),
)
PEDAL_AREA_TABLE = (2.404772767371, 122.125536031480, 19.392997370805,
                    9.848601171111, 18.965046082427)
ISOGONIC_TABLE = (
    (0.369979160947, 0.229493293826, 0.163611619856, 0.236915925371),
    (-0.297000489955, 0.309278164652, 0.279002561033, 0.708719764270),
    (0.388102931405, -0.236608485604, 0.469943106828, 0.378562447371),
    (0.382915343108, 0.487963317698, -0.159452369671, 0.288573708865),
    (0.645021938255, 0.338403751068, 0.238914519123, -0.222340208446),
)
ANTIPEDAL_AREA_TABLE = (241.637142362610, 60.087819904352, 31.387257487815,
                        5.647726265255, 31.003305976553)
ISODYNAMIC_TABLE = (
    (0.206439675828, 0.327649375007, 0.263085414624, 0.20282553454),
    (2.954833710960, -0.575606610593, -1.403778427224, 0.024551326857),
)


@dataclass
class CheckRow:
    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool


@dataclass
class NumericRow:
    """A check that ``error <= tol``; a new ``tol`` re-judges it and its texts."""
    name: str
    error: float
    tol: float
    quantity: str = "error"

    expected = property(lambda self: f"{self.quantity} <= {self.tol:.1e}")
    computed = property(lambda self: f"error {self.error:.3e}")
    tolerance = property(lambda self: f"{self.tol:.1e}")
    passed = property(lambda self: bool(self.error <= self.tol))


def _bool_row(name: str, expected: bool, computed: bool, detail: str = "") -> CheckRow:
    return CheckRow(name=name,
                    expected=detail or str(expected),
                    computed=str(computed),
                    tolerance="exact",
                    passed=computed == expected)


def _coord_error(point: BarycentricPoint, expected) -> float:
    return float(np.abs(point.normalized_coords - np.asarray(expected, float)).max())


def _builtin_model(doc: dict) -> SimplexModel:
    return parse_document(doc).build_model()


# ---------------------------------------------------------------------------
# reference configuration checks
# ---------------------------------------------------------------------------

def gap_checks() -> list[CheckRow | NumericRow]:
    rows = []
    model = _builtin_model(GAP_TETRAHEDRON_DOC)
    areas = model.facet_volumes
    rows.append(NumericRow(
        "gap: facet areas (6*sqrt(21), 9/4*sqrt(403), 9/4*sqrt(51), 6*sqrt(105))",
        float(np.abs(areas / np.array(GAP_FACET_AREAS) - 1.0).max()), 1e-10))

    triangle = _builtin_model(GAP_FACET_TRIANGLE_DOC)
    centers = classical_centers(triangle)
    expected_o = np.array([float(f) for f in GAP_FACET_CIRCUMCENTER])
    rows.append(NumericRow("gap: facet triangle circumcenter [73/210, 121/315, 169/630]",
                           _coord_error(centers["O"], expected_o), 1e-12))
    _, radius = circumcenter_cart(triangle)
    rows.append(NumericRow("gap: facet triangle circumradius 1716/(24*sqrt(105))",
                           abs(radius / GAP_FACET_CIRCUMRADIUS - 1.0), 1e-12))

    verdict = yiu_triangle_test(12.0, 11.0, 13.0, *GAP_FACET_AREAS[:3])
    expected_q = np.array([float(f) for f in GAP_WITNESS])
    rows.append(NumericRow("gap: witness point matches exact fractions",
                           _coord_error(verdict.point, expected_q), 1e-12))
    rows.append(_bool_row("gap: witness point outside facet circumcircle",
                          True, verdict.outside))
    rows.append(CheckRow(
        name="gap: witness distance exceeds circumradius",
        expected=f"distance > {verdict.circumradius:.12f}",
        computed=f"distance {verdict.distance:.12f}",
        tolerance="strict",
        passed=verdict.distance > verdict.circumradius))

    result = isodynamic_points(classical_centers(model)["I"], model)
    rows.append(_bool_row("gap: no isodynamic points exist",
                          True, len(result.points) == 0))

    _, restricted = restrict_to_facet(classical_centers(model)["K"], model, 3)
    expected_r = np.array(GAP_FACET_AREAS[:3]) ** 2
    rows.append(NumericRow(
        "gap: symmedian line meets facet at squared-area point",
        float(np.abs(restricted.normalized_coords
                     - expected_r / expected_r.sum()).max()), 1e-12))
    return rows


def five_isogonic_checks() -> list[CheckRow | NumericRow]:
    rows = []
    model = _builtin_model(FIVE_ISOGONIC_DOC)
    rows.append(NumericRow(
        "five: facet volumes (10, 8, 6)*sqrt(10), 24",
        float(np.abs(model.facet_volumes / np.array(FIVE_FACET_VOLUMES) - 1.0).max()),
        1e-10))

    catalog = enumerate_isogonic(model)
    rows.append(_bool_row("five: catalog holds exactly five isogonic points",
                          True, len(catalog) == 5,
                          detail="5 points"))
    if len(catalog) == 5:
        for k in range(5):
            rows.append(NumericRow(
                f"five: equiareal-pedal point L_{k}",
                _coord_error(catalog.conjugate_points[k], CONJUGATE_TABLE[k]), 1e-9))
        for k in range(5):
            rows.append(NumericRow(
                f"five: pedal facet area a_{k} = {PEDAL_AREA_TABLE[k]:.12f}",
                abs(catalog.pedal_areas[k] / PEDAL_AREA_TABLE[k] - 1.0), 1e-6))
        for k in range(5):
            rows.append(NumericRow(
                f"five: isogonic point F_{k}",
                _coord_error(catalog.isogonic_points[k], ISOGONIC_TABLE[k]), 1e-9))
        for k in range(5):
            rows.append(NumericRow(
                f"five: antipedal facet area {ANTIPEDAL_AREA_TABLE[k]:.12f}",
                abs(catalog.antipedal_areas[k] / ANTIPEDAL_AREA_TABLE[k] - 1.0), 1e-6))
        conj_err = max(
            _coord_error(isogonal_conjugate(catalog.conjugate_points[k], model),
                         ISOGONIC_TABLE[k])
            for k in range(5))
        rows.append(NumericRow("five: conjugation maps each L_k onto F_k",
                               conj_err, 1e-8))

    incenter = classical_centers(model)["I"]
    result = isodynamic_points(incenter, model)
    rows.append(_bool_row("five: two isodynamic points exist",
                          True, len(result.points) == 2, detail="2 points"))
    if len(result.points) == 2:
        rows.append(NumericRow("five: isodynamic point J_1",
                               _coord_error(result.points[0], ISODYNAMIC_TABLE[0]), 1e-8))
        rows.append(NumericRow("five: isodynamic point J_2",
                               _coord_error(result.points[1], ISODYNAMIC_TABLE[1]), 1e-8))
        rows.append(NumericRow("five: sphere membership residuals",
                               max(result.residuals), 1e-8))

    for method in ("q", "r"):
        point, trace = fermat_point(model, method=method)
        rows.append(NumericRow(
            f"five: distance-sum minimizer via method {method} "
            f"({trace.iterations_used} iterations)",
            _coord_error(point, ISOGONIC_TABLE[0]), 1e-9))
    rows.append(NumericRow(
        "five: Weiszfeld steps q and r fix the distance-sum minimizer",
        max(_coord_error(step(point, model), point.normalized_coords)
            for step in (weiszfeld_step_q, weiszfeld_step_r)), 1e-12))
    return rows


# ---------------------------------------------------------------------------
# seeded random suites
# ---------------------------------------------------------------------------

def _random_simplex(rng: np.random.Generator, n: int) -> SimplexModel:
    while True:
        verts = rng.standard_normal((n + 1, n))
        model = SimplexModel(verts, validate=False)
        floor = 0.01 * model.diameter ** n / math.factorial(n)
        if not model.degenerate and model.total_volume > floor:
            return model


def _random_triangle_sides(rng: np.random.Generator,
                           max_angle_deg: float = 115.0) -> tuple[float, float, float]:
    """Sides of a clearly non-equilateral triangle with all angles below the
    given bound (the regime where one isodynamic point is interior)."""
    while True:
        a = rng.uniform(25.0, max_angle_deg)
        b = rng.uniform(25.0, max_angle_deg)
        c = 180.0 - a - b
        if not 25.0 <= c <= max_angle_deg:
            continue
        if max(a, b, c) - min(a, b, c) < 2.0:
            continue  # nearly equilateral
        scale = rng.uniform(0.5, 3.0)
        rad = np.radians([a, b, c])
        sides = scale * np.sin(rad)  # law of sines
        return float(sides[2]), float(sides[1]), float(sides[0])  # d12, d13, d23


def _fd_gradient(model: SimplexModel, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.empty(model.n)
    for k in range(model.n):
        step = np.zeros(model.n)
        step[k] = h
        fp = total_distance(model.cart_to_bary(x + step), model)
        fm = total_distance(model.cart_to_bary(x - step), model)
        g[k] = (fp - fm) / (2 * h)
    return g


def solver_suite_checks() -> list[CheckRow | NumericRow]:
    rows = []
    model = _builtin_model(FIVE_ISOGONIC_DOC)
    target = np.array(ISOGONIC_TABLE[0])
    rng = np.random.default_rng(20240)

    worst_coord = 0.0
    worst_grad = 0.0
    worst_fd = 0.0
    worst_ascent = 0.0
    for _ in range(10):
        start = rng.dirichlet(np.ones(4))
        for method in ("q", "r"):
            point, trace = fermat_point(model, start=start, method=method)
            worst_coord = max(worst_coord,
                              float(np.abs(point.normalized_coords - target).max()))
            x = model.bary_to_cart(point)
            grad = distance_sum_gradient(model, x)
            worst_grad = max(worst_grad, float(np.linalg.norm(grad)))
            worst_fd = max(worst_fd,
                           float(np.abs(grad - _fd_gradient(model, x)).max()))
            if method == "q":
                diffs = np.diff(trace.objective_values)
                worst_ascent = max(worst_ascent, float(diffs.max(initial=-math.inf)))
    rows.append(NumericRow("solver: 10 random starts reach the minimizer (q and r)",
                           worst_coord, 1e-9))
    rows.append(NumericRow("solver: gradient norm at the minimizer", worst_grad, 1e-7))
    rows.append(NumericRow("solver: gradient matches finite differences",
                           worst_fd, 1e-5))
    rows.append(NumericRow("solver: distance sum non-increasing along q-iterates",
                           max(worst_ascent, 0.0), 1e-12,
                           quantity="max increase"))
    return rows


def triangle_suite_checks(count: int = 100) -> list[CheckRow | NumericRow]:
    rows = []
    rng = np.random.default_rng(20241)
    worst_line = 0.0
    worst_cross = 0.0
    worst_product = 0.0
    worst_pedal = 0.0
    worst_antipedal = 0.0
    worst_conj = 0.0
    interior_ok = True
    for _ in range(count):
        d12, d13, d23 = _random_triangle_sides(rng)
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [d12, d13, d23]))
        centers = classical_centers(model)
        result = isodynamic_points(centers["I"], model)
        if len(result.points) != 2:
            interior_ok = False
            continue
        j1, j2 = result.points
        interior_flags = [bool(np.all(j.normalized_coords > 0)) for j in (j1, j2)]
        if sum(interior_flags) != 1:
            interior_ok = False

        o_cart, radius = circumcenter_cart(model)
        k_cart = model.bary_to_cart(centers["K"])
        j1_cart = model.bary_to_cart(j1)
        j2_cart = model.bary_to_cart(j2)
        axis = k_cart - o_cart
        axis = axis / np.linalg.norm(axis)
        for jc in (j1_cart, j2_cart):
            off = jc - o_cart
            worst_line = max(worst_line,
                             abs(axis[0] * off[1] - axis[1] * off[0]) / model.diameter)
        worst_cross = max(worst_cross, abs(
            collinear_cross_ratio(o_cart, k_cart, j1_cart, j2_cart) + 1.0))

        opposite = np.array([model.edges.d[1, 2], model.edges.d[0, 2],
                             model.edges.d[0, 1]])
        for j in (j1, j2):
            products = model.vertex_distances(j) * opposite
            worst_product = max(worst_product,
                                float(np.ptp(products) / products.mean()))
            feet = pedal_simplex(j, model).vertices
            sides = [np.linalg.norm(feet[a] - feet[b])
                     for a, b in itertools.combinations(range(3), 2)]
            worst_pedal = max(worst_pedal,
                              (max(sides) - min(sides)) / np.mean(sides))
            conj = isogonal_conjugate(j, model)
            anti = antipedal_simplex(conj, model).vertices
            sides = [np.linalg.norm(anti[a] - anti[b])
                     for a, b in itertools.combinations(range(3), 2)]
            worst_antipedal = max(worst_antipedal,
                                  (max(sides) - min(sides)) / np.mean(sides))

        fermat, _ = fermat_point(model)
        conj_interior = isogonal_conjugate(j1 if interior_flags[0] else j2, model)
        worst_conj = max(worst_conj, float(np.abs(
            conj_interior.normalized_coords - fermat.normalized_coords).max()))

    rows.append(NumericRow("triangles: isodynamic pair lies on the center axis",
                           worst_line, 1e-9))
    rows.append(NumericRow("triangles: harmonic range (O, J1, K, J2)",
                           worst_cross, 1e-7))
    rows.append(_bool_row("triangles: exactly one isodynamic point interior",
                          True, interior_ok))
    rows.append(NumericRow("triangles: vertex distance times opposite side balanced",
                           worst_product, 1e-8))
    rows.append(NumericRow("triangles: pedal triangles of J equilateral",
                           worst_pedal, 1e-8))
    rows.append(NumericRow("triangles: antipedal triangles of conjugates equilateral",
                           worst_antipedal, 1e-8))
    rows.append(NumericRow("triangles: interior conjugate equals distance minimizer",
                           worst_conj, 1e-8))
    return rows


def _circles_meet_brute(model: SimplexModel, weights: np.ndarray) -> bool:
    """Direct pairwise intersection of the three weighted Apollonian circles."""
    circles = []
    for i, j in itertools.combinations(range(3), 2):
        wi, wj = weights[i], weights[j]
        if abs(wi - wj) <= 1e-12 * max(wi, wj):
            circles.append(None)
            continue
        e = np.zeros(3)
        inner = e.copy(); inner[i] = wi; inner[j] = wj
        outer = e.copy(); outer[i] = -wi; outer[j] = wj
        c1 = model.bary_to_cart(BarycentricPoint(inner))
        c2 = model.bary_to_cart(BarycentricPoint(outer))
        circles.append((0.5 * (c1 + c2), 0.5 * float(np.linalg.norm(c1 - c2))))
    proper = [c for c in circles if c is not None]
    if len(proper) < 2:
        return True  # two bisector lines always meet (at the circumcenter)
    (c1, r1), (c2, r2) = proper[0], proper[1]
    gap = c2 - c1
    dist = float(np.linalg.norm(gap))
    return abs(r1 - r2) <= dist <= r1 + r2


def invariant_suite_checks() -> list[CheckRow | NumericRow]:
    rows = []
    rng = np.random.default_rng(20242)
    worst_harmonic = 0.0
    worst_orth = 0.0
    worst_orthology = 0.0
    worst_corr = 0.0
    worst_inverse = 0.0
    worst_step = 0.0
    for trial in range(100):
        n = 2 + trial % 3
        model = _random_simplex(rng, n)
        coords = rng.uniform(0.2, 1.5, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        if abs(coords.sum()) < 0.05:
            coords[0] += 0.5
        point = BarycentricPoint(coords)

        center, radius = circumcenter_cart(model)
        for sph in sphere_family(point, model):
            ends = sph.diameter_ends
            if sph.is_degenerate:
                continue
            a_i = model.vertices[sph.i]
            a_j = model.vertices[sph.j]
            p_in = model.bary_to_cart(ends[0])
            p_out = model.bary_to_cart(ends[1])
            worst_harmonic = max(worst_harmonic, abs(
                collinear_cross_ratio(a_i, a_j, p_in, p_out) + 1.0))
            center_gap = float(np.linalg.norm(center - sph.cart_center))
            worst_orth = max(worst_orth, abs(
                center_gap ** 2 - radius ** 2 - sph.radius ** 2) / radius ** 2)

        interior = BarycentricPoint(rng.dirichlet(np.ones(n + 1)) + 0.05)
        polar = polar_simplex(interior, model)
        recovered = polar.cart_to_bary(model.bary_to_cart(interior))
        worst_orthology = max(worst_orthology, float(np.abs(
            recovered.normalized_coords - interior.normalized_coords).max()))
        # the q-step is the correspondent of the point and its polar
        # simplex's incenter, whose coordinates are that simplex's facet volumes
        step = weiszfeld_step_q(interior, model).normalized_coords
        worst_step = max(worst_step, _coord_error(
            z_correspondent(interior, polar.facet_volumes, model), step) / np.abs(step).max())

        ones = BarycentricPoint(np.ones(n + 1))
        same = z_correspondent(point, ones, model)
        worst_corr = max(worst_corr, float(np.abs(
            same.normalized_coords - point.normalized_coords).max()))
        centroid = z_correspondent(point, point, model)
        worst_corr = max(worst_corr, float(np.abs(
            centroid.normalized_coords - 1.0 / (n + 1)).max()))

        anti = antipedal_simplex(interior, model)
        feet = anti.pedal_feet(model.bary_to_cart(interior))
        worst_inverse = max(worst_inverse, float(
            np.abs(feet - model.vertices).max() / model.diameter))

    rows.append(NumericRow("invariants: diameter endpoints harmonic with the edge",
                           worst_harmonic, 1e-12))
    rows.append(NumericRow("invariants: spheres orthogonal to the circumsphere",
                           worst_orth, 1e-8))
    rows.append(NumericRow("invariants: polar-simplex coordinates agree",
                           worst_orthology, 1e-10))
    rows.append(NumericRow("invariants: correspondent identities", worst_corr, 1e-12))
    rows.append(NumericRow("invariants: q-step is the correspondent of the polar incenter",
                           worst_step, 1e-9, quantity="relative error"))
    rows.append(NumericRow("invariants: pedal of antipedal restores the simplex",
                           worst_inverse, 1e-8))

    agreement = 0
    for _ in range(50):
        d12, d13, d23 = _random_triangle_sides(np.random.default_rng(rng.integers(1 << 31)))
        model = embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [d12, d13, d23]))
        weights = rng.uniform(0.3, 3.0, 3)
        verdict = yiu_triangle_test(d23, d13, d12, *weights)
        if verdict.circles_meet == _circles_meet_brute(model, weights):
            agreement += 1
    rows.append(_bool_row("invariants: circle criterion matches brute force (50 runs)",
                          True, agreement == 50, detail="50/50"))
    return rows


def run_reference_checks() -> list[CheckRow | NumericRow]:
    rows = []
    rows.extend(gap_checks())
    rows.extend(five_isogonic_checks())
    rows.extend(solver_suite_checks())
    rows.extend(triangle_suite_checks())
    rows.extend(invariant_suite_checks())
    return rows
