"""Isodynamic points against an independent 40-digit reference.

The library finds the common points of the Apollonian spheres on the line
X = c - mu e that one linear solve in the model's frame gives.  The
reference here takes another route in 40-digit arithmetic: it intersects
the axis, the line through the circumcenter perpendicular to the polar
hyperplane of P^2, with the sphere of the first vertex pair whose weights
differ in magnitude.  It shares no code with the library.
"""

import itertools

import mpmath
import numpy as np
import pytest

import golden
from conftest import make_random_model

from simplexcenters import (
    EdgeLengthTable,
    SimplexModel,
    classical_centers,
    embed_from_edge_lengths,
    isodynamic_points,
)

REL_TOL = 1e-10

# the library's tangency window on |X_+ - X_-|^2 / R^2
TANGENCY_REL = 1e-12


def norm2(v) -> mpmath.mpf:
    return sum(x * x for x in v)


def reference_points(vertices, weights) -> list[list[mpmath.mpf]]:
    """Cartesian common points of the Apollonian spheres of the weights."""
    a = [[mpmath.mpf(float(x)) for x in row] for row in vertices]
    p = [abs(mpmath.mpf(float(w))) for w in weights]
    n = len(a) - 1
    # circumcenter: 2 (A_i - A_0) . X = |A_i|^2 - |A_0|^2
    lhs = mpmath.matrix([[2 * (a[i][k] - a[0][k]) for k in range(n)] for i in range(1, n + 1)])
    rhs = mpmath.matrix([norm2(a[i]) - norm2(a[0]) for i in range(1, n + 1)])
    center = list(mpmath.lu_solve(lhs, rhs))
    radius2 = norm2([x - y for x, y in zip(center, a[0])])
    # axis: the gradient of sum_i lambda_i(X) / p_i^2, lambda the barycentric
    # coordinates, whose rows in the inverse affine matrix are the gradients
    affine = mpmath.matrix([[a[j][k] for j in range(n + 1)] for k in range(n)]
                           + [[1] * (n + 1)])
    inverse = affine ** -1
    grad = [sum(inverse[i, k] / p[i] ** 2 for i in range(n + 1)) for k in range(n)]
    length = mpmath.sqrt(norm2(grad))
    axis = [g / length for g in grad]
    # sphere on the diameter ends [p_i : p_j] and [-p_i : p_j]
    i, j = next((i, j) for i, j in itertools.combinations(range(n + 1), 2)
                if abs(p[i] - p[j]) > 1e-12 * max(p))
    ends = [[(s * p[i] * x + p[j] * y) / (s * p[i] + p[j]) for x, y in zip(a[i], a[j])]
            for s in (1, -1)]
    middle = [(x + y) / 2 for x, y in zip(*ends)]
    rho2 = norm2([x - y for x, y in zip(*ends)]) / 4
    # |c + t u - S|^2 = rho^2
    gap = [x - y for x, y in zip(center, middle)]
    half_b = sum(u * g for u, g in zip(axis, gap))
    quarter_disc = half_b ** 2 - (norm2(gap) - rho2)
    window = TANGENCY_REL * radius2 / 4
    if quarter_disc < -window:
        return []
    if quarter_disc <= window:
        ts = [-half_b]
    else:
        ts = [-half_b - mpmath.sqrt(quarter_disc), -half_b + mpmath.sqrt(quarter_disc)]
    return [[c + t * u for c, u in zip(center, axis)] for t in ts]


def random_cases():
    for n in range(2, 7):
        rng = np.random.default_rng((1504, n))
        for k in range(4):
            model = make_random_model(rng, n)
            yield pytest.param(model, classical_centers(model)["I"].coords,
                               id=f"gauss-n{n}-{k}-incenter")
            yield pytest.param(model, rng.uniform(0.7, 1.3, n + 1), id=f"gauss-n{n}-{k}-random")


CASES = [
    pytest.param(embed_from_edge_lengths(EdgeLengthTable.from_flat(3, golden.GAP_EDGES)),
                 None, id="gap"),
    pytest.param(SimplexModel(golden.FIVE_VERTICES), None, id="five-isogonic"),
    *random_cases(),
]


@pytest.mark.parametrize("model, weights", CASES)
def test_isodynamic_points_match_the_axis_sphere_reference(model, weights):
    if weights is None:
        weights = classical_centers(model)["I"].coords
    result = isodynamic_points(weights, model)
    with mpmath.workdps(40):
        want = reference_points(model.vertices, weights)
        assert len(result.points) == len(want)
        for point in result.points:
            x = model.bary_to_cart(point)
            error = min(mpmath.sqrt(norm2([mpmath.mpf(float(g)) - w for g, w in zip(x, ref)]))
                        for ref in want)
            assert error <= REL_TOL * model.diameter
