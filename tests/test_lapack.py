"""The solvers call NumPy's LAPACK gufuncs directly (``barycentric._lapack``).
Each call, in the shapes the library passes, returns what ``np.linalg``
returns, byte for byte; a singular Jacobian solves to an all-NaN step, with
no warning under the Newton kernel's errstate."""

import math

import numpy as np
import pytest

from simplexcenters.barycentric import _lapack, _leave_one_out, facet_volumes_of_points
from simplexcenters.fermat import _jacobian, _signed_gradient


def _jacobian_and_gradient(rng: np.random.Generator, n: int):
    """J and g_sigma at a random point of a random n-simplex, one-negative
    sigma; a segment's J is 0, so for n = 1 a random 1x1 system."""
    if n == 1:
        return rng.standard_normal((1, 1)), rng.standard_normal(1)
    vertices = rng.standard_normal((n + 1, n))
    sigma = np.where(np.arange(n + 1) == n, -1.0, 1.0)
    g, jac = _signed_gradient(vertices, sigma, rng.standard_normal(n))
    return jac, g


@pytest.mark.parametrize("n", range(1, 9))
def test_one_newton_step_matches_np_linalg(n):
    # _newton: an (n, n) J with an (n,) right-hand side; isogonic: sign det J
    rng = np.random.default_rng((35, n))
    for _ in range(5):
        jac, g = _jacobian_and_gradient(rng, n)
        step = _lapack.solve1(jac, g, signature="dd->d")
        assert step.shape == (n,)
        assert step.tobytes() == np.linalg.solve(jac, g).tobytes()
        det = _lapack.det(jac, signature="d->d")
        assert type(det) is type(np.linalg.det(jac))
        assert det.tobytes() == np.linalg.det(jac).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_antipedal_systems_match_np_linalg(n):
    # pedal._antipedal_points: (m, n, n) systems with an (m, n, 1) view of b
    rng = np.random.default_rng((36, n))
    local = rng.standard_normal((n + 1, n))
    rays = rng.standard_normal(n) - local
    leave = _leave_one_out(n + 1)
    a = rays[leave]
    b = np.einsum("kij,kij->ki", a, local[leave])[..., None]
    assert a.shape == (n + 1, n, n) and b.shape == (n + 1, n, 1)
    assert (_lapack.solve(a, b, signature="dd->d").tobytes()
            == np.linalg.solve(a, b).tobytes())


@pytest.mark.parametrize("n", range(1, 9))
def test_facet_volume_dets_match_np_linalg(n):
    # facet_volumes_of_points on an antipedal and a pedal set at once:
    # a (2, m, m-2, m-2) stack of Gram matrices, m = n + 1 points
    rng = np.random.default_rng((37, n))
    points = rng.standard_normal((2, n + 1, n))
    facets = points[..., _leave_one_out(n + 1), :]
    edges = facets[..., 1:, :] - facets[..., :1, :]
    gram = edges @ edges.swapaxes(-1, -2)
    assert gram.shape == (2, n + 1, n - 1, n - 1)
    assert _lapack.det(gram, signature="d->d").tobytes() == np.linalg.det(gram).tobytes()
    expected = np.sqrt(np.clip(np.linalg.det(gram), 0.0, None)) / math.factorial(n - 1)
    assert facet_volumes_of_points(points).tobytes() == expected.tobytes()


@pytest.mark.parametrize("units, w", [
    # a segment: every u_i is +-1, so J = 0
    (np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])),
    # three collinear unit vectors in space: J = diag(0, W, W) has rank 2
    (np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
     np.array([1.0, -2.0, 0.5])),
], ids=["segment", "rank-2"])
def test_a_singular_jacobian_solves_to_nan(units, w):
    jac = _jacobian(units, w)
    g = w @ units
    assert np.linalg.matrix_rank(jac) == len(units[0]) - 1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac, g)
    with np.errstate(all="ignore"):   # as in _newton; warnings are errors in tier-1
        step = -_lapack.solve1(jac, g, signature="dd->d")
    assert np.isnan(step).all()
