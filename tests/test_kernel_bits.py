"""The Newton kernel's lean forms give the bits of the forms they replaced.

``_signed_gradient``, ``_jacobian`` and ``_zero_entries`` are compared by
``tobytes()`` with references written the old way: ``np.einsum`` row dots,
J's diagonal added in place through a strided view, and ``_zero_entries``
reading ``np.abs(c).max()``.  ``_einsum`` is NumPy's C kernel, which
``np.einsum`` calls with the operands alone, and it is compared with
``np.einsum`` on every subscript and shape that the library passes.  The
cached per-dimension constants are read-only.
"""

import itertools

import numpy as np
import pytest

from simplexcenters import SimplexModel
from simplexcenters.barycentric import _REL_EPS, _einsum, _zero_entries
from simplexcenters.fermat import _FRACTIONS, _eye, _jacobian, _positive, _signed_gradient
from simplexcenters.isogonic import _sign_classes


def _old_jacobian(units: np.ndarray, w: np.ndarray) -> np.ndarray:
    jac = -(units.T * w) @ units
    jac.reshape(-1)[::units.shape[1] + 1] += np.add.reduce(w)
    return jac


def _old_signed_gradient(vertices: np.ndarray, sigma: np.ndarray, x: np.ndarray):
    gaps = x - vertices
    dist = np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
    if np.count_nonzero(dist) < len(dist):
        keep = dist > 0
        gaps, dist, sigma = gaps[keep], dist[keep], sigma[keep]
    units = gaps / dist[:, None]
    return sigma @ units, _old_jacobian(units, sigma / dist)


def _old_zero_entries(c: np.ndarray) -> np.ndarray:
    return np.abs(c) <= _REL_EPS * np.abs(c).max()


def _assert_same_kernel(vertices, sigma, x):
    g, jac = _signed_gradient(vertices, sigma, x)
    old_g, old_jac = _old_signed_gradient(vertices, sigma, x)
    assert (g.tobytes(), jac.tobytes()) == (old_g.tobytes(), old_jac.tobytes())


@pytest.mark.parametrize("n", range(1, 9))
def test_gradient_and_jacobian_keep_their_bits(n):
    # random simplices, points and sign patterns, and a point at a vertex,
    # whose zero distance leaves that vertex out of g and J
    rng = np.random.default_rng((39, n))
    for _ in range(200):
        vertices = rng.standard_normal((n + 1, n))
        sigma = rng.choice([-1.0, 1.0], n + 1)
        _assert_same_kernel(vertices, sigma, rng.standard_normal(n))
        _assert_same_kernel(vertices, sigma, vertices[rng.integers(n + 1)].copy())
        units = rng.standard_normal((n + 1, n))
        w = rng.standard_normal(n + 1)
        assert _jacobian(units, w).tobytes() == _old_jacobian(units, w).tobytes()


def test_symmetric_points_keep_their_bits():
    # the corner tetrahedron and a right triangle, at their centroids, on
    # their symmetry axes and at their vertices, in every claimed sign class
    for vertices in (np.vstack((np.zeros(3), np.eye(3))), np.array([[0.0, 0], [3, 0], [0, 4]])):
        m = len(vertices)
        points = [vertices.mean(axis=0), *vertices]
        points += [np.full(m - 1, t) for t in (-1.0, 0.25, 1 / 3, 0.5, 2.0)]
        points += [t * vertices[k] for k in range(1, m) for t in (-1.0, 0.5, 2.0)]
        for sigma, x in itertools.product(_sign_classes(m), points):
            _assert_same_kernel(vertices, sigma, x)
            _assert_same_kernel(vertices, -sigma, x)


@pytest.mark.parametrize("n", range(1, 5))
def test_exact_lattice_points_keep_the_signs_of_their_zeros(n):
    # integer vertices and points make unit vectors with exact zeros, so an
    # off-diagonal entry of J can cancel to zero: it must keep its sign
    rng = np.random.default_rng((40, n))
    for _ in range(1000):
        vertices = rng.integers(-2, 3, (n + 1, n)).astype(float)
        x = rng.integers(-2, 3, n) * rng.choice([1.0, 0.5])
        _assert_same_kernel(vertices, rng.choice([-1.0, 1.0], n + 1), x)
        _assert_same_kernel(vertices, np.ones(n + 1), x)


@pytest.mark.parametrize("c", [
    np.array([1.0, 2.0, -3.0]),
    np.array([1.0, 1e-14, -1e-20, 0.0, -0.0]),
    np.array([np.nan, 1.0, 0.0]),
    np.array([np.inf, 1.0, 0.0]),
    np.array([-np.inf, np.inf, 5.0]),
    np.zeros(4),
    np.array([-0.0, 0.0]),
    np.array([1e-300, 1e-310, 0.0]),
], ids=["plain", "tiny", "nan", "inf", "both-infs", "all-zero", "signed-zeros", "subnormal"])
def test_zero_entries_keeps_its_verdicts(c):
    assert _zero_entries(c).tobytes() == _old_zero_entries(c).tobytes()


def test_zero_entries_keeps_its_verdicts_on_random_vectors():
    rng = np.random.default_rng(41)
    for m in range(2, 10):
        for _ in range(100):
            c = rng.standard_normal(m) * 10.0 ** rng.integers(-20, 20, m)
            c[rng.integers(m)] = 0.0
            assert _zero_entries(c).tobytes() == _old_zero_entries(c).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_einsum_is_np_einsum_on_the_library_shapes(n):
    rng = np.random.default_rng((42, n))
    model = SimplexModel(rng.standard_normal((n + 1, n)))
    m = n + 1
    row_dots = [
        # _distances, _signed_gradient, _antipedal_points, polar_simplex,
        # inversive_image: one row per vertex; _deflation: one per known root
        *[(rng.standard_normal((k, n)), rng.standard_normal((k, n))) for k in (m, 1, 4)],
        (model._local, rng.standard_normal(n) - model._local),
    ]
    for a, b in row_dots:
        assert _einsum("ij,ij->i", a, b).tobytes() == np.einsum("ij,ij->i", a, b).tobytes()
        assert _einsum("ij,ij->i", a, a).tobytes() == np.einsum("ij,ij->i", a, a).tobytes()
    # _trial_merits: a pass of 11 or 12 points against the vertices, and
    # against one or more known roots
    for rows, k in itertools.product((len(_FRACTIONS) - 1, len(_FRACTIONS)), (m, 1, 3)):
        gaps = rng.standard_normal((rows, k, n))
        assert (_einsum("kij,kij->ki", gaps, gaps).tobytes()
                == np.einsum("kij,kij->ki", gaps, gaps).tobytes())


@pytest.mark.parametrize("m", range(2, 10))
def test_cached_constants_are_read_only(m):
    assert _eye(m - 1) is _eye(m - 1) and _positive(m) is _positive(m)
    assert _sign_classes(m) is _sign_classes(m)
    assert np.array_equal(_eye(m - 1), np.eye(m - 1))
    assert np.array_equal(_positive(m), np.ones(m))
    assert [s.tolist() for s in _sign_classes(m)] == [np.ones(m).tolist()] + [
        np.where(np.arange(m) == k, -1.0, 1.0).tolist() for k in range(m)]
    for array in (_eye(m - 1), _positive(m), *_sign_classes(m)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2.0
