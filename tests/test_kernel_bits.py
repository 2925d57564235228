"""The Newton kernel's lean forms give the bits of the forms they replaced.

``_signed_gradient``, ``_jacobian`` and ``_zero_entries`` are compared by
``tobytes()`` with references written the old way: ``np.einsum`` row dots,
J's diagonal added in place through a strided view, and ``_zero_entries``
reading ``np.abs(c).max()``.  ``_einsum`` is NumPy's C kernel, which
``np.einsum`` calls with the operands alone, and it is compared with
``np.einsum`` on every subscript and shape that the library passes.  The
cached per-dimension constants are read-only.

The catalog's lean forms around the kernel are compared the same way with
the forms they replaced: the sign-pattern test of a root, the degree
balance target in integers, the Armijo factors and fraction rows of a
line-search pass, the kernels on the pass's stack of points with its
zero-distance guard, the canonical sort key,
``_all_equal``, a model's absolute measures under one errstate, and the
volume kernel's facets gathered by ``take``.
"""

import itertools
import math

import numpy as np
import pytest

from simplexcenters import BarycentricPoint, SimplexModel, facet_volumes_of_points, fermat
from simplexcenters.barycentric import (_REL_EPS, _all_equal, _einsum, _lapack, _leave_one_out,
                                        _zero_entries)
from simplexcenters.fermat import (_ARMIJO, _FRACTIONS, _deflation, _eye, _jacobian, _positive,
                                   _signed_gradient)
from simplexcenters.isogonic import _balance_target, _canonical_key, _claimed, _has_pattern


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
    g, *terms = _signed_gradient(vertices, sigma, x)
    jac = _jacobian(*terms)
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
        for sigma, x in itertools.product(_claimed(m)[1], points):
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
    # _signed_gradient and _deflation on a line-search pass: a stack of 11
    # or 12 points against the vertices, and against one or more known roots
    for rows, k in itertools.product((len(_FRACTIONS) - 1, len(_FRACTIONS)), (m, 1, 3)):
        gaps = rng.standard_normal((rows, k, n))
        assert (_einsum("kij,kij->ki", gaps, gaps).tobytes()
                == np.einsum("kij,kij->ki", gaps, gaps).tobytes())


def test_einsum_call_forms_of_a_point_and_a_stack(monkeypatch):
    # a point keeps its two-index row dot and a stack its three-index one,
    # the forms whose bits and cost were measured; a shape-generic
    # "...ij,...ij->...i" would be a new form, to be measured anew
    subscripts = []

    def recorded(spec, *operands):
        subscripts.append(spec)
        return _einsum(spec, *operands)

    monkeypatch.setattr(fermat, "_einsum", recorded)
    rng = np.random.default_rng(47)
    vertices, sigma, known = rng.standard_normal((4, 3)), np.ones(4), rng.standard_normal((2, 3))
    x, ys = rng.standard_normal(3), rng.standard_normal((12, 3))
    for kernel in (lambda at: _signed_gradient(vertices, sigma, at),
                   lambda at: _deflation(at, known, 4.0)):
        for at, spec in ((x, "ij,ij->i"), (ys, "kij,kij->ki")):
            subscripts.clear()
            kernel(at)
            assert subscripts == [spec]


@pytest.mark.parametrize("m", range(2, 10))
def test_cached_constants_are_read_only(m):
    assert _eye(m - 1) is _eye(m - 1) and _positive(m) is _positive(m)
    assert _claimed(m) is _claimed(m)
    assert np.array_equal(_eye(m - 1), np.eye(m - 1))
    assert np.array_equal(_positive(m), np.ones(m))
    assert [s.tolist() for s in _claimed(m)[1]] == [np.ones(m).tolist()] + [
        np.where(np.arange(m) == k, -1.0, 1.0).tolist() for k in range(m)]
    for array in (_eye(m - 1), _positive(m), *_claimed(m)[1]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 2.0


# the forms of the catalog's fixed cost that the lean forms replaced


def _old_pattern(coords: np.ndarray, sigma: np.ndarray) -> bool:
    signs = np.sign(coords)
    return bool((signs * signs[0] == sigma * sigma[0]).all())


def _old_trial_merits(vertices, sigma, ys, known, d2):
    gaps = ys[:, None] - vertices
    dist = np.sqrt(np.einsum("kij,kij->ki", gaps, gaps))
    zero = dist == 0.0
    dist[zero] = np.inf
    units = gaps / dist[..., None]
    g = sigma @ units
    if zero.any():
        for k in zero.any(axis=1).nonzero()[0]:
            g[k] = _old_signed_gradient(vertices, sigma, ys[k])[0]
    merits = np.sqrt((g[:, None] @ g[..., None])[:, 0, 0])
    if len(known):
        offsets = ys[:, None] - known
        q = np.einsum("kij,kij->ki", offsets, offsets)
        merits *= np.multiply.reduce(d2 / q + 1.0, axis=1)

    def at(k):
        dlog = (-2.0 * d2 / (q[k] * (q[k] + d2))) @ offsets[k] if len(known) else None
        return g[k], _old_jacobian(units[k], sigma / dist[k]), dlog, float(merits[k])

    return merits, at


@pytest.mark.parametrize("m", range(2, 7))
def test_sign_pattern_test_keeps_its_verdicts(m):
    # zeros of either sign, NaN and inf in any slot, and random signs, in
    # every claimed class and its negative
    rng = np.random.default_rng((43, m))
    vectors = [rng.standard_normal(m) for _ in range(50)]
    vectors += [np.where(rng.random(m) < 0.5, -1.0, 1.0) * rng.random(m) for _ in range(50)]
    for special, k in itertools.product((0.0, -0.0, np.nan, np.inf, -np.inf), range(m)):
        for base in (np.ones(m), -np.ones(m), 1.0 - 2.0 * np.eye(m)[k]):
            c = base.copy()
            c[k] = special
            vectors.append(c)
    vectors += [np.zeros(m), -np.zeros(m), np.full(m, np.nan)]
    for c, sigma in itertools.product(vectors, _claimed(m)[1]):
        for s in (sigma, -sigma):
            assert (np.bool_(_has_pattern(c, s)).tobytes()
                    == np.bool_(_old_pattern(c, s)).tobytes()), (c, s)


@pytest.mark.parametrize("m", range(2, 8))
def test_balance_target_keeps_its_value(m):
    # every sign pattern of m vertices, with pull norms below, at, above
    # and far from 1, zero and NaN
    rng = np.random.default_rng((44, m))
    for signs in itertools.product((1.0, -1.0), repeat=m):
        sigma = np.array(signs)
        for _ in range(8):
            norms = rng.choice([0.0, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5, np.nan], m)
            n = m - 1
            old = np.sign(sigma.sum()) ** n - (sigma[norms < 1.0] ** n).sum()
            new = _balance_target(sigma.tolist(), norms.tolist(), n)
            assert type(new) is int
            assert np.float64(new).tobytes() == old.tobytes()


def test_armijo_factors_and_fraction_rows_keep_their_bits():
    # the rows and factors of a pass, after a full step (fractions 1/2 ...)
    # and after a crawl (all twelve), as each pass formed them
    rng = np.random.default_rng(45)
    assert not _FRACTIONS.flags.writeable and not _ARMIJO.flags.writeable
    for first, n in itertools.product((0, 1), range(1, 9)):
        fractions = 0.5 ** np.arange(12)[first:]
        for merit in [*rng.random(5) * 10.0 ** rng.integers(-300, 300, 5), 0.0, np.inf, np.nan]:
            assert ((_ARMIJO[first:] * merit).tobytes()
                    == ((1.0 - 1e-4 * fractions) * merit).tobytes())
        x, step = rng.standard_normal(n), rng.standard_normal(n)
        assert ((x + _FRACTIONS[first:, None] * step).tobytes()
                == (x + fractions[:, None] * step).tobytes())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("roots", [0, 1, 3])
def test_trial_merits_zero_guard_keeps_its_bits(n, roots):
    # passes with no row at a vertex, one, and several, some at a known
    # root, through the kernels' stack forms and M |g_sigma| per row as
    # _newton forms it, against the pass that guarded every pass
    rng = np.random.default_rng((46, n, roots))
    for hits in (0, 1, 3):
        vertices = rng.standard_normal((n + 1, n))
        sigma = rng.choice([-1.0, 1.0], n + 1)
        known = rng.standard_normal((roots, n))
        ys = rng.standard_normal(n) + _FRACTIONS[:, None] * rng.standard_normal(n)
        for row in rng.choice(12, hits, replace=False):
            ys[row] = vertices[rng.integers(n + 1)]
        if roots:
            ys[rng.integers(12)] = known[0]
        with np.errstate(all="ignore"):   # M is inf at a known root, as in _newton
            g, units, weights = _signed_gradient(vertices, sigma, ys.copy())
            weight, dlog = _deflation(ys.copy(), known, 4.0) if roots else (1.0, None)
            merits = np.sqrt((g[:, None] @ g[..., None])[:, 0, 0]) * weight
            old_merits, old_at = _old_trial_merits(vertices, sigma, ys.copy(), known, 4.0)
            assert merits.tobytes() == old_merits.tobytes()
            for k in range(12):
                old_g, old_jac, old_dlog, old_merit = old_at(k)
                assert (g[k].tobytes(), _jacobian(units[k], weights[k]).tobytes()) == (
                    old_g.tobytes(), old_jac.tobytes())
                assert (dlog is None) == (old_dlog is None) == (roots == 0)
                assert dlog is None or dlog[k].tobytes() == old_dlog.tobytes()
                assert np.float64(merits[k]).tobytes() == np.float64(old_merit).tobytes()


def _old_canonical_key(point):
    c = point.normalized_coords
    neg = (c < 0).nonzero()[0]
    return (0, -1, 0.0) if neg.size == 0 else (1, int(neg[0]), float(c[neg[0]]))


def test_canonical_key_keeps_its_value():
    rng = np.random.default_rng(48)
    points = [BarycentricPoint(rng.standard_normal(m) + 0.3)
              for m in range(2, 8) for _ in range(50)]
    points += [BarycentricPoint([1.0, 0.0, -0.0, 2.0]), BarycentricPoint([-0.0, 1.0, 1e-300])]
    for point in points:
        if point.is_finite():
            key, old = _canonical_key(point), _old_canonical_key(point)
            assert key == old and [type(v) for v in key] == [type(v) for v in old]
            assert np.float64(key[2]).tobytes() == np.float64(old[2]).tobytes()


@pytest.mark.parametrize("c", [
    np.array([1.0, 1.0 + 1e-14, 1.0]), np.array([2.0, -2.0]), np.array([np.nan, 1.0]),
    np.array([np.inf, np.inf]), np.zeros(3), np.array([-0.0, 0.0]), np.array([1e-300, 1e-310]),
], ids=["close", "opposite", "nan", "infs", "all-zero", "signed-zeros", "subnormal"])
def test_all_equal_keeps_its_verdicts(c):
    with np.errstate(invalid="ignore"):   # inf - inf
        old = (float(np.maximum.reduce(c) - np.minimum.reduce(c))
               <= _REL_EPS * float(np.abs(c).max()))
        assert _all_equal(c) == old


@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
def test_model_absolute_measures_keep_their_bits(scale):
    # edges, total volume and facet volumes as _absolute scales each, one
    # errstate for the three: inf or 0 beyond float range, silently
    rng = np.random.default_rng(49)
    for n in range(1, 8):
        model = SimplexModel(scale * rng.standard_normal((n + 1, n)))
        gram = model._local[1:] @ model._local[1:].T
        det = float(_lapack.det(gram, signature="d->d"))
        volume = math.sqrt(max(det, 0.0)) / math.factorial(n)
        assert model.edges.d.tobytes() == model._absolute(model._lengths).tobytes()
        assert (np.float64(model.total_volume).tobytes()
                == np.float64(model._absolute(volume, n)).tobytes())
        assert model.facet_volumes.tobytes() == model._absolute(model._facets, n - 1).tobytes()
        assert not model.edges.d.flags.writeable and not model.facet_volumes.flags.writeable


def _old_facet_volumes(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, float)
    m = points.shape[-2]
    facets = points[..., _leave_one_out(m), :]
    edges = facets[..., 1:, :] - facets[..., :1, :]
    dets = _lapack.det(edges @ edges.swapaxes(-1, -2), signature="d->d")
    return np.sqrt(np.maximum(dets, 0.0)) / math.factorial(m - 2)


@pytest.mark.parametrize("m", range(2, 14))
def test_facet_volumes_keep_their_bits(m):
    # the facets gathered by take, whose array is laid out in C order, and
    # by an index, which lays it out another way: one set, a pair as the
    # catalog stacks them, and a stack of stacks; integer and scaled points
    rng = np.random.default_rng((50, m))
    for lead in [(), (2,), (2, 3)]:
        for _ in range(40):
            points = rng.standard_normal(lead + (m, m - 1)) * 10.0 ** rng.integers(-8, 8)
            for p in (points, np.round(points)):
                assert facet_volumes_of_points(p).tobytes() == _old_facet_volumes(p).tobytes()
