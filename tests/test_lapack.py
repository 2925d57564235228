"""The library calls NumPy's LAPACK gufuncs directly (``barycentric._lapack``).
Each call, in the shapes the library passes, returns what ``np.linalg``
returns, byte for byte, and so do ``_norms`` and a 1-D ``math.sqrt(v @ v)``
against ``np.linalg.norm``; a singular Jacobian solves to an all-NaN step,
with no warning under the Newton kernel's errstate, and a Gram matrix that is
not positive definite factors to NaN, so the embedding raises what it raised
when ``np.linalg.cholesky`` signalled ``LinAlgError``.  No module but
``verify`` calls ``np.linalg`` or ``np.einsum``."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from simplexcenters import Degenerate, EdgeLengthTable, NotEmbeddable, embed_from_edge_lengths
from simplexcenters.barycentric import (
    _lapack,
    _leave_one_out,
    _norms,
    facet_volumes_of_points,
)
from simplexcenters.fermat import _jacobian, _signed_gradient

SRC = Path(__file__).resolve().parents[1] / "src" / "simplexcenters"


def _jacobian_and_gradient(rng: np.random.Generator, n: int):
    """J and g_sigma at a random point of a random n-simplex, one-negative
    sigma; a segment's J is 0, so for n = 1 a random 1x1 system."""
    if n == 1:
        return rng.standard_normal((1, 1)), rng.standard_normal(1)
    vertices = rng.standard_normal((n + 1, n))
    sigma = np.where(np.arange(n + 1) == n, -1.0, 1.0)
    g, *terms = _signed_gradient(vertices, sigma, rng.standard_normal(n))
    return _jacobian(*terms), g


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


def _local_vertices(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random n-simplex's vertices in a model's frame: vertex 0 at the origin."""
    local = rng.standard_normal((n + 1, n))
    return local - local[0]


@pytest.mark.parametrize("n", range(1, 13))
def test_model_and_embedding_calls_match_np_linalg(n):
    rng = np.random.default_rng((38, n))
    for _ in range(3):
        local = _local_vertices(rng, n)
        # the vertex-0 Gram matrix: _gram_defect, the volume, the embedding
        gram = local[1:] @ local[1:].T
        assert (_lapack.eigvalsh_lo(gram, signature="d->d").tobytes()
                == np.linalg.eigvalsh(gram).tobytes())
        assert (_lapack.cholesky_lo(gram, signature="d->d").tobytes()
                == np.linalg.cholesky(gram).tobytes())
        assert _lapack.det(gram, signature="d->d").tobytes() == np.linalg.det(gram).tobytes()
        # SimplexModel._affine: the (n+1) x (n+1) affine system
        system = np.ones((n + 1, n + 1))
        system[:n] = local.T
        inv = _lapack.inv(system, signature="d->d")
        assert inv.tobytes() == np.linalg.inv(system).tobytes()
        # the circumcenter and apollonian._common_points: 2 local[1:] e = b
        for b in (np.add.reduce(local[1:] * local[1:], axis=1), rng.standard_normal(n)):
            e = _lapack.solve1(2.0 * local[1:], b, signature="dd->d")
            assert e.tobytes() == np.linalg.solve(2.0 * local[1:], b).tobytes()
            assert math.sqrt(e @ e) == float(np.linalg.norm(e))
        # pairwise lengths, normals, residuals
        gaps = local[:, None, :] - local[None, :, :]
        assert _norms(gaps, 2).tobytes() == np.linalg.norm(gaps, axis=2).tobytes()
        assert _norms(inv[:, :n], 1).tobytes() == np.linalg.norm(inv[:, :n], axis=1).tobytes()


@pytest.mark.parametrize("edges", [
    [1, 1, 1, 1, 1, 1.95],   # every face a triangle, no apex closes it
    [1, 2, 3, 1, 2, 1],      # four points on a line
], ids=["not-embeddable", "collinear"])
def test_a_gram_matrix_that_is_not_positive_definite_factors_to_nan(edges):
    sq = EdgeLengthTable.from_flat(3, edges).d ** 2
    gram = 0.5 * (sq[0, 1:, None] + sq[0, None, 1:] - sq[1:, 1:])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram)
    with np.errstate(invalid="ignore"):   # as in the embedding
        lower = _lapack.cholesky_lo(gram, signature="d->d")
    assert np.isnan(lower).all()


@pytest.mark.parametrize("n, edges, error, message", [
    (3, [1, 1, 1, 1, 1, 1.95], NotEmbeddable,
     "no Euclidean simplex (Gram eigenvalue -7.228e-02)"),
    (3, [1, 2, 3, 1, 2, 1], Degenerate, "vertices are affinely dependent"),
    (2, [1, 2, 1e300], NotEmbeddable, "no Euclidean simplex (Gram eigenvalue -2.787e-01)"),
], ids=["not-embeddable", "collinear", "overflowing"])
def test_a_failed_factor_raises_the_spectrum_verdict(n, edges, error, message):
    # the class and message that np.linalg.cholesky's LinAlgError led to
    with pytest.raises(error) as caught:
        embed_from_edge_lengths(EdgeLengthTable.from_flat(n, edges))
    assert str(caught.value) == message


def _linalg_names(path: Path) -> set[str]:
    """The names a module reads from ``np.linalg`` or imports from ``numpy.linalg``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names.update(alias.name for alias in node.names)
    return names


def test_one_linear_algebra_path():
    # the reference checks in verify stay on np.linalg, as an outside oracle
    used = {(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.stem != "verify"
            for name in _linalg_names(path)}
    assert used == {("barycentric", "_umath_linalg")}


def _einsum_calls(path: Path) -> int:
    """How often a module reads ``einsum`` from NumPy: ``np.einsum`` or an import."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr == "einsum"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            count += 1
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            count += sum(alias.name == "einsum" for alias in node.names)
    return count


def test_one_einsum_path():
    # the row dots call barycentric._einsum, NumPy's C kernel, bound once;
    # the reference checks in verify may keep np.einsum
    assert {path.stem: _einsum_calls(path) for path in sorted(SRC.glob("*.py"))
            if path.stem != "verify" and _einsum_calls(path)} == {}
