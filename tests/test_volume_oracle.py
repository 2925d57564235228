"""Model volumes against an independent Cayley-Menger reference.

The library measures every volume from vertex coordinates (Gram
determinants) in the model's frame.  The reference here evaluates the
bordered Cayley-Menger determinant of the input edge table in 40-digit
arithmetic, so it shares no code and no rounding with the library.
"""

import itertools

import mpmath
import numpy as np
import pytest

import golden

from simplexcenters import (
    EdgeLengthTable,
    SimplexModel,
    embed_from_edge_lengths,
    facet_volumes_of_points,
)

REL_TOL = 1e-10


def cayley_menger_volume(sq) -> mpmath.mpf:
    """k-volume of the simplex whose squared edge lengths are the (k+1)^2 table sq."""
    k = len(sq) - 1
    cm = mpmath.matrix(k + 2, k + 2)
    for i in range(1, k + 2):
        cm[0, i] = cm[i, 0] = 1
        for j in range(1, k + 2):
            cm[i, j] = sq[i - 1][j - 1]
    squared = (-1) ** (k + 1) * mpmath.det(cm) / (2 ** k * mpmath.factorial(k) ** 2)
    return mpmath.sqrt(squared)


def oracle_volumes(sq) -> tuple[mpmath.mpf, list[mpmath.mpf]]:
    """Total volume and facet volumes (facet i opposite vertex i)."""
    m = len(sq)
    facets = [cayley_menger_volume([[sq[a][b] for b in range(m) if b != i]
                                    for a in range(m) if a != i])
              for i in range(m)]
    return cayley_menger_volume(sq), facets


def exact_squares(vertices) -> list[list[mpmath.mpf]]:
    v = [[mpmath.mpf(float(x)) for x in row] for row in vertices]
    return [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in v] for p in v]


def frame_kernel_volumes(model: SimplexModel) -> np.ndarray:
    """The volume kernel on the model's frame, scaled back by the frame's
    power of two (NumPy's det rounds differently on scaled input)."""
    return np.ldexp(facet_volumes_of_points(model._local), (model.n - 1) * model._exponent)


def gaussian_table(n: int, k: int) -> EdgeLengthTable:
    verts = np.random.default_rng((1966, n, k)).standard_normal((n + 1, n))
    values = [float(np.linalg.norm(verts[i] - verts[j]))
              for i, j in itertools.combinations(range(n + 1), 2)]
    return EdgeLengthTable.from_flat(n, values)


TABLES = [pytest.param(gaussian_table(n, k), id=f"gauss-n{n}-{k}")
          for n in range(2, 13) for k in range(2)] + [
    pytest.param(EdgeLengthTable.from_flat(3, golden.GAP_EDGES), id="gap"),
    pytest.param(SimplexModel(golden.FIVE_VERTICES).edges, id="five-isogonic"),
]


@pytest.mark.parametrize("table", TABLES)
def test_edge_length_model_volumes_match_cayley_menger(table):
    model = embed_from_edge_lengths(table)
    with mpmath.workdps(40):
        sq = [[mpmath.mpf(float(x)) ** 2 for x in row] for row in table.d]
        total, facets = oracle_volumes(sq)
        assert abs(model.total_volume / total - 1) <= REL_TOL
        for got, want in zip(model.facet_volumes, facets):
            assert abs(got / want - 1) <= REL_TOL
    assert np.array_equal(model.facet_volumes, frame_kernel_volumes(model))


def test_vertex_model_volumes_match_cayley_menger(five_model):
    with mpmath.workdps(40):
        total, facets = oracle_volumes(exact_squares(golden.FIVE_VERTICES))
        assert abs(five_model.total_volume / total - 1) <= REL_TOL
        for got, want in zip(five_model.facet_volumes, facets):
            assert abs(got / want - 1) <= REL_TOL
    assert np.array_equal(five_model.facet_volumes, frame_kernel_volumes(five_model))
