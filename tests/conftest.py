import copy
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from simplexcenters import EdgeLengthTable, SimplexModel, embed_from_edge_lengths, pedal_simplex
from simplexcenters import barycentric, cli, verify

import golden


@pytest.fixture(scope="session")
def five_model() -> SimplexModel:
    return SimplexModel(golden.FIVE_VERTICES)


@pytest.fixture(scope="session")
def gap_model() -> SimplexModel:
    return embed_from_edge_lengths(EdgeLengthTable.from_flat(3, golden.GAP_EDGES))


@pytest.fixture(scope="session")
def gap_triangle() -> SimplexModel:
    return embed_from_edge_lengths(
        EdgeLengthTable.from_flat(2, golden.GAP_TRIANGLE_EDGES))


@pytest.fixture(scope="session")
def regular_tetrahedron() -> SimplexModel:
    return embed_from_edge_lengths(EdgeLengthTable.from_flat(3, [1.0] * 6))


@pytest.fixture(scope="session")
def equilateral_triangle() -> SimplexModel:
    return embed_from_edge_lengths(EdgeLengthTable.from_flat(2, [1.0, 1.0, 1.0]))


@pytest.fixture(scope="session")
def reference_rows():
    return verify.run_reference_checks()


@pytest.fixture
def cached_reference_checks(reference_rows, monkeypatch):
    """The verify command reads a fresh copy of rows computed once per session."""
    monkeypatch.setattr(cli, "run_reference_checks",
                        lambda: copy.deepcopy(reference_rows))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` and returns the list
    that records the arguments of each call; undone after the test."""
    def install(owner, name: str) -> list:
        original = getattr(owner, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls
    return install


@pytest.fixture
def lapack(monkeypatch):
    """A stand-in for ``barycentric._lapack`` holding the same gufuncs, so
    that a test may count or wrap the ones the model and the embedding
    call; undone after the test."""
    gufuncs = barycentric._lapack
    stand_in = types.SimpleNamespace(**{name: getattr(gufuncs, name)
                                        for name in dir(gufuncs) if not name.startswith("_")})
    monkeypatch.setattr(barycentric, "_lapack", stand_in)
    return stand_in


# well-conditioned random simplices, drawn as verify's seeded suites draw them
make_random_model = verify._random_simplex


def _simson_figure() -> SimplexModel:
    """The pedal figure of a point on the circumcircle: its feet lie on the
    Simson line, with vertex 0 between the other two."""
    triangle = SimplexModel([[0, 0], [4, 0], [0, 3]])
    return pedal_simplex(triangle.cart_to_bary([4.5, 1.5]), triangle)


COLLAPSED = {
    "coincident-triangle": lambda: SimplexModel([[0, 0], [0, 0], [1, 1]], validate=False),
    "coincident-tetrahedron": lambda: SimplexModel(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 0, 0]], validate=False),
    "flat-tetrahedron": lambda: SimplexModel(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], validate=False),
    "simson-line": _simson_figure,
}


def random_nonzero_point(rng: np.random.Generator, n: int) -> np.ndarray:
    """Coordinates bounded away from zero, with nonzero sum."""
    while True:
        coords = rng.uniform(0.2, 1.5, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        if abs(coords.sum()) > 0.1:
            return coords


def random_interior_point(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n + 1)) + 0.02


# an integer tetrahedron with vertex 0 on Kuhn's boundary: its pull at
# sigma = +1 is (1, 1, 1)/sqrt(3), of norm 1 up to rounding
KUHN_TETRAHEDRON = [[0, 0, 0], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]


def kuhn_critical_model(rng: np.random.Generator, n: int) -> SimplexModel:
    """An n-simplex with vertex 0 on Kuhn's boundary for one claimed sign
    class: vertex 0 at the origin, the others at random radii along unit
    directions u_i whose signed sum, all-plus or with one minus, has norm 1,
    so that the class's pull |c_0| is 1 up to rounding."""
    while True:
        sigma = np.ones(n)
        if rng.random() < 0.5:
            sigma[rng.integers(n)] = -1.0
        u = rng.standard_normal((n, n))
        u /= np.linalg.norm(u, axis=1)[:, None]
        s = sigma[:-1] @ u[:-1]
        r = float(np.linalg.norm(s))
        if not 0.0 < r < 2.0:
            continue
        # the last direction closes |s + sigma_n u_n| = 1: u_n . s = -sigma_n r^2 / 2
        along = -sigma[-1] * r / 2.0
        w = u[-1] - (u[-1] @ s) / r ** 2 * s
        u[-1] = along * s / r + math.sqrt(1.0 - along ** 2) * w / np.linalg.norm(w)
        vertices = np.zeros((n + 1, n))
        vertices[1:] = rng.uniform(0.5, 2.0, n)[:, None] * u
        model = SimplexModel(vertices, validate=False)
        if not model.degenerate:
            return model
