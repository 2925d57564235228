"""The library's error rule and its record types, checked on awkward input.

A malformed argument raises ``ValueError`` and geometry a ``SimplexError``
subclass; nothing else escapes a public call, and no NumPy warning either
(this suite's settings turn warnings into errors).  The records that hold
arrays or points compare and hash by identity, as ``SimplexModel`` does.
"""

import functools
import itertools
import json
import math

import numpy as np
import pytest

import golden
from conftest import COLLAPSED, KUHN_TETRAHEDRON, kuhn_critical_model

from simplexcenters import (
    BarycentricPoint,
    EdgeLengthTable,
    SimplexError,
    SimplexModel,
    antipedal_simplex,
    apollonian_sphere,
    circumcenter_cart,
    classical_centers,
    collinear_cross_ratio,
    default_seeds,
    embed_from_edge_lengths,
    enumerate_isogonic,
    equiareal_deviation,
    facet_volumes_of_points,
    fermat_point,
    inversive_image,
    is_isogonic,
    isodynamic_points,
    isogonal_conjugate,
    pedal_simplex,
    polar_simplex,
    restrict_to_facet,
    sphere_family,
    total_distance,
    triad_angle_check,
    weiszfeld_step_q,
    weiszfeld_step_r,
    yiu_triangle_test,
    z_correspondent,
)
from simplexcenters.cli import main

FIVE = np.array(golden.FIVE_VERTICES, dtype=float)


def _kuhn_draws() -> dict:
    draws = {}
    for n in (3, 4, 5):
        rng = np.random.default_rng((10, n))
        for k in range(2):
            vertices = kuhn_critical_model(rng, n).vertices
            draws[f"kuhn-critical-n{n}-{k}"] = functools.partial(SimplexModel, vertices)
    return draws


MODELS = {
    "five-isogonic": lambda: SimplexModel(FIVE),
    "corner": lambda: SimplexModel([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "scale-1e308": lambda: SimplexModel(FIVE * 1.25e307),   # largest entry 1e308
    "scale-1e-300": lambda: SimplexModel(FIVE * 1e-300),
    "translated-1e15": lambda: SimplexModel(FIVE + 1e15),
    "collapsed": COLLAPSED["flat-tetrahedron"],
    "kuhn-integer": lambda: SimplexModel(KUHN_TETRAHEDRON),
    **_kuhn_draws(),
}


def points(m: int) -> dict[str, np.ndarray]:
    """Awkward coordinate vectors of length m, and the centroid."""
    direction = np.r_[m - 1.0, -np.ones(m - 1)]
    return {
        "nan": np.full(m, np.nan),
        "inf": np.full(m, np.inf),
        "-inf": np.r_[-np.inf, np.ones(m - 1)],
        "vertex": np.eye(m)[0],
        "sideplane": np.r_[0.0, np.ones(m - 1)],
        "direction": direction,
        "subnormal-direction": 1e-310 * direction,
        "1e308": np.full(m, 1e308),
        "zero": np.zeros(m),
        "centroid": np.ones(m),
    }


# every (point, model) callable of the package namespace
POINT_CALLS = {
    "apollonian_sphere": lambda p, m: apollonian_sphere(p, 0, 1, m),
    "isodynamic_points": isodynamic_points,
    "restrict_to_facet": lambda p, m: restrict_to_facet(p, m, 0),
    "sphere_family": sphere_family,
    "total_distance": total_distance,
    "weiszfeld_step_q": weiszfeld_step_q,
    "weiszfeld_step_r": weiszfeld_step_r,
    "z_correspondent": lambda p, m: z_correspondent(p, np.ones(m.n + 1), m),
    "is_isogonic": is_isogonic,
    "isogonal_conjugate": isogonal_conjugate,
    "triad_angle_check": triad_angle_check,
    "antipedal_simplex": antipedal_simplex,
    "pedal_simplex": pedal_simplex,
    "polar_simplex": polar_simplex,
    "inversive_image": lambda p, m: inversive_image(m, m.bary_to_cart(p), 1.0),
    "fermat_point": lambda p, m: fermat_point(m, start=p),
    "enumerate_isogonic": lambda p, m: enumerate_isogonic(m, seeds=[p]),
}

MODEL_CALLS = {
    "classical_centers": classical_centers,
    "circumcenter_cart": circumcenter_cart,
    "fermat_point": fermat_point,
    "enumerate_isogonic": enumerate_isogonic,
    "default_seeds": default_seeds,
    "isodynamic_points": lambda m: isodynamic_points(classical_centers(m)["I"], m),
    "equiareal_deviation": equiareal_deviation,
}


def _escapes(call) -> str | None:
    """What escapes a call that the error rule does not allow, if anything."""
    try:
        call()
    except (ValueError, SimplexError):
        return None
    except Exception as error:   # a NumPy warning included
        return f"{type(error).__name__}: {error}"
    return None


@pytest.mark.parametrize("name", MODELS)
def test_only_typed_errors_escape(name):
    model = MODELS[name]()
    escaped = [(call, "model", what) for call, f in MODEL_CALLS.items()
               if (what := _escapes(lambda: f(model)))]
    for label, p in points(model.n + 1).items():
        escaped += [(call, label, what) for call, f in POINT_CALLS.items()
                    if (what := _escapes(lambda: f(p, model)))]
    assert not escaped


# the points that are malformed arguments: not finite, or all zero
MALFORMED = ("nan", "inf", "-inf", "zero")


@pytest.mark.parametrize("name", MODELS)
def test_the_command_line_exits_2_or_3(name, tmp_path, capsys):
    # each model as a vertex document, each awkward point as the command's
    # point flag: a document that is no simplex exits 3, a malformed point 2,
    # any other geometric failure 3, and nothing raises
    model = MODELS[name]()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"vertices": model.vertices.tolist()}))
    runs = [([command], None) for command in ("centers", "isodynamic", "fermat", "isogonic")]
    for label, p in points(model.n + 1).items():
        value = ":".join(map(repr, p.tolist()))
        runs += [([command, f"{flag}={value}"], label) for command, flag in (
            ("isodynamic", "--point"), ("fermat", "--start"), ("isogonic", "--seeds"))]
    wrong = []
    for (command, *flags), label in runs:
        code = main([command, str(path), *flags])
        err = capsys.readouterr().err
        expected = (3,) if model.degenerate else (2,) if label in MALFORMED else (0, 3, 4)
        prefix = {2: "input error: ", 3: "geometric error: "}.get(code, "")
        if code not in expected or not err.startswith(prefix):
            wrong.append((command, label, code, err))
    assert not wrong


@pytest.mark.parametrize("name", [name for name in MODELS if name != "collapsed"])
def test_every_valid_model_has_a_catalog(name):
    model = MODELS[name]()
    assert not model.degenerate
    catalog = enumerate_isogonic(model)
    assert all(is_isogonic(p, model)[0] for p in catalog.isogonic_points)


def _awkward_numbers() -> list[float]:
    return [math.nan, math.inf, -math.inf, 0.0, -1.0, 1.0, 2.0,
            1e308, -1e308, 1e200, 1e-200, 1e-320]


def _cross_ratio_calls():
    # four points on one line, one awkward number as a coordinate at a time,
    # in every slot; and a point of another length
    base = [np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([2.0, 4.0]),
            np.array([-1.0, -2.0])]
    for slot, value, axis in itertools.product(range(4), _awkward_numbers(), range(2)):
        points = [p.copy() for p in base]
        points[slot][axis] = value
        yield f"{slot}:{value!r}@{axis}", lambda points=points: collinear_cross_ratio(*points)
    for slot in range(4):
        points = [*base[:slot], np.zeros(3), *base[slot + 1:]]
        yield f"{slot}:3d", lambda points=points: collinear_cross_ratio(*points)
    for i, j in itertools.combinations(range(4), 2):   # two points coincide
        points = [*base]
        points[j] = base[i]
        yield f"{i}={j}", lambda points=points: collinear_cross_ratio(*points)


def _facet_volume_calls():
    shapes = [(), (2,), (1, 2), (0, 2), (2, 0), (3, 0), (1, 0), (2, 1), (3, 2), (4, 3),
              (5, 2), (2, 3, 3)]
    for shape, value in itertools.product(shapes, _awkward_numbers()):
        points = np.zeros(shape)
        if points.size:   # the value at one entry, small distinct integers elsewhere
            points.flat = np.arange(points.size) % 3
            points.flat[-1] = value
        yield f"{shape}:{value!r}", lambda points=points: facet_volumes_of_points(points)


def _yiu_calls():
    sides = [(3, 4, 5), (1, 1, 1), (1, 1, 2), (1, 1, 3), (math.nan, 1, 1),
             (math.inf, 1, 1), (0, 1, 1), (1e-300,) * 3, (1e300,) * 3, (1e308,) * 3,
             (1e-320,) * 3, (1, 1, 1e-320), (1e308, 1e308, 1e-308)]
    weights = [math.nan, math.inf, 0.0, -1.0, 1.0, 1e200, 1e-200, 1e308, 1e-320]
    for side, weight in itertools.product(sides, itertools.product(weights, repeat=3)):
        yield f"{side}:{weight}", lambda s=side, w=weight: yiu_triangle_test(*s, *w)


def _edge_table_calls():
    dims = [-1, 0, 1, 2, 3, True, 1.5, np.int64(2)]
    values = [[], [1.0], [3, 4, 5], [1] * 6, [[1, 2], [3]], [math.nan] * 3, [math.inf] * 3,
              [0, 0, 0], [-1, 1, 1], [1, 1, 2], [1, 1, 3], [1, 1, 1.9999999999999],
              [1e308] * 3, [1e-320] * 3, [1e308, 1e-320, 1e308], [1e-310, 1, 1],
              [1e308] * 6, [1e-320] * 6, [1, 1, 1, 1, 1, 1e-320], [1, 2, 3, 4, 5, 6]]
    for n, v in itertools.product(dims, values):
        yield f"from_flat({n!r}, {v})", lambda n=n, v=v: EdgeLengthTable.from_flat(n, v)
        yield (f"embed({n!r}, {v})",
               lambda n=n, v=v: embed_from_edge_lengths(EdgeLengthTable.from_flat(n, v)))


# the public functions that take no (point, model) pair, each over awkward arguments
FREE_CALLS = {
    "collinear_cross_ratio": _cross_ratio_calls,
    "facet_volumes_of_points": _facet_volume_calls,
    "yiu_triangle_test": _yiu_calls,
    "edge tables": _edge_table_calls,
}


@pytest.mark.parametrize("name", FREE_CALLS)
def test_only_typed_errors_escape_free_calls(name):
    escaped = [(label, what) for label, call in FREE_CALLS[name]()
               if (what := _escapes(call))]
    assert not escaped


def _records() -> dict:
    model = SimplexModel(FIVE)
    point = [1.0, 2.0, 3.0, 4.0]
    return {
        "BarycentricPoint": lambda: BarycentricPoint(point),
        "EdgeLengthTable": lambda: EdgeLengthTable.from_flat(2, [3, 4, 5]),
        "ApollonianSphere": lambda: apollonian_sphere(point, 0, 1, model),
        "IsodynamicResult": lambda: isodynamic_points(point, model),
        "YiuVerdict": lambda: yiu_triangle_test(12, 11, 13, 1, 2, 3),
        "SolverTrace": lambda: fermat_point(model)[1],
        "IsogonicCatalog": lambda: enumerate_isogonic(model),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_compare_and_hash_by_identity(name):
    make = _records()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2
    assert a in [b, a] and a not in [b]


def test_an_equal_point_is_not_in_the_catalog(five_model):
    catalog = enumerate_isogonic(five_model)
    first = catalog.isogonic_points[0]
    assert first in catalog.isogonic_points
    assert BarycentricPoint(first.coords) not in catalog.isogonic_points
