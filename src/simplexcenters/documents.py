"""Simplex document parsing and report building for the command line.

A document is a JSON object describing one simplex, either by Cartesian
vertices or by edge lengths listed pairwise in lexicographic order:

    {"name": "box", "vertices": [[0,0,0],[6,0,0],[0,8,0],[2,2,6]]}
    {"edge_lengths": {"dimension": 3, "values": [13, 11, 9, 12, 5, 11]}}

Numbers may be written as JSON numbers or as exact fraction strings
("3/4"), so rational inputs survive ingestion unchanged.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .barycentric import BarycentricPoint, EdgeLengthTable, SimplexModel, embed_from_edge_lengths


class DocumentError(ValueError):
    """Invalid simplex document; the message carries the offending path."""


def parse_number(value, where: str = "value") -> float:
    """A finite float from a JSON number or an exact fraction string."""
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise DocumentError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = float(Fraction(value) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DocumentError(f"{where}: cannot parse number {value!r}") from None
    if not math.isfinite(number):
        raise DocumentError(f"{where}: number is not finite")
    return number


@dataclass(frozen=True)
class SimplexDocument:
    """A parsed document: its raw echo, its tolerance and edge lengths (None
    for a vertex document), and the simplex model built when it was read."""

    raw: dict
    tolerance: float | None
    edge_values: tuple[float, ...] | None
    _model: SimplexModel

    def build_model(self) -> SimplexModel:
        return self._model


def read_json(path: str, what: str = "document"):
    """The JSON value in the file at ``path`` (stdin for ``-``); a file that
    cannot be read or decoded is a DocumentError naming ``what`` and path."""
    try:
        if path == "-":
            return json.loads(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        reason = exc.strerror
    except ValueError as exc:   # a UnicodeDecodeError or a JSONDecodeError
        reason = str(exc)
    raise DocumentError(f"cannot read {what} {path!r}: {reason}")


def parse_document(obj) -> SimplexDocument:
    """Parse a document from a JSON string or an already-decoded object,
    and build its simplex: a DocumentError if the schema is broken, and
    Degenerate or NotEmbeddable if the vertices or lengths are no simplex."""
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                                f"{exc.msg}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")

    known = {"name", "vertices", "edge_lengths", "tolerance"}
    for key in obj:
        if key not in known:
            raise DocumentError(f"{key}: unknown document field")

    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: expected a string")
    tolerance = None
    if "tolerance" in obj:
        tolerance = parse_number(obj["tolerance"], "tolerance")
        if tolerance <= 0:
            raise DocumentError("tolerance: must be positive")

    has_vertices = "vertices" in obj
    has_edges = "edge_lengths" in obj
    if has_vertices == has_edges:
        raise DocumentError("document needs exactly one of 'vertices' or 'edge_lengths'")

    if has_vertices:
        rows = obj["vertices"]
        if not isinstance(rows, list) or len(rows) < 3:
            raise DocumentError("vertices: expected a list of at least 3 points")
        n = len(rows) - 1
        verts = np.empty((n + 1, n))
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise DocumentError(
                    f"vertices[{i}]: expected {n} coordinates for a "
                    f"{n}-dimensional simplex on {n + 1} vertices")
            for j, cell in enumerate(row):
                verts[i, j] = parse_number(cell, f"vertices[{i}][{j}]")
        return SimplexDocument(obj, tolerance, None, SimplexModel(verts))

    spec = obj["edge_lengths"]
    if not isinstance(spec, dict):
        raise DocumentError("edge_lengths: expected an object")
    if "dimension" not in spec or "values" not in spec:
        raise DocumentError("edge_lengths: needs 'dimension' and 'values'")
    dim = spec["dimension"]
    if not isinstance(dim, int) or dim < 2:
        raise DocumentError("edge_lengths.dimension: expected an integer >= 2")
    values = spec["values"]
    expected = dim * (dim + 1) // 2
    if not isinstance(values, list) or len(values) != expected:
        raise DocumentError(
            f"edge_lengths.values: dimension {dim} needs {expected} lengths")
    # a finite float is kept as is; parse errors come first, then the first length <= 0
    parsed = tuple(v if type(v) is float and -math.inf < v < math.inf
                   else parse_number(v, f"edge_lengths.values[{k}]")
                   for k, v in enumerate(values))
    for k, x in enumerate(parsed):
        if x <= 0:
            raise DocumentError(f"edge_lengths.values[{k}]: must be positive")
    table = EdgeLengthTable.from_flat(dim, parsed)
    return SimplexDocument(obj, tolerance, parsed, embed_from_edge_lengths(table))


def load_document(path: str) -> SimplexDocument:
    return parse_document(read_json(path))


def parse_point_arg(text: str, n: int) -> BarycentricPoint:
    """Parse an inline barycentric point: comma or colon separated numbers."""
    sep = ":" if ":" in text else ","
    parts = [s.strip() for s in text.split(sep) if s.strip()]
    if len(parts) != n + 1:
        raise DocumentError(f"point needs {n + 1} coordinates, got {len(parts)}")
    coords = [parse_number(s, f"point[{k}]") for k, s in enumerate(parts)]
    return BarycentricPoint(coords)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def round12(x: float) -> float:
    return float(round(float(x), 12))


def fmt(x: float) -> str:
    return f"{float(x):.12f}"


def fmt_list(values) -> str:
    return "[" + ", ".join([f"{v:.12f}" for v in values]) + "]"


def _limit_denominator(num: int, den: int, bound: int) -> tuple[int, int]:
    """``Fraction(num, den).limit_denominator(bound)`` as a pair, in integers:
    the last continued-fraction convergent with denominator <= bound or the
    semiconvergent after it, whichever is nearer, the convergent on a tie."""
    if den <= bound:
        return num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (bound - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    if abs(p1 * den - num * q1) * q2 <= abs(p2 * den - num * q2) * q1:
        return p1, q1
    return p2, q2


def fraction_strings(values) -> list[str] | None:
    """Fraction renderings, or None unless all snap.

    A value v snaps to p/q when it lies within tol = 1e-13 * max(1, |v|)
    and q <= sqrt(1e-3 / tol).  About 3 Q^2 / pi^2 fractions with q <= Q lie
    in each unit interval, so this bound lets the snapping windows cover
    about 1e-3 of the reals near v at every magnitude.  Beyond |v| = 1e10
    the bound is below 1 and no value snaps.  The candidate p/q is
    ``Fraction(v).limit_denominator(bound)``, found in integers on
    ``v.as_integer_ratio()``, and ``p / q`` rounds as ``float`` of it does.
    Each distinct value is snapped once per call (a centroid's n+1 equal
    coordinates once), all in exact integer arithmetic on the float itself:
    no NumPy rounding enters.
    """
    out = []
    snapped: dict[float, str] = {}
    for v in values:
        v = float(v)
        text = snapped.get(v)
        if text is None:
            tol = 1e-13 * max(1.0, abs(v))
            bound = int(math.sqrt(1e-3 / tol))
            if bound < 1:
                return None
            num, den = _limit_denominator(*v.as_integer_ratio(), bound)
            if abs(num / den - v) > tol:
                return None
            text = snapped[v] = f"{num}/{den}" if den != 1 else f"{num}"
        out.append(text)
    return out


def point_payload(point: BarycentricPoint, residual: float | None = None,
                  iterations: int | None = None, fractions: bool = False) -> dict:
    """JSON-ready record with normalized and homogeneous renderings; a
    direction (a point at infinity) has no normalized one, and reads None,
    and asked for fractions raises ``PointAtInfinity``.

    Each rendering reads its coordinates as one Python float list and rounds
    every entry with ``round(v, 12)``, which is ``round12`` on a float:
    correctly rounded, where ``np.round`` scales by 10**12 and may land one
    unit off in the last place.  Fractions snap the same unrounded floats.
    """
    coords = point.coords.tolist()
    finite = point.is_finite()
    payload = {
        "normalized": [round(v, 12) for v in coords] if finite else None,
        "homogeneous": [round(v, 12) for v in point.report_scaled().tolist()],
    }
    if fractions:
        # a finite point's coords are its normalized ones; a direction raises
        fr = fraction_strings(coords if finite else point.normalized_coords)
        if fr is not None:
            payload["normalized_fractions"] = fr
    if residual is not None:
        payload["residual"] = float(f"{residual:.6e}")
    if iterations is not None:
        payload["iterations"] = int(iterations)
    return payload


def render_point_lines(name: str, payload: dict) -> list[str]:
    lines = [f"{name}"]
    normalized = payload["normalized"]
    lines.append("  normalized   "
                 + ("none (at infinity)" if normalized is None else fmt_list(normalized)))
    lines.append("  homogeneous  " + fmt_list(payload["homogeneous"]))
    if "normalized_fractions" in payload:
        lines.append("  fractions    " +
                     "[" + ", ".join(payload["normalized_fractions"]) + "]")
    tail = []
    if "residual" in payload:
        tail.append(f"residual {payload['residual']:.3e}")
    if "iterations" in payload:
        tail.append(f"iterations {payload['iterations']}")
    if tail:
        lines.append("  " + "   ".join(tail))
    return lines
