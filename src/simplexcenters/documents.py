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
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .barycentric import BarycentricPoint, EdgeLengthTable, SimplexModel, embed_from_edge_lengths


class DocumentError(ValueError):
    """Invalid simplex document; the message carries the offending path."""


def parse_number(value, where: str = "value") -> float:
    if isinstance(value, bool):
        raise DocumentError(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(Fraction(value))
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"{where}: cannot parse number {value!r}") from None
    raise DocumentError(f"{where}: expected a number, got {type(value).__name__}")


@dataclass(frozen=True)
class SimplexDocument:
    """Parsed document: raw echo plus the data needed to build a model."""

    raw: dict
    name: str | None
    vertices: np.ndarray | None
    edge_dimension: int | None
    edge_values: tuple[float, ...] | None
    tolerance: float | None

    def build_model(self) -> SimplexModel:
        if self.vertices is not None:
            return SimplexModel(self.vertices)
        table = EdgeLengthTable.from_flat(self.edge_dimension, self.edge_values)
        return embed_from_edge_lengths(table)


def parse_document(obj) -> SimplexDocument:
    """Parse a document from a JSON string or an already-decoded object."""
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
        return SimplexDocument(raw=obj, name=name, vertices=verts,
                               edge_dimension=None, edge_values=None,
                               tolerance=tolerance)

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
    parsed = tuple(parse_number(v, f"edge_lengths.values[{k}]")
                   for k, v in enumerate(values))
    for k, v in enumerate(parsed):
        if v <= 0:
            raise DocumentError(f"edge_lengths.values[{k}]: must be positive")
    return SimplexDocument(raw=obj, name=name, vertices=None,
                           edge_dimension=dim, edge_values=parsed,
                           tolerance=tolerance)


def load_document(path: str) -> SimplexDocument:
    if path == "-":
        return parse_document(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise DocumentError(f"cannot read document {path!r}: {exc.strerror}") from None


def parse_point_arg(text: str, n: int) -> BarycentricPoint:
    """Parse an inline barycentric point: comma or colon separated numbers."""
    sep = ":" if ":" in text else ","
    parts = [s.strip() for s in text.split(sep) if s.strip()]
    if len(parts) != n + 1:
        raise DocumentError(f"point needs {n + 1} coordinates, got {len(parts)}")
    coords = [parse_number(s, f"point[{k}]") for k, s in enumerate(parts)]
    return BarycentricPoint.homogeneous(coords)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def round12(x: float) -> float:
    return float(round(float(x), 12))


def fmt(x: float) -> str:
    return f"{float(x):.12f}"


def fmt_list(values) -> str:
    return "[" + ", ".join(fmt(v) for v in values) + "]"


def fraction_strings(values, max_den: int = 10 ** 6,
                     rel_tol: float = 1e-13) -> list[str] | None:
    """Exact-looking fraction renderings, or None unless every entry snaps."""
    out = []
    for v in values:
        frac = Fraction(float(v)).limit_denominator(max_den)
        if abs(float(frac) - float(v)) > rel_tol * max(1.0, abs(float(v))):
            return None
        out.append(f"{frac.numerator}/{frac.denominator}"
                   if frac.denominator != 1 else f"{frac.numerator}")
    return out


def point_payload(point: BarycentricPoint, residual: float | None = None,
                  iterations: int | None = None, fractions: bool = False) -> dict:
    """JSON-ready record with normalized and homogeneous renderings."""
    payload = {
        "normalized": [round12(v) for v in point.normalized_coords],
        "homogeneous": [round12(v) for v in point.report_scaled()],
    }
    if fractions:
        fr = fraction_strings(point.normalized_coords)
        if fr is not None:
            payload["normalized_fractions"] = fr
    if residual is not None:
        payload["residual"] = float(f"{residual:.6e}")
    if iterations is not None:
        payload["iterations"] = int(iterations)
    return payload


def render_point_lines(name: str, payload: dict, indent: str = "  ") -> list[str]:
    lines = [f"{name}"]
    lines.append(f"{indent}normalized   " +
                 "[" + ", ".join(fmt(v) for v in payload["normalized"]) + "]")
    lines.append(f"{indent}homogeneous  " +
                 "[" + ", ".join(fmt(v) for v in payload["homogeneous"]) + "]")
    if "normalized_fractions" in payload:
        lines.append(f"{indent}fractions    " +
                     "[" + ", ".join(payload["normalized_fractions"]) + "]")
    tail = []
    if "residual" in payload:
        tail.append(f"residual {payload['residual']:.3e}")
    if "iterations" in payload:
        tail.append(f"iterations {payload['iterations']}")
    if tail:
        lines.append(f"{indent}" + "   ".join(tail))
    return lines
