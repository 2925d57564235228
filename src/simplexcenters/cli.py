"""Command-line interface.

Commands operate on a simplex document (file path or ``-`` for stdin) and
print either a fixed-layout text report or, with ``--json``, a machine
report that echoes the parsed document.  Exit codes: 0 success, 2 input
error, 3 geometric error, 4 iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .apollonian import isodynamic_points, yiu_triangle_test
from .barycentric import (
    BarycentricPoint,
    _spread,
    classical_centers,
)
from .documents import (
    DocumentError,
    SimplexDocument,
    fmt,
    fmt_list,
    load_document,
    parse_number,
    parse_point_arg,
    point_payload,
    read_json,
    render_point_lines,
    round12,
)
from .errors import MaxIterationsExceeded, SimplexError
from .fermat import METHODS, _MAX_ITER, _TOL, _signed_gradient, fermat_point, total_distance
from .isogonic import enumerate_isogonic
from .verify import run_reference_checks

_CENTER_LABELS = {
    "G": "centroid",
    "I": "incenter",
    "K": "symmedian point",
    "O": "circumcenter",
}


def _center_residual(key: str, centers: dict[str, BarycentricPoint], model) -> float:
    """Re-validate a center against its defining property, in the model's frame."""
    y = model._frame(centers[key])
    if key == "G":
        gap = y - np.add.reduce(model._local) / (model.n + 1)
        return float(model._absolute(math.sqrt(gap @ gap)))
    if key in ("I", "K"):
        # sideplane distances: equal for I, proportional to the facet volumes for K
        dists = np.abs(model._heights(y))
        if key == "K":
            dists = dists / model._facets
        return _spread(dists)
    # "O": equidistant from the vertices
    return _spread(model._rays(y)[1])


def _report(command: str, doc: SimplexDocument, options: dict, results: dict,
            warnings=()) -> dict:
    """A document command's report: its request echoed, its results, its warnings."""
    return {"command": command, "request": {"document": doc.raw, "options": options},
            "results": results, "warnings": list(warnings)}


def cmd_centers(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    centers = classical_centers(model)
    results = {
        "dimension": model.n,
        "facet_volumes": [round(v, 12) for v in model.facet_volumes.tolist()],
        "total_volume": round12(model.total_volume),
        "circumradius": round12(model._absolute(model._circumcenter[1])),
        "points": {},
    }
    for key in ("G", "I", "K", "O"):
        results["points"][key] = point_payload(
            centers[key], residual=_center_residual(key, centers, model),
            fractions=True)
        results["points"][key]["label"] = _CENTER_LABELS[key]
    return _report("centers", doc, options, results)


def cmd_isodynamic(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    if options.get("point"):
        point = parse_point_arg(options["point"], model.n)
    else:
        point = BarycentricPoint(model._facets)   # the incenter
    result = isodynamic_points(point, model)

    results: dict = {
        "dimension": model.n,
        "weights": point_payload(point),
        "count": len(result.points),
        "points": [],
    }
    for pt, res in zip(result.points, result.residuals):
        results["points"].append(point_payload(pt, residual=res))
    if not result.points:
        results["verdict"] = "none exist"
        if model.n >= 3:
            coords = np.abs(point.coords[:3])
            d = model.edges.d
            verdict = yiu_triangle_test(d[1, 2], d[0, 2], d[0, 1], *coords)
            results["witness"] = point_payload(verdict.point)
            results["witness"]["outside_circumcircle"] = bool(verdict.outside)
            results["witness"]["distance"] = round12(verdict.distance)
            results["witness"]["circumradius"] = round12(verdict.circumradius)
            results["witness"]["conclusive"] = bool(verdict.outside)
    return _report("isodynamic", doc, options, results,
                   [] if result.note is None else [result.note])


def _resolved(*values):
    """The first value that is given (not None): flag, document, default."""
    return next(v for v in values if v is not None)


def cmd_fermat(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    start = None
    if options.get("start"):
        start = parse_point_arg(options["start"], model.n)
    method = options.get("method", "q")
    tol = _resolved(options.get("tolerance"), doc.tolerance, _TOL)
    max_iter = _resolved(options.get("max_iter"), _MAX_ITER)
    options = {**options, "tolerance": tol, "max_iter": max_iter}

    point, trace = fermat_point(model, start=start, method=method,
                                tol=tol, max_iter=max_iter)
    gradient = _signed_gradient(model._local, np.ones(model.n + 1), model._frame(point))[0]
    # the least subgradient norm: at a vertex optimum, the pull |g| less 1
    residual = max(0.0, math.sqrt(gradient @ gradient) - trace.vertex_optimum)
    results = {
        "dimension": model.n,
        "method": method,
        "point": point_payload(point, residual=residual,
                               iterations=trace.iterations_used),
        "objective": round12(total_distance(point, model)),
        "converged": trace.converged,
        "vertex_optimum": trace.vertex_optimum,
    }
    results["point"]["gradient_evaluations"] = trace.gradient_evaluations
    warnings = []
    if trace.vertex_optimum:
        warnings.append("minimizer is a vertex (vertex optimum)")
    if options.get("trace"):
        results["trace"] = {
            "iterates": [[round12(v) for v in p.normalized_coords]
                         for p in trace.iterates],
            "objective_values": [round12(v) for v in trace.objective_values],
        }
    return _report("fermat", doc, options, results, warnings)


def cmd_isogonic(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    seeds = _parse_seeds(options["seeds"], model.n) if options.get("seeds") else None
    catalog = enumerate_isogonic(model, seeds=seeds)

    entries = [{
        "conjugate": point_payload(conjugate),
        "isogonic": point_payload(point),
        "pedal_area": round12(pedal),
        "antipedal_area": round12(antipedal),
        "iterations": trace.iterations_used,
        "gradient_evaluations": trace.gradient_evaluations,
    } for conjugate, point, pedal, antipedal, trace in zip(
        catalog.conjugate_points, catalog.isogonic_points,
        catalog.pedal_areas, catalog.antipedal_areas, catalog.traces)]
    seed_summary = [{
        "seed": [round12(v) for v in t.seed.coords],
        "converged": t.converged,
        "iterations": t.iterations_used,
        "gradient_evaluations": t.gradient_evaluations,
    } for t in catalog.traces]
    # a finite seed's coords are its normalized ones; a direction's are as given
    warnings = [f"seed {t.reason}: {fmt_list(t.seed.coords)}"
                for t in catalog.failed_seeds]
    results = {"dimension": model.n, "count": len(catalog),
               "entries": entries, "seed_summary": seed_summary}
    return _report("isogonic", doc, options, results, warnings)


def _parse_seeds(spec: str, n: int) -> list[BarycentricPoint]:
    if os.path.exists(spec):
        data = read_json(spec, "seed file")
        if not isinstance(data, list):
            raise DocumentError("seed file must hold a JSON list of points")
        out = []
        for k, row in enumerate(data):
            if not isinstance(row, list) or len(row) != n + 1:
                raise DocumentError(f"seed[{k}]: expected {n + 1} coordinates")
            out.append(BarycentricPoint(
                [parse_number(v, f"seed[{k}]") for v in row]))
        return out
    return [parse_point_arg(part, n)
            for part in spec.split(";") if part.strip()]


def cmd_verify() -> tuple[dict, int]:
    rows = run_reference_checks()
    failed = [r for r in rows if not r.passed]
    results = {
        "checks": [{
            "name": r.name, "expected": r.expected, "computed": r.computed,
            "tolerance": r.tolerance, "passed": r.passed,
        } for r in rows],
        "total": len(rows),
        "passed": len(rows) - len(failed),
        "failed": len(failed),
    }
    report = {"command": "verify", "request": {"options": {}},
              "results": results, "warnings": []}
    return report, (0 if not failed else 1)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_report(report: dict) -> str:
    command = report["command"]
    results = report["results"]
    lines: list[str] = []

    if command == "verify":
        for row in results["checks"]:
            status = "PASS" if row["passed"] else "FAIL"
            lines.append(f"[{status}] {row['name']}")
            lines.append(f"       expected  {row['expected']}")
            lines.append(f"       computed  {row['computed']}   "
                         f"(tolerance {row['tolerance']})")
        lines.append(f"{results['total']} checks: {results['passed']} passed, "
                     f"{results['failed']} failed")
        return "\n".join(lines)

    doc = report["request"].get("document", {})
    name = doc.get("name") or "unnamed"
    lines.append(f"command: {command}")
    lines.append(f"simplex: {name} (dimension {results['dimension']})")

    if command == "centers":
        lines.append("facet volumes  " + fmt_list(results["facet_volumes"]))
        lines.append("total volume   " + fmt(results["total_volume"]))
        lines.append("circumradius   " + fmt(results["circumradius"]))
        for key, payload in results["points"].items():
            lines.extend(render_point_lines(f"{key} ({payload['label']})", payload))
    elif command == "isodynamic":
        lines.append(f"points found: {results['count']}")
        for k, payload in enumerate(results["points"], start=1):
            lines.extend(render_point_lines(f"J_{k}", payload))
        if "verdict" in results:
            lines.append("verdict: " + results["verdict"])
            if "witness" in results:
                w = results["witness"]
                lines.extend(render_point_lines("witness point", w))
                lines.append(f"  witness distance {fmt(w['distance'])} vs "
                             f"circumradius {fmt(w['circumradius'])} -> "
                             + ("outside (no common points)" if w["outside_circumcircle"]
                                else "inside (inconclusive for the full family)"))
    elif command == "fermat":
        lines.extend(render_point_lines("minimizer", results["point"]))
        lines.append("objective      " + fmt(results["objective"]))
        lines.append(f"method {results['method']}   converged {results['converged']}"
                     + ("   vertex optimum" if results["vertex_optimum"] else ""))
        if "trace" in results:
            lines.append("trace:")
            for k, (it, obj) in enumerate(zip(results["trace"]["iterates"],
                                              results["trace"]["objective_values"])):
                lines.append(f"  {k:4d}  " + fmt_list(it) + "  " + fmt(obj))
    elif command == "isogonic":
        lines.append(f"points found: {results['count']}")
        for k, entry in enumerate(results["entries"]):
            lines.extend(render_point_lines(
                f"L_{k} (equiareal pedal, area {fmt(entry['pedal_area'])})",
                entry["conjugate"]))
            lines.extend(render_point_lines(
                f"F_{k} (isogonic, antipedal area {fmt(entry['antipedal_area'])})",
                entry["isogonic"]))
        lines.append("seeds:")
        for s in results["seed_summary"]:
            lines.append(f"  {fmt_list(s['seed'])}  converged={s['converged']} "
                         f"iterations={s['iterations']}")

    warnings = report.get("warnings") or []
    lines.append("warnings: " + ("none" if not warnings else "; ".join(warnings)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _positive(kind):
    """argparse type: a finite ``kind`` above zero."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexcenters",
        description="Classical and generalized centers of n-simplices: "
                    "isodynamic and isogonic points plus the "
                    "Fermat-Torricelli point.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_doc(p):
        p.add_argument("document", help="simplex document path, or - for stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("centers", help="centroid, incenter, symmedian, circumcenter")
    add_doc(p)

    p = sub.add_parser("isodynamic", help="common points of the Apollonian spheres")
    add_doc(p)
    p.add_argument("--point", help="weight point (default: incenter), e.g. '1:2:3:4' "
                                   "or '-1:2:2:2'")

    p = sub.add_parser("fermat", help="minimize the distance sum to the vertices")
    add_doc(p)
    p.add_argument("--method", choices=METHODS, default="q")
    p.add_argument("--start", help="start point, e.g. '1:1:1:1' or '-1,2,2,2'")
    p.add_argument("--tolerance", type=_positive(float),
                   help=f"default: the document's tolerance, else {_TOL:g}")
    p.add_argument("--max-iter", type=_positive(int), help=f"default: {_MAX_ITER}")
    p.add_argument("--trace", action="store_true", help="include the full iterate trace")

    p = sub.add_parser("isogonic", help="enumerate points with equiareal antipedal simplex")
    add_doc(p)
    p.add_argument("--seeds", help="extra seeds: 'p1,p2,...;q1,q2,...' or a JSON file; "
                                   "a seed may start with a minus sign")

    p = sub.add_parser("verify", help="recompute the built-in reference tables")
    p.add_argument("--json", action="store_true")
    return parser


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        # strict JSON: a non-finite float becomes the text the plain report prints
        report = json.loads(json.dumps(report), parse_constant=lambda c: fmt(float(c)))
        print(json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    else:
        print(render_report(report))


_DOCUMENT_COMMANDS = {"centers": cmd_centers, "isodynamic": cmd_isodynamic,
                      "fermat": cmd_fermat, "isogonic": cmd_isogonic}


def main(argv=None) -> int:
    parser = build_parser()
    # a point flag, or a prefix argparse takes for one, takes the next argument
    # whole, as in --point=-1:2:2:2: argparse alone reads a separate -1:2:2:2
    # as an option
    words, joined = iter(sys.argv[1:] if argv is None else argv), []
    for word in words:
        point_flag = len(word) > 2 and any(
            flag.startswith(word) for flag in ("--point", "--start", "--seeds"))
        value = next(words, None) if point_flag else None
        joined.append(word if value is None else f"{word}={value}")
    args = parser.parse_args(joined)
    # a request echoes exactly the flags its command defines
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "document", "json")}

    try:
        if args.command == "verify":
            report, code = cmd_verify()
        else:
            report, code = _DOCUMENT_COMMANDS[args.command](
                load_document(args.document), options), 0
        _emit(report, args.json)
        return code
    except ValueError as exc:   # a DocumentError, or an argument the library refuses
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MaxIterationsExceeded as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        if exc.trace is not None and options.get("trace"):
            for p, obj in zip(exc.trace.iterates, exc.trace.objective_values):
                print("  " + fmt_list(p.normalized_coords) + "  " + fmt(obj),
                      file=sys.stderr)
        return 4
    except SimplexError as exc:
        print(f"geometric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
