"""Command-line interface.

Commands operate on a simplex document (file path or ``-`` for stdin) and
print either a fixed-layout text report or, with ``--json``, a machine
report that echoes the parsed document.  Exit codes: 0 success, 2 input
error, 3 geometric error, 4 iteration budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .apollonian import isodynamic_points, yiu_triangle_test
from .barycentric import (
    BarycentricPoint,
    barycentric_square,
    circumcenter_cart,
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
    render_point_lines,
    round12,
)
from .errors import MaxIterationsExceeded, SimplexError
from .fermat import distance_sum_gradient, fermat_point
from .isogonic import enumerate_isogonic
from .verify import run_reference_checks

_CENTER_LABELS = {
    "G": "centroid",
    "I": "incenter",
    "K": "symmedian point",
    "O": "circumcenter",
}


def _center_residual(key: str, point: BarycentricPoint, model) -> float:
    """Re-validate each center against its defining property."""
    x = model.bary_to_cart(point)
    if key == "G":
        return float(np.linalg.norm(x - model.vertices.mean(axis=0)))
    if key == "I":
        dists = np.abs([model.sideplane(i).signed_distance(x)
                        for i in range(model.n + 1)])
        return float(np.ptp(dists) / dists.mean())
    if key == "K":
        square = barycentric_square(classical_centers(model)["I"])
        return float(np.abs(square.normalized_coords - point.normalized_coords).max())
    if key == "O":
        dv = np.linalg.norm(model.vertices - x[None, :], axis=1)
        return float(np.ptp(dv) / dv.mean())
    return 0.0


def cmd_centers(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    centers = classical_centers(model)
    _, radius = circumcenter_cart(model)
    results = {
        "dimension": model.n,
        "facet_volumes": [round12(v) for v in model.facet_volumes],
        "total_volume": round12(model.total_volume),
        "circumradius": round12(radius),
        "points": {},
    }
    for key in ("G", "I", "K", "O"):
        results["points"][key] = point_payload(
            centers[key], residual=_center_residual(key, centers[key], model),
            fractions=True)
        results["points"][key]["label"] = _CENTER_LABELS[key]
    return {"command": "centers", "request": {"document": doc.raw, "options": options},
            "results": results, "warnings": []}


def cmd_isodynamic(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    if options.get("point"):
        point = parse_point_arg(options["point"], model.n)
    else:
        point = classical_centers(model)["I"]
    result = isodynamic_points(point, model)

    warnings: list[str] = []
    results: dict = {
        "dimension": model.n,
        "weights": point_payload(point),
        "count": len(result.points),
        "points": [],
    }
    for pt, res in zip(result.points, result.residuals):
        results["points"].append(point_payload(pt, residual=res))
    if result.degenerate_axis:
        warnings.append(result.note or "degenerate sphere family")
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
    return {"command": "isodynamic",
            "request": {"document": doc.raw, "options": options},
            "results": results, "warnings": warnings}


def cmd_fermat(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    start = None
    if options.get("start"):
        start = parse_point_arg(options["start"], model.n)
    method = options.get("method", "q")
    tol = options.get("tolerance") or doc.tolerance or 1e-12
    max_iter = options.get("max_iter") or 10000

    point, trace = fermat_point(model, start=start, method=method,
                                tol=tol, max_iter=max_iter)
    gradient = distance_sum_gradient(model, model.bary_to_cart(point))
    results = {
        "dimension": model.n,
        "method": method,
        "point": point_payload(point, residual=float(np.linalg.norm(gradient)),
                               iterations=trace.iterations_used),
        "objective": round12(trace.objective_values[-1]),
        "converged": trace.converged,
        "vertex_optimum": trace.vertex_optimum,
    }
    warnings = []
    if trace.vertex_optimum:
        warnings.append("minimizer is a vertex (vertex optimum)")
    if options.get("trace"):
        results["trace"] = {
            "iterates": [[round12(v) for v in p.normalized_coords]
                         for p in trace.iterates],
            "objective_values": [round12(v) for v in trace.objective_values],
        }
    return {"command": "fermat", "request": {"document": doc.raw, "options": options},
            "results": results, "warnings": warnings}


def cmd_isogonic(doc: SimplexDocument, options: dict) -> dict:
    model = doc.build_model()
    seeds = None
    if options.get("seeds"):
        seeds = _parse_seeds(options["seeds"], model.n)
    budget = options.get("budget") or 20000
    tol = options.get("tolerance") or doc.tolerance or 1e-13
    catalog = enumerate_isogonic(model, seeds=seeds, budget=budget, tol=tol)

    entries = []
    for k in range(len(catalog)):
        entries.append({
            "conjugate": point_payload(catalog.conjugate_points[k]),
            "isogonic": point_payload(catalog.isogonic_points[k]),
            "pedal_area": round12(catalog.pedal_areas[k]),
            "antipedal_area": round12(catalog.antipedal_areas[k]),
            "iterations": catalog.traces[k].iterations_used,
        })
    seed_summary = [{
        "seed": [round12(v) for v in t.seed.normalized_coords],
        "converged": t.converged,
        "iterations": t.iterations_used,
    } for t in catalog.traces]
    warnings = []
    for t in catalog.failed_seeds:
        warnings.append("seed did not converge: "
                        + fmt_list(t.seed.normalized_coords))
    results = {"dimension": model.n, "count": len(catalog),
               "entries": entries, "seed_summary": seed_summary}
    return {"command": "isogonic",
            "request": {"document": doc.raw, "options": options},
            "results": results, "warnings": warnings}


def _parse_seeds(spec: str, n: int) -> list[BarycentricPoint]:
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise DocumentError("seed file must hold a JSON list of points")
        out = []
        for k, row in enumerate(data):
            if not isinstance(row, list) or len(row) != n + 1:
                raise DocumentError(f"seed[{k}]: expected {n + 1} coordinates")
            out.append(BarycentricPoint.homogeneous(
                [parse_number(v, f"seed[{k}]") for v in row]))
        return out
    return [parse_point_arg(part, n)
            for part in spec.split(";") if part.strip()]


def cmd_verify(options: dict) -> tuple[dict, int]:
    rows = run_reference_checks()
    override = options.get("tolerance")
    if override is not None:
        for row in rows:
            if row.error is not None:
                row.tol = override
                row.passed = row.error <= override
                row.tolerance = f"{override:.1e}"
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
    report = {"command": "verify", "request": {"options": options},
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
    p.add_argument("--point", help="weight point (default: incenter), e.g. '1:2:3:4'")

    p = sub.add_parser("fermat", help="minimize the distance sum to the vertices")
    add_doc(p)
    p.add_argument("--method", choices=["q", "r", "classic"], default="q")
    p.add_argument("--start", help="start point, e.g. '1:1:1:1'")
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--trace", action="store_true", help="include the full iterate trace")

    p = sub.add_parser("isogonic", help="enumerate points with equiareal antipedal simplex")
    add_doc(p)
    p.add_argument("--seeds", help="extra seeds: 'p1,p2,...;q1,q2,...' or a JSON file")
    p.add_argument("--budget", type=int, default=20000, help="iterations per seed")
    p.add_argument("--tolerance", type=float, default=1e-13)

    p = sub.add_parser("verify", help="recompute the built-in reference tables")
    p.add_argument("--json", action="store_true")
    p.add_argument("--tolerance", type=float,
                   help="override every numeric tolerance (for report demos)")
    return parser


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            report, code = cmd_verify({"tolerance": args.tolerance})
            _emit(report, args.json)
            return code

        doc = load_document(args.document)
        if args.command == "centers":
            report = cmd_centers(doc, {})
        elif args.command == "isodynamic":
            report = cmd_isodynamic(doc, {"point": args.point})
        elif args.command == "fermat":
            report = cmd_fermat(doc, {
                "method": args.method, "start": args.start,
                "tolerance": args.tolerance, "max_iter": args.max_iter,
                "trace": bool(args.trace)})
        else:
            report = cmd_isogonic(doc, {
                "seeds": args.seeds, "budget": args.budget,
                "tolerance": args.tolerance})
        _emit(report, args.json)
        return 0
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MaxIterationsExceeded as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        if getattr(exc, "trace", None) is not None and getattr(args, "trace", False):
            for p, obj in zip(exc.trace.iterates, exc.trace.objective_values):
                print("  " + fmt_list(p.normalized_coords) + "  " + fmt(obj),
                      file=sys.stderr)
        return 4
    except (SimplexError, ValueError) as exc:
        print(f"geometric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
