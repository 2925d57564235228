"""Inputs, operations and correctness oracles of the benchmark's workloads.

The shapes of every workload come from the fixed ``CATALOG_SEED``, so each
run meets simplices of the same geometric difficulty.  The ``--seed`` of a
run draws a pose for each simplex (see ``pose``) and the order of the
operations, so two seeds feed the library different numbers that it
rounds alike: every op takes the same iterations, and fails or succeeds
alike, under every seed.

Each workload exposes ``cases`` and four methods:

* ``run(case)`` is one operation ("op"): the only code that is timed;
* ``check(case, out)`` is the oracle, an error message or ``None``;
* ``fingerprint(out)`` must repeat exactly when an input is run again;
* ``stats(case, out)`` returns the counts that feed workload metrics.

The library is reached through module attributes looked up at call time,
so the wrappers that the traced run installs see every call.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

CATALOG_SEED = 2104

# Smallest accepted lambda_min / lambda_max of the centred Gram matrix of
# generated vertices: eight orders above double round-off, so a Degenerate
# raised on such an input is a program failure, not bad data.
MIN_GRAM_RATIO = 1e-8

SIZES = ("full", "tiny")


@dataclass
class Case:
    """One input of a workload; ``args`` go to the library unchanged."""

    label: str
    n: int
    args: tuple
    vertices: np.ndarray | None = None   # generating vertices, when known
    reference: bool = False
    verified: object = None              # fingerprint of the checked output
    op_stats: dict | None = None


def gram_ratio(vertices: np.ndarray) -> float:
    """lambda_min / lambda_max of the Gram matrix of the centred vertices."""
    centred = vertices - vertices.mean(axis=0)
    ev = np.linalg.eigvalsh(centred.T @ centred)
    return float(ev[0] / ev[-1])


def checked_shape(vertices: np.ndarray, label: str) -> np.ndarray:
    ratio = gram_ratio(vertices)
    if not ratio > MIN_GRAM_RATIO:
        raise ValueError(f"generated input {label} is near-degenerate "
                         f"(Gram ratio {ratio:.2e})")
    return vertices


def pose(vertices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Copy of a simplex with some of its axes reflected.

    A reflection is exact in floating point and commutes with the
    library's rounding, so an op on the copy takes the same iterations as
    on the original.  Rotations, scalings by powers of two, axis
    permutations and vertex renumberings do not: some searches here are so
    sensitive to rounding that a rotated copy of one triangle took 418
    iterations in one pose and 20417 in another, and the others changed
    the iteration counts of some ``enumerate_isogonic`` and
    ``fermat_point`` calls.  Edge lengths do not change under a
    reflection, so ``edge-docs`` meets the same documents under every
    seed, in another order.
    """
    return vertices * rng.choice([-1.0, 1.0], vertices.shape[1])


def gaussian_simplex(rng: np.random.Generator, n: int, label: str) -> np.ndarray:
    return checked_shape(rng.standard_normal((n + 1, n)), label)


def obtuse_triangle(rng: np.random.Generator, label: str) -> np.ndarray:
    """Triangle whose angle at vertex 0 is at least 120 degrees."""
    a = math.radians(rng.uniform(120.0, 160.0))
    b = math.radians(rng.uniform(5.0, 175.0 - math.degrees(a)))
    c = math.pi - a - b
    side_b, side_c = math.sin(b), math.sin(c)     # law of sines
    verts = np.array([[0.0, 0.0], [side_c, 0.0],
                      [side_b * math.cos(a), side_b * math.sin(a)]])
    return checked_shape(verts, label)


def antipedal_spread(vertices: np.ndarray, x: np.ndarray) -> float:
    """Relative facet-volume spread of the antipedal simplex of x.

    Facet i of the antipedal simplex passes through vertex i perpendicular
    to x - A_i; computed here without the library.
    """
    m = len(vertices)
    normals = x[None, :] - vertices
    offsets = np.einsum("ij,ij->i", normals, vertices)
    corners = np.empty_like(vertices)
    for i in range(m):
        rows = [j for j in range(m) if j != i]
        corners[i] = np.linalg.solve(normals[rows], offsets[rows])
    vols = []
    for i in range(m):
        facet = np.delete(corners, i, axis=0)
        edges = facet[1:] - facet[0]
        vols.append(math.sqrt(max(float(np.linalg.det(edges @ edges.T)), 0.0)))
    vols = np.array(vols)
    return float((vols.max() - vols.min()) / vols.mean())


def coord_error(coords, expected) -> float:
    return float(np.abs(np.asarray(coords, float) - np.asarray(expected, float)).max())


class IsogonicCatalogWorkload:
    """An op is one ``enumerate_isogonic(model)`` call."""

    name = "isogonic-catalog"
    # (dimension, count) of the random shapes; the reference tetrahedron
    # comes on top.  Triangles keep the median op short; the tetrahedra and
    # 4-simplices carry the slow, partly non-converging searches.
    MIX = {"full": ((2, 30), (3, 8), (4, 2)), "tiny": ((2, 2),)}

    def __init__(self, lib, seed: int, size: str):
        self.lib = lib
        verify = lib.verify
        shapes = np.random.default_rng((CATALOG_SEED, 1))
        poses = np.random.default_rng((seed, 1))
        ref = np.array(verify.FIVE_ISOGONIC_DOC["vertices"], float)
        verts = pose(ref, poses)
        self.cases = [Case("five-isogonic", 3, (lib.SimplexModel(verts),),
                           vertices=verts, reference=True)]
        for n, count in self.MIX[size]:
            for k in range(count):
                label = f"gauss-n{n}-{k}"
                verts = pose(gaussian_simplex(shapes, n, label), poses)
                self.cases.append(Case(label, n, (lib.SimplexModel(verts),),
                                       vertices=verts))
        self.order = list(poses.permutation(len(self.cases)))

    def run(self, case):
        return self.lib.isogonic.enumerate_isogonic(*case.args)

    def fingerprint(self, out):
        coords = [tuple(p.normalized_coords) for p in out.isogonic_points]
        return tuple(coords), len(out.failed_seeds)

    def check(self, case, out):
        lib, model = self.lib, case.args[0]
        if case.reference:
            if len(out) != 5:
                return f"reference catalog has {len(out)} points, expected 5"
            err = max(max(coord_error(p.normalized_coords, t) for p, t in
                          zip(out.conjugate_points, lib.verify.CONJUGATE_TABLE)),
                      max(coord_error(p.normalized_coords, t) for p, t in
                          zip(out.isogonic_points, lib.verify.ISOGONIC_TABLE)))
            return None if err <= 1e-9 else f"reference catalog off by {err:.2e}"
        for k, p in enumerate(out.isogonic_points):
            if case.n == 3:
                ok, _ = lib.isogonic.triad_angle_check(p, model, tol=1e-7)
                if not ok:
                    return f"isogonic point {k} fails the triad angle check"
            else:
                x = case.vertices.T @ p.normalized_coords
                spread = antipedal_spread(case.vertices, x)
                if not spread <= 1e-7:
                    return f"isogonic point {k}: antipedal facet spread {spread:.2e}"
        return None

    def stats(self, case, out):
        seeds = out.traces + out.failed_seeds
        return {
            "isogonic_points": len(out),
            "failed_seeds": len(out.failed_seeds),
            "seeds_tried": len(self.lib.isogonic.default_seeds(case.args[0])),
            "damped_seeds": sum(t.damping_used < 1.0 for t in seeds),
            "reported_seeds": len(seeds),
        }


class FermatSolveWorkload:
    """An op is one ``fermat_point(model, start, method)`` call."""

    name = "fermat-solve"
    # random simplices per dimension, and triangles with an angle >= 120
    # degrees whose minimizer is a vertex
    MIX = {"full": (range(2, 9), 4, 4), "tiny": (range(2, 4), 1, 1)}

    def __init__(self, lib, seed: int, size: str):
        self.lib = lib
        shapes = np.random.default_rng((CATALOG_SEED, 2))
        poses = np.random.default_rng((seed, 2))
        dims, per_dim, obtuse = self.MIX[size]
        ref = np.array(lib.verify.FIVE_ISOGONIC_DOC["vertices"], float)
        simplices = [("five-isogonic", ref, True)]
        simplices += [(f"gauss-n{n}-{k}", gaussian_simplex(shapes, n, f"n{n}-{k}"), False)
                      for n in dims for k in range(per_dim)]
        simplices += [(f"obtuse-{k}", obtuse_triangle(shapes, f"obtuse-{k}"), False)
                      for k in range(obtuse)]
        self.cases = []
        for label, verts, reference in simplices:
            m = verts.shape[0]
            interior = shapes.dirichlet(np.ones(m))
            verts = pose(verts, poses)
            model = lib.SimplexModel(verts)
            for start_label, start in (("centroid", np.ones(m)),
                                       ("interior", interior)):
                for method in ("q", "r"):
                    self.cases.append(Case(
                        f"{label}-{start_label}-{method}", m - 1,
                        (model, start, method), vertices=verts,
                        reference=reference))
        self.order = list(poses.permutation(len(self.cases)))

    def run(self, case):
        model, start, method = case.args
        return self.lib.fermat.fermat_point(model, start, method)

    def fingerprint(self, out):
        point, trace = out
        return tuple(point.coords), trace.iterations_used, trace.vertex_optimum

    def check(self, case, out):
        point, _ = out
        verts = case.vertices
        p = point.normalized_coords
        x = verts.T @ p
        gaps = x[None, :] - verts
        dist = np.linalg.norm(gaps, axis=1)
        diameter = max(np.linalg.norm(a - b) for a, b in itertools.combinations(verts, 2))
        k = int(np.argmin(dist))
        if dist[k] <= 1e-9 * diameter:
            others = np.delete(gaps, k, axis=0) / np.delete(dist, k)[:, None]
            pull = float(np.linalg.norm(others.sum(axis=0)))
            if pull > 1.0 + 1e-12:
                return f"vertex {k} is not optimal (pull {pull:.3e} > 1)"
            return None
        grad = float(np.linalg.norm((gaps / dist[:, None]).sum(axis=0)))
        if not grad <= 1e-7:
            return f"distance-sum gradient norm {grad:.2e} > 1e-7"
        if case.reference:
            err = coord_error(p, self.lib.verify.ISOGONIC_TABLE[0])
            if err > 1e-9:
                return f"reference Fermat point off by {err:.2e}"
        return None

    def stats(self, case, out):
        return {"vertex_optimum": int(out[1].vertex_optimum)}


class EdgeDocsWorkload:
    """An op is one JSON document through parse, centers, isodynamic, report."""

    name = "edge-docs"
    MIX = {"full": (range(2, 13), 10), "tiny": (range(2, 5), 1)}

    def __init__(self, lib, seed: int, size: str):
        self.lib = lib
        shapes = np.random.default_rng((CATALOG_SEED, 3))
        poses = np.random.default_rng((seed, 3))
        dims, per_dim = self.MIX[size]
        self.cases = []
        for n in dims:
            for k in range(per_dim):
                label = f"gauss-n{n}-{k}"
                verts = pose(gaussian_simplex(shapes, n, label), poses)
                values = [float(np.linalg.norm(verts[i] - verts[j]))
                          for i, j in itertools.combinations(range(n + 1), 2)]
                doc = {"name": label,
                       "edge_lengths": {"dimension": n, "values": values}}
                self.cases.append(Case(label, n, (json.dumps(doc),), vertices=verts))
        for name, doc in lib.verify.BUILTIN_DOCUMENTS.items():
            n = (doc["edge_lengths"]["dimension"] if "edge_lengths" in doc
                 else len(doc["vertices"]) - 1)
            self.cases.append(Case(name, n, (json.dumps(doc),), reference=True))
        self.order = list(poses.permutation(len(self.cases)))

    def run(self, case):
        cli = self.lib.cli
        doc = self.lib.documents.parse_document(case.args[0])
        centers = cli.cmd_centers(doc, {})
        isodynamic = cli.cmd_isodynamic(doc, {})
        text = cli.render_report(centers) + "\n" + cli.render_report(isodynamic)
        return centers, isodynamic, text

    def fingerprint(self, out):
        return out[2]

    def check(self, case, out):
        lib = self.lib
        _, iso, _ = out
        doc = lib.documents.parse_document(case.args[0])
        model = doc.build_model()
        verts = model.vertices
        if doc.edge_values is not None:
            realized = [float(np.linalg.norm(verts[i] - verts[j]))
                        for i, j in itertools.combinations(range(case.n + 1), 2)]
            values = np.array(doc.edge_values)
            err = float(np.abs(np.array(realized) - values).max() / values.max())
            if err > 1e-10:
                return f"embedded edge lengths off by {err:.2e} (relative)"
        results = iso["results"]
        weights = np.abs(np.array(results["weights"]["normalized"]))
        for k, payload in enumerate(results["points"]):
            x = verts.T @ np.array(payload["normalized"])
            w = np.linalg.norm(verts - x[None, :], axis=1) * weights
            resid = float(w.max() - w.min()) / float(w.max())
            if not (resid <= 1e-8 and payload["residual"] <= 1e-8):
                return f"isodynamic point {k} residual {resid:.2e}"
        if case.label == lib.verify.GAP_TETRAHEDRON_DOC["name"] and results["count"] != 0:
            return f"gap tetrahedron gave {results['count']} isodynamic points"
        if case.label == lib.verify.FIVE_ISOGONIC_DOC["name"]:
            found = [p["normalized"] for p in results["points"]]
            if len(found) != 2 or max(coord_error(p, t) for p, t in
                                      zip(found, lib.verify.ISODYNAMIC_TABLE)) > 1e-8:
                return "five-isogonic isodynamic points differ from the table"
        return None

    def stats(self, case, out):
        return {"isodynamic_points": out[1]["results"]["count"]}


WORKLOADS = {w.name: w for w in (IsogonicCatalogWorkload, FermatSolveWorkload,
                                  EdgeDocsWorkload)}
