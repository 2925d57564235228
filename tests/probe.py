"""Dump every solver output on a fixed set of simplices, and digest it.

    PYTHONPATH=src python tests/probe.py [--triangles N] [--tetrahedra N]
                                         [--four N] [--five N] [--expect HEX]
                                         [--dump FILE] [--against FILE] [--starts N]
                                         [--dims LO:HI]

The probe set is the 41 ``isogonic-catalog`` inputs of the benchmark at
seed 1, then Gaussian simplices drawn as ``standard_normal((n + 1, n))``
from ``default_rng((77, 2))`` for triangles, ``default_rng(77)`` for
tetrahedra, ``(77, 4)`` for 4-simplices and ``(77, 5)`` for 5-simplices,
kept if their ``gram_ratio`` (``bench/workloads.py``) exceeds 1e-6.  For
each simplex it writes the catalog of :func:`enumerate_isogonic` (points,
conjugates and areas), the reason, iterations and gradient evaluations of
every catalog start, and :func:`fermat_point` by both methods from the
centroid and from one Dirichlet start: its point, the same counts, and its
trace's iterates and distance sums.  Floats enter the digest by their bits.

It prints one summary line and the SHA-256 of the dump: two trees that
print the same digest computed the same bits.  The summary counts the
simplices, the catalog points, the failed catalog starts by reason, the
catalog's Newton steps (``iterations_used`` over all its starts) and those
spent in failed starts, the Fermat runs and those without an answer, and the
n >= 3 simplices with an interior minimizer whose catalog holds no point
with the bits of ``fermat_point(model, None, "q")`` (Fermat points apart).
With ``--expect HEX`` it exits 1, printing both digests, unless the digest
is ``HEX``.  ``--dump FILE``
saves each simplex's catalog points, by label, as JSON; ``--against FILE``
compares the run's points with such a dump, matching each point to one
within 1e-9 in normalized coordinates, and prints "lost L, gained G" and
then each simplex that lost a point.  ``--starts N`` runs none of this: it
solves each simplex by :func:`fermat_point` from N Dirichlet starts drawn
from ``default_rng((79, k))``, k its index, by both methods, and prints how
many solves raised, by reason; it exits 1 if any did.  ``--triangles 2000
--tetrahedra 2000 --four 500 --five 200 --starts 4`` is the 37,928-solve draw.  ``bench/workloads.py`` is
loaded from its file, by the loader of ``tests/abtime.py``, and not
changed.  ``--dims LO:HI`` runs none of this either: it sweeps the
dimensions n = LO..HI, one line each (see :func:`dimension_line`), and
exits 1 if any line fails.  Pytest does not collect this file;
``tests/test_probe.py`` runs a slice of it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
import warnings
from collections import Counter

import numpy as np

import simplexcenters
from simplexcenters import (SimplexModel, classical_centers, enumerate_isogonic,
                            equiareal_deviation, fermat_point, isodynamic_points,
                            isogonal_conjugate, pedal_simplex)
from simplexcenters import verify  # noqa: F401  read by the workloads
from simplexcenters.errors import MaxIterationsExceeded
from simplexcenters.fermat import REASONS

from abtime import _workloads

# (name, dimension, seed of the shapes, default count) of each Gaussian group
GROUPS = (("triangles", 2, (77, 2), 200), ("tetrahedra", 3, 77, 200),
          ("four", 4, (77, 4), 50), ("five", 5, (77, 5), 20))
MIN_GRAM_RATIO = 1e-6
# largest normalized-coordinate difference at which --against matches two points
SAME_POINT = 1e-9
# largest relative error of the symmedian point at which a --dims line passes
K_ERROR = 1e-12


def probe_set(counts: dict[str, int]) -> list[tuple[str, np.ndarray]]:
    """The labelled vertex arrays of the probe set, bench inputs first."""
    workloads = _workloads()
    catalog = workloads.WORKLOADS["isogonic-catalog"](simplexcenters, 1, "full")
    simplices = [(case.label, case.vertices) for case in catalog.cases]
    for name, n, seed, _ in GROUPS:
        rng = np.random.default_rng(seed)
        kept = 0
        while kept < counts[name]:
            verts = rng.standard_normal((n + 1, n))
            if workloads.gram_ratio(verts) > MIN_GRAM_RATIO:
                simplices.append((f"{name}-{kept}", verts))
                kept += 1
    return simplices


class Dump:
    """A SHA-256 fed with labelled records; floats by their bits."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, *items) -> None:
        for item in items:
            if isinstance(item, (np.ndarray, float)):
                data = np.asarray(item, dtype=float).tobytes()
            else:
                data = repr(item).encode()
            self.sha.update(len(data).to_bytes(4, "little") + data)


def _trace(dump: Dump, trace) -> None:
    dump.write(trace.seed.coords, trace.reason, trace.iterations_used,
               trace.gradient_evaluations)


def probe(counts: dict[str, int]) -> tuple[str, str, dict[str, list[list[float]]]]:
    """The summary line and the digest of the dump over the probe set, and
    each simplex's catalog points in normalized coordinates, by label."""
    dump = Dump()
    catalogs = {}
    points = solves = unsolved = steps = wasted = apart = 0
    failed = Counter()
    begin = time.perf_counter()
    simplices = probe_set(counts)
    for k, (label, verts) in enumerate(simplices):
        model = SimplexModel(verts)
        dump.write(label)
        catalog = enumerate_isogonic(model)
        for p, q, pedal, antipedal, trace in zip(
                catalog.isogonic_points, catalog.conjugate_points,
                catalog.pedal_areas, catalog.antipedal_areas, catalog.traces):
            dump.write(p.coords, q.coords, pedal, antipedal)
            _trace(dump, trace)
        for trace in catalog.failed_seeds:
            _trace(dump, trace)
        points += len(catalog)
        catalogs[label] = [p.normalized_coords.tolist() for p in catalog.isogonic_points]
        failed.update(t.reason for t in catalog.failed_seeds)
        steps += sum(t.iterations_used for t in catalog.traces + catalog.failed_seeds)
        wasted += sum(t.iterations_used for t in catalog.failed_seeds)
        interior = np.random.default_rng((78, k)).dirichlet(np.ones(model.n + 1))
        for start in (None, interior):
            for method in ("q", "r"):
                try:
                    point, trace = fermat_point(model, start, method)
                    dump.write(point.coords)
                    if (model.n > 2 and start is None and method == "q"
                            and not trace.vertex_optimum):
                        apart += not any(p.coords.tobytes() == point.coords.tobytes()
                                         for p in catalog.isogonic_points)
                except MaxIterationsExceeded as error:
                    trace = error.trace
                    unsolved += 1
                _trace(dump, trace)
                dump.write(*(p.coords for p in trace.iterates), *trace.objective_values)
                solves += 1
    seconds = time.perf_counter() - begin
    reasons = ", ".join(f"{failed[r]} {r}" for r in REASONS if failed[r])
    summary = (f"{len(simplices)} simplices, {points} points, "
               f"{failed.total()} failed starts ({reasons or 'none'}), "
               f"{steps} catalog steps, {wasted} in failed starts, "
               f"{solves} Fermat runs, {unsolved} without an answer, "
               f"{apart} catalog Fermat points apart ({seconds:.1f} s)")
    return summary, dump.sha.hexdigest(), catalogs


def fermat_draw(counts: dict[str, int], starts: int) -> tuple[str, int]:
    """Solve each simplex of the probe set by :func:`fermat_point` from
    ``starts`` Dirichlet starts drawn from ``default_rng((79, k))``, k its
    index, by both methods; a summary of the solves without an answer, and
    their number."""
    unsolved: Counter = Counter()
    solves = 0
    begin = time.perf_counter()
    simplices = probe_set(counts)
    for k, (label, verts) in enumerate(simplices):
        model = SimplexModel(verts)
        for start in np.random.default_rng((79, k)).dirichlet(np.ones(model.n + 1), starts):
            for method in ("q", "r"):
                try:
                    fermat_point(model, start, method)
                except MaxIterationsExceeded as error:
                    unsolved[error.trace.reason] += 1
                solves += 1
    reasons = ", ".join(f"{unsolved[r]} {r}" for r in REASONS if unsolved[r])
    return (f"{len(simplices)} simplices, {solves} Fermat solves, "
            f"{unsolved.total()} without an answer ({reasons or 'none'}) "
            f"({time.perf_counter() - begin:.1f} s)"), unsolved.total()


def _quietly(call):
    """``call()``'s value and "ok", or None and "warns" or the name of what
    it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except Exception as error:
            return None, type(error).__name__
    return (value, "ok") if not caught else (None, "warns")


def dimension_line(n: int) -> tuple[str, bool]:
    """One line of the ``--dims`` sweep for the Gaussian n-simplex
    ``default_rng(n).standard_normal((n + 1, n))``, and whether it passes.

    It shows whether ``classical_centers``, ``isodynamic_points`` at the
    incenter, ``fermat_point`` and ``isogonal_conjugate`` of the centroid
    return without a warning; the symmedian point's largest relative error
    against (a_i / max a)^2 over the absolute facet volumes a_i; and the
    ``equiareal_deviation`` of the pedal simplex of the Fermat point's
    conjugate: "inconclusive" where that simplex's facet volumes are all
    zero or all bit-identical, so that no spread could show, and "n/a"
    where the Fermat point is a vertex, which has no conjugate.  The line
    fails on a raise, a warning or a symmedian error above ``K_ERROR``.
    """
    begin = time.perf_counter()
    model = SimplexModel(np.random.default_rng(n).standard_normal((n + 1, n)))
    checks = {}
    centers, checks["centers"] = _quietly(lambda: classical_centers(model))
    checks["isodynamic"] = (_quietly(lambda: isodynamic_points(centers["I"], model))[1]
                            if centers else "skipped")
    fermat, checks["fermat"] = _quietly(lambda: fermat_point(model))
    checks["conjugate"] = _quietly(lambda: isogonal_conjugate(np.ones(n + 1), model))[1]
    passed = all(status == "ok" for status in checks.values())
    k_error = spread = "n/a"
    if centers:
        want = (model.facet_volumes / model.facet_volumes.max()) ** 2
        error = float(np.abs(centers["K"].normalized_coords / (want / want.sum()) - 1.0).max())
        k_error, passed = f"{error:.1e}", passed and error <= K_ERROR
    if fermat is not None and fermat[1].vertex_optimum:
        spread = "n/a (vertex optimum)"
    elif fermat is not None:
        pedal, status = _quietly(
            lambda: pedal_simplex(isogonal_conjugate(fermat[0], model), model))
        if pedal is None:
            spread, passed = status, False
        elif np.all(pedal._facets == pedal._facets[0]):   # all zero among them
            spread = "inconclusive"
        else:
            spread = f"{equiareal_deviation(pedal):.1e}"
    line = (f"n={n}: " + ", ".join(f"{name} {status}" for name, status in checks.items())
            + f"; K error {k_error}; Fermat conjugate's pedal spread {spread}"
            + f" ({time.perf_counter() - begin:.2f} s)")
    return line, passed


def compare(saved: dict[str, list[list[float]]], catalogs: dict[str, list[list[float]]],
            ) -> tuple[int, int, dict[str, int]]:
    """Points of ``saved`` with no match in ``catalogs`` (lost), points of
    ``catalogs`` with none in ``saved`` (gained), and the simplices that lost
    any with how many; over the labels of ``saved``."""
    gained, losers = 0, {}
    for label, old in saved.items():
        new = catalogs.get(label, [])
        if old and new:
            gaps = np.abs(np.array(old)[:, None] - np.array(new)[None]).max(axis=2)
            missing = int(np.count_nonzero(gaps.min(axis=1) > SAME_POINT))
            gained += int(np.count_nonzero(gaps.min(axis=0) > SAME_POINT))
        else:
            missing, gained = len(old), gained + len(new)
        if missing:
            losers[label] = missing
    return sum(losers.values()), gained, losers


def _span(text: str) -> tuple[int, int]:
    """``LO:HI`` as two integers; argparse reports anything else as invalid."""
    low, high = map(int, text.split(":"))
    return low, high


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name, _, _, default in GROUPS:
        parser.add_argument(f"--{name}", type=int, default=default, metavar="N",
                            help=f"Gaussian {name} to add (default {default})")
    parser.add_argument("--starts", type=int, metavar="N",
                        help="only solve each simplex by fermat_point from N "
                             "Dirichlet starts and count the failures; "
                             "exit 1 if any")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the dump's digest is HEX")
    parser.add_argument("--dump", metavar="FILE",
                        help="save each simplex's catalog points to FILE as JSON")
    parser.add_argument("--against", metavar="FILE",
                        help="compare the catalog points with those saved in FILE")
    parser.add_argument("--dims", metavar="LO:HI", type=_span,
                        help="only sweep the Gaussian n-simplices for n = LO..HI; "
                             "exit 1 on a raise, a warning or a symmedian error "
                             f"above {K_ERROR:g}")
    args = parser.parse_args(argv)
    if args.dims is not None:
        low, high = args.dims
        failed = 0
        for n in range(low, high + 1):
            line, passed = dimension_line(n)
            print(line if passed else line + "  FAIL", flush=True)
            failed += not passed
        print(f"n = {low}..{high}: {high - low + 1 - failed} passed, {failed} failed")
        return 1 if failed else 0
    counts = {name: getattr(args, name) for name, *_ in GROUPS}
    if args.starts is not None:
        summary, unsolved = fermat_draw(counts, args.starts)
        print(summary)
        return 1 if unsolved else 0
    summary, digest, catalogs = probe(counts)
    print(summary)
    print(digest)
    if args.dump is not None:
        with open(args.dump, "w") as file:
            json.dump(catalogs, file)
    if args.against is not None:
        with open(args.against) as file:
            lost, gained, losers = compare(json.load(file), catalogs)
        print(f"lost {lost}, gained {gained}")
        for label, count in losers.items():
            print(f"{label} lost {count}")
    if args.expect is not None and digest != args.expect:
        print(f"digest mismatch: expected {args.expect}, got {digest}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
