"""Dump every solver output on a fixed set of simplices, and digest it.

    PYTHONPATH=src python tests/probe.py [--triangles N] [--tetrahedra N]
                                         [--four N] [--five N] [--expect HEX]

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
print the same digest computed the same bits.  With ``--expect HEX`` it
exits 1, printing both digests, unless the digest is ``HEX``.  ``bench/workloads.py`` is
loaded from its file, by the loader of ``tests/abtime.py``, and not
changed.  Pytest does not collect this file; ``tests/test_probe.py`` runs a
slice of it.
"""

from __future__ import annotations

import argparse
import hashlib
import time

import numpy as np

import simplexcenters
from simplexcenters import SimplexModel, enumerate_isogonic, fermat_point
from simplexcenters import verify  # noqa: F401  read by the workloads
from simplexcenters.errors import MaxIterationsExceeded

from abtime import _workloads

# (name, dimension, seed of the shapes, default count) of each Gaussian group
GROUPS = (("triangles", 2, (77, 2), 200), ("tetrahedra", 3, 77, 200),
          ("four", 4, (77, 4), 50), ("five", 5, (77, 5), 20))
MIN_GRAM_RATIO = 1e-6


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


def probe(counts: dict[str, int]) -> tuple[str, str]:
    """The summary line and the digest of the dump over the probe set."""
    dump = Dump()
    points = failed = solves = unsolved = 0
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
        failed += len(catalog.failed_seeds)
        interior = np.random.default_rng((78, k)).dirichlet(np.ones(model.n + 1))
        for start in (None, interior):
            for method in ("q", "r"):
                try:
                    point, trace = fermat_point(model, start, method)
                    dump.write(point.coords)
                except MaxIterationsExceeded as error:
                    trace = error.trace
                    unsolved += 1
                _trace(dump, trace)
                dump.write(*(p.coords for p in trace.iterates), *trace.objective_values)
                solves += 1
    seconds = time.perf_counter() - begin
    summary = (f"{len(simplices)} simplices, {points} points, {failed} failed starts, "
               f"{solves} Fermat runs, {unsolved} without an answer ({seconds:.1f} s)")
    return summary, dump.sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name, _, _, default in GROUPS:
        parser.add_argument(f"--{name}", type=int, default=default, metavar="N",
                            help=f"Gaussian {name} to add (default {default})")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the dump's digest is HEX")
    args = parser.parse_args(argv)
    summary, digest = probe({name: getattr(args, name) for name, *_ in GROUPS})
    print(summary)
    print(digest)
    if args.expect is not None and digest != args.expect:
        print(f"digest mismatch: expected {args.expect}, got {digest}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
