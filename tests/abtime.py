"""Time benchmark workloads' inputs on two source trees, in one process.

    python tests/abtime.py TREE_A TREE_B [--workload NAME|all] [--seed S]
                           [--size full|tiny] [--rounds R] [--top K]

``TREE_A`` and ``TREE_B`` are ``src`` directories that hold a
``simplexcenters`` package; they may be the same.  Each is loaded under its
own package name, so both live in this process side by side.  Each tree
builds the inputs of one workload of ``bench/workloads.py`` (loaded from its
file and not changed; ``tests/probe.py`` loads it with the same loader)
from the same seed, so both meet the same numbers.  Every round runs each
input's op on both trees in turn, the tree that goes first alternating
between rounds, and each tree keeps its best time per input.  It prints
those best-of times summed per dimension, with the ratio B/A; in how many
rounds B's summed op time was below A's, each round counted as one
alternating pair; for ``fermat-solve``, each tree's best-of time per Newton
step, over the traces' ``iterations_used`` (which count the approach step
too), and for ``isogonic-catalog`` the same over each catalog's
``traces + failed_seeds``; and the ``--top`` inputs whose ratio moved
most.  ``--workload all`` prints one such table per workload, in
``WORKLOADS`` order.  Outputs are compared by
``comparison_key``: the workload's fingerprint and, when the output carries
report dicts, their sorted-key JSON; inputs whose keys differ between the
trees are counted and named, and then the script exits 1.  BLAS runs on one
thread, as in ``bench/run.py``.
Pytest does not collect this file; ``tests/test_abtime.py`` runs it on the
tiny inputs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    """``bench/workloads.py``, loaded from its file as ``bench_workloads``."""
    spec = importlib.util.spec_from_file_location("bench_workloads", _BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_tree(src: Path, name: str):
    """The ``simplexcenters`` package in ``src``, imported as ``name`` with
    the submodules the workloads read."""
    init = src / "simplexcenters" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    for sub in ("cli", "documents", "fermat", "isogonic", "verify"):
        importlib.import_module(f"{name}.{sub}")
    return lib


def comparison_key(workload, out) -> str:
    """What two trees' outputs of one input are compared by: the workload's
    fingerprint, and the sorted-key JSON of each report dict in the output
    (the ``edge-docs`` fingerprint is the text report alone, which prints a
    residual to 4 digits where the JSON keeps 7)."""
    reports = [json.dumps(part, sort_keys=True)
               for part in (out if isinstance(out, tuple) else ()) if isinstance(part, dict)]
    return repr((workload.fingerprint(out), reports))


def best_times(pair, rounds: int):
    """Each tree's best op time per input and summed op time per round, in
    seconds; the inputs whose comparison keys differ between the trees; and
    each tree's outputs of the last round."""
    best = [[float("inf")] * len(pair[0].cases) for _ in pair]
    totals = [[0.0] * rounds for _ in pair]
    outs = [[None] * len(pair[0].cases) for _ in pair]
    differ = set()
    for r in range(rounds):
        for i in range(len(pair[0].cases)):
            for t in ((0, 1) if r % 2 == 0 else (1, 0)):
                wl = pair[t]
                begin = time.perf_counter()
                outs[t][i] = wl.run(wl.cases[i])
                elapsed = time.perf_counter() - begin
                best[t][i] = min(best[t][i], elapsed)
                totals[t][r] += elapsed
            if comparison_key(pair[0], outs[0][i]) != comparison_key(pair[1], outs[1][i]):
                differ.add(i)
    return best, totals, differ, outs


def _traces(name: str, out) -> list:
    """The solver traces in one op's output: a ``fermat-solve`` point's
    trace, or every start of a catalog."""
    return [out[1]] if name == "fermat-solve" else out.traces + out.failed_seeds


def report(workloads, name: str, trees, args) -> int:
    """Time one workload on both trees, print its table, and return how
    many inputs' outputs differ."""
    pair = [workloads.WORKLOADS[name](lib, args.seed, args.size) for lib in trees]
    (a, b), (round_a, round_b), differ, outs = best_times(pair, args.rounds)
    cases = pair[0].cases
    print(f"{name}, seed {args.seed}, {len(cases)} inputs, best of "
          f"{args.rounds}; {len(differ)} with different outputs")
    sums = defaultdict(lambda: [0.0, 0.0, 0])
    for case, ta, tb in zip(cases, a, b):
        for key in (case.n, "all"):
            sums[key][0] += ta
            sums[key][1] += tb
            sums[key][2] += 1
    print(f"{'n':>4} {'inputs':>6} {'A ms':>9} {'B ms':>9} {'B/A':>6}")
    for key in sorted(k for k in sums if k != "all") + ["all"]:
        ta, tb, count = sums[key]
        print(f"{key:>4} {count:>6} {1e3 * ta:9.3f} {1e3 * tb:9.3f} {tb / ta:6.3f}")
    wins = sum(tb < ta for ta, tb in zip(round_a, round_b))
    print(f"B faster in {wins} of {args.rounds} rounds")
    if name in ("fermat-solve", "isogonic-catalog"):
        steps = [sum(trace.iterations_used for out in tree for trace in _traces(name, out))
                 for tree in outs]
        print(f"us per Newton step: A {1e6 * sum(a) / steps[0]:.3f}, "
              f"B {1e6 * sum(b) / steps[1]:.3f} ({steps[0]} and {steps[1]} steps)")
    print("moved most:")
    moved = sorted(range(len(cases)), key=lambda i: -abs(b[i] / a[i] - 1.0))
    for i in moved[:args.top]:
        print(f"  {cases[i].label:<28} {1e3 * a[i]:8.3f} {1e3 * b[i]:8.3f} {b[i] / a[i]:6.3f}")
    if differ:
        print("different outputs: " + ", ".join(cases[i].label for i in sorted(differ)))
    return len(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", default="isogonic-catalog")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--top", type=int, default=8)
    args = parser.parse_args(argv)
    # before NumPy loads, which importing a workload or a tree does
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workloads = _workloads()
    trees = [load_tree(args.tree_a, "tree_a"), load_tree(args.tree_b, "tree_b")]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    differ = sum(report(workloads, name, trees, args) for name in names)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
