"""Benchmark of simplexcenters: three closed-loop workloads, one caller.

Run from the repository root:

    python3 bench/run.py --workload edge-docs --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seconds 16

Each op starts only after the previous one returned, in one process.  A
run makes whole passes over the inputs, as many as take about
``--seconds`` at reference speed (see ``measure``), and scales every
timing to reference speed with the host speed sampled around and during
each op (see speed.py).  Every output is checked outside the timed
region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
half the passes untraced and half with spans around every layer's public
functions, and prints the per-layer metrics.  The last line of standard
output is one JSON object; the names and units of its metrics come from
BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import os

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)   # before numpy loads its BLAS

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import speed
from tracing import OP, SpanSummary, Tracer
from workloads import SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
TAIL_BEYOND = 10

# Seconds one whole pass over a workload's full-size inputs takes at
# reference speed with the seed program; a run makes as many whole passes
# as fit in --seconds, and at least one.
PASS_SECONDS = {"isogonic-catalog": 7.4, "fermat-solve": 6.8, "edge-docs": 2.4}

# Per-seed iterations of enumerate_isogonic and the fermat_point iteration
# counts on the five-isogonic tetrahedron, as in the ROADMAP baseline.
ANCHOR_SEEDS = [158, 3248, 729, 308, 379]
ANCHOR_FERMAT = {"q": 35, "r": 47}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import simplexcenters from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        lib = importlib.import_module("simplexcenters")
        for sub in ("cli", "documents", "verify"):
            importlib.import_module(f"simplexcenters.{sub}")
    except ImportError as exc:
        fail(f"cannot import simplexcenters from {SRC}: {exc}")
    if Path(lib.__file__).resolve().parent.parent != SRC:
        fail(f"simplexcenters was imported from {lib.__file__}, not from {SRC}")
    return lib


def setup(workload: str, seed: int, size: str):
    lib = import_library()
    return lib, WORKLOADS[workload](lib, seed, size)


def median_setup_seconds(args) -> float:
    """Median time of fresh processes that import and build the inputs.

    Each process's wall time is scaled to reference speed by the host
    speed sampled just before it, every ``speed.INTERVAL_S`` while it runs
    (in this process, which only waits for it) and just after it.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    env = dict(os.environ, **PINNED_ENV)
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.edge()
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            elapsed = time.perf_counter() - t0
        times.append(elapsed * speed.scale([before, *sampler.samples, speed.edge()]))
    return statistics.median(times)


def provenance(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True).stdout.strip() or "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "simplexcenters").glob("*.py")):
        digest.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
            "git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def anchor(lib) -> tuple[list, dict]:
    """Iteration counts on the reference tetrahedron; untimed, it also warms up."""
    model = lib.documents.parse_document(lib.verify.FIVE_ISOGONIC_DOC).build_model()
    catalog = lib.isogonic.enumerate_isogonic(model)
    traces = catalog.traces + catalog.failed_seeds
    per_seed = [next((t.iterations_used for t in traces
                      if np.array_equal(t.seed.normalized_coords, s.normalized_coords)),
                     None)
                for s in lib.isogonic.default_seeds(model)]
    fermat = {m: lib.fermat.fermat_point(model, method=m)[1].iterations_used
              for m in ANCHOR_FERMAT}
    return per_seed, fermat


class Result:
    """What one measured phase saw, per input."""

    def __init__(self, cases: int):
        self.latency = [[] for _ in range(cases)]   # normalised wall seconds per op
        self.cpu = [[] for _ in range(cases)]       # normalised CPU seconds per op
        self.ok = [0] * cases                       # ops with a correct output
        self.busy = 0.0                             # normalised seconds inside ops
        self.wall = 0.0                             # wall seconds inside ops, samples too
        self.attempted = 0
        self.failures = Counter()   # (exception class, dimension) -> ops
        self.wrong: list[str] = []
        self.op_case: list[int] = []

    @property
    def correct(self) -> int:
        return sum(self.ok)


def checked(wl, case, out) -> str | None:
    """Run the oracle on an input's first output; later outputs must repeat it."""
    fingerprint = wl.fingerprint(out)
    if case.verified is None:
        problem = wl.check(case, out)
        if problem is None:
            case.verified = fingerprint
            case.op_stats = wl.stats(case, out)
        return problem
    if fingerprint != case.verified:
        return "output differs from the checked output of the same input"
    return None


def passes_for(workload: str, size: str, seconds: float) -> int:
    """Whole passes that take about ``seconds`` at reference speed."""
    if size != "full":
        return 1
    return max(1, int(seconds / PASS_SECONDS[workload]))


def measure(wl, passes: int, tracer: Tracer | None = None) -> Result:
    """``passes`` whole passes over the inputs, in the seed's order.

    The op count depends only on ``passes``, never on the clock, and the
    poses of workloads.py make every seed fail the same ops.  Each
    op's times are scaled to reference speed by the speed sampled just
    before, during and just after it (see speed.py); the time the samples
    inside the op took is taken out first.
    """
    res = Result(len(wl.cases))
    run = wl.run if tracer is None else tracer.wrap(wl.run, OP)

    def op(i: int, before: float, sampler: speed.Sampler) -> float:
        case = wl.cases[i]
        if tracer is not None:
            tracer.current_op = res.attempted
        error = None
        first, spent_wall, spent_cpu = (len(sampler.samples), sampler.spent_wall,
                                        sampler.spent_cpu)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = run(case)
        except Exception as exc:   # counted per class; the run goes on
            error = exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        inside = sampler.samples[first:]
        wall = t1 - t0 - (sampler.spent_wall - spent_wall)
        cpu = c1 - c0 - (sampler.spent_cpu - spent_cpu)
        if tracer is not None:
            tracer.current_op = -1
        after = speed.edge()
        factor = speed.scale([before, *inside, after])
        res.wall += t1 - t0
        res.busy += wall * factor
        res.latency[i].append(wall * factor)
        res.cpu[i].append(cpu * factor)
        res.op_case.append(i)
        res.attempted += 1
        if error is not None:
            res.failures[(type(error).__name__, case.n)] += 1
        else:
            problem = checked(wl, case, out)
            if problem is None:
                res.ok[i] += 1
            else:
                res.failures[("WrongOutput", case.n)] += 1
                res.wrong.append(f"{case.label}: {problem}")
        return after

    with speed.Sampler() as sampler:
        before = speed.edge()
        for _ in range(passes):
            for i in wl.order:
                before = op(i, before, sampler)
    return res


def per_input(samples: list[list[float]]) -> list[float]:
    """Each input's median over its samples."""
    return [statistics.median(s) for s in samples]


def latency_summary(res: Result) -> dict:
    """Median and tail over every op's latency, in ms."""
    times = sorted(t for samples in res.latency for t in samples)
    count = len(times)
    rank = count - TAIL_BEYOND
    if rank <= count // 2:      # too few samples for a tail: report the maximum
        rank = count
    return {"p50": 1e3 * statistics.median(times),
            "tail": 1e3 * times[rank - 1],
            "tail_percentile": 100.0 * rank / count,
            "samples": count, "inputs": len(res.latency)}


def end_to_end_metrics(res: Result, setup_s: float) -> dict:
    lat = latency_summary(res)
    inputs_ok = correct_inputs(res)
    return {
        "setup_s": setup_s,
        "throughput_ops_s": inputs_ok / sum(per_input(res.latency)),
        "cpu_ms_per_op": 1e3 * statistics.fmean(per_input(res.cpu)),
        "latency_p50_ms": lat["p50"],
        "latency_tail_ms": lat["tail"],
        "correct_ratio": inputs_ok / len(res.ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def input_stats(wl) -> tuple[Counter, int]:
    """Totals of the stats of every input with a checked output."""
    totals, inputs = Counter(), 0
    for case in wl.cases:
        if case.op_stats is not None:
            inputs += 1
            totals.update(case.op_stats)
    return totals, inputs


def correct_inputs(res: Result) -> int:
    """Inputs whose every op returned a correct output."""
    return sum(1 for ok, lat in zip(res.ok, res.latency) if lat and ok == len(lat))


def workload_figures(res: Result, wl) -> dict:
    """Outcome figures that only some workloads have (zero elsewhere)."""
    totals, inputs = input_stats(wl)
    return {
        "fail_ratio": 1.0 - correct_inputs(res) / len(wl.cases),
        "isogonic_points_per_op": totals["isogonic_points"] / max(inputs, 1),
        "failed_seed_ratio": totals["failed_seeds"] / max(totals["seeds_tried"], 1),
    }


# span metrics: (metric prefix, span name, fields); values are per op
SPAN_METRICS = (
    ("isogonic.pedal_equiareal_iteration", None, ("calls", "self_ms", "fails")),
    ("isogonic.enumerate_isogonic", None, ("self_ms",)),
    ("isogonic.default_seeds", None, ("self_ms",)),
    ("isogonic.is_isogonic", None, ("calls", "self_ms")),
    ("pedal.antipedal_simplex", None, ("calls", "self_ms", "fails")),
    ("pedal.pedal_simplex", None, ("calls", "self_ms")),
    ("barycentric.facet_volumes_of_points", None, ("calls", "self_ms")),
    ("fermat.fermat_point", None, ("calls", "self_ms", "fails")),
    ("fermat.total_distance", None, ("calls", "self_ms")),
    ("barycentric.vertex_distances", "barycentric.SimplexModel.vertex_distances",
     ("calls", "self_ms")),
    ("barycentric.BarycentricPoint", None, ("calls",)),
    ("barycentric.embed_from_edge_lengths", None, ("calls", "self_ms", "fails")),
    ("barycentric.validate_embeddable",
     "barycentric.EdgeLengthTable.validate_embeddable", ("self_ms", "fails")),
    ("barycentric.SimplexModel", None, ("calls", "self_ms")),
    ("barycentric.classical_centers", None, ("self_ms",)),
    ("apollonian.isodynamic_points", None, ("calls", "self_ms")),
    ("apollonian.yiu_triangle_test", None, ("self_ms",)),
    ("documents.parse_document", None, ("self_ms", "fails")),
    ("documents.build_model", "documents.SimplexDocument.build_model", ("self_ms",)),
    ("cli.cmd_centers", None, ("self_ms",)),
    ("cli.cmd_isodynamic", None, ("self_ms",)),
    ("cli.render_report", None, ("self_ms",)),
)
EMBED_DIMENSIONS = (3, 6, 9, 12)


def per_layer_metrics(spans: SpanSummary, traced: Result, untraced: Result,
                      wl) -> dict:
    ops = traced.attempted
    out = {}
    for prefix, span, fields in SPAN_METRICS:
        span = span or prefix
        for field in fields:
            if field == "self_ms":
                value = 1e3 * spans.get("self_s", span)
            else:
                value = spans.get(field, span)
            out[f"{prefix}.{field}"] = value / ops

    # one facet_volumes_of_points call per pedal step, and one
    # vertex_distances call per Weiszfeld step, made by the solver itself
    pedal = "isogonic.pedal_equiareal_iteration"
    steps = spans.children_per_call("barycentric.facet_volumes_of_points", pedal)
    pedal_calls = spans.get("calls", pedal)
    out["isogonic.iterations"] = steps.sum() / ops
    out["isogonic.us_per_iteration"] = (1e6 * spans.get("total_s", pedal) / steps.sum()
                                        if steps.sum() else 0.0)
    out["isogonic.seed_converged_ratio"] = (
        (pedal_calls - spans.get("fails", pedal)) / pedal_calls if pedal_calls else 0.0)
    totals, inputs = input_stats(wl)
    inputs = max(inputs, 1)
    out["isogonic.damped_seed_ratio"] = (totals["damped_seeds"]
                                         / max(totals["reported_seeds"], 1))
    figures = workload_figures(traced, wl)
    out["isogonic.points_per_op"] = figures["isogonic_points_per_op"]
    out["isogonic.failed_seed_ratio"] = figures["failed_seed_ratio"]

    fermat = "fermat.fermat_point"
    steps = spans.children_per_call("barycentric.SimplexModel.vertex_distances", fermat)
    out["fermat.iterations.mean"] = steps.mean() if steps.size else 0.0
    out["fermat.iterations.max"] = steps.max() if steps.size else 0.0
    out["fermat.us_per_iteration"] = (1e6 * spans.get("total_s", fermat) / steps.sum()
                                      if steps.sum() else 0.0)
    out["fermat.vertex_optimum_ratio"] = totals["vertex_optimum"] / inputs

    embed = "barycentric.embed_from_edge_lengths"
    for n in EMBED_DIMENSIONS:
        in_dim = [op for op, i in enumerate(traced.op_case) if wl.cases[i].n == n]
        out[f"{embed}.p50_ms.n{n}"] = spans.p50_ms(embed, in_dim)
    out["apollonian.points_found"] = totals["isodynamic_points"] / inputs
    out["run.fail_ratio"] = figures["fail_ratio"]
    out["trace.overhead_ratio"] = ((traced.busy / traced.attempted)
                                   / (untraced.busy / untraced.attempted) - 1.0)
    return out


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def report(values: dict, declared: dict) -> dict:
    if set(values) != set(declared):
        fail("computed metrics differ from BENCHMARK.json: "
             f"{sorted(set(values) ^ set(declared))}")
    metrics = {}
    for name, spec in declared.items():
        value = float(values[name])
        metrics[name] = {"value": value, "unit": spec["unit"]}
        print(f"metric {name} = {value:.6g} {spec['unit']} "
              f"({spec['better']} is better)")
    return metrics


def print_outcome(res: Result, label: str) -> None:
    print(f"{label}: {res.attempted} ops, {res.correct} correct, "
          f"{res.wall:.2f} s in ops, {res.busy:.2f} s at reference speed")
    for (cls, n), count in sorted(res.failures.items()):
        print(f"{label}: failure {cls} at n={n}: {count} ops")
    for line in res.wrong[:20]:
        print(f"{label}: wrong output: {line}")


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        code = subprocess.run(cmd, cwd=ROOT).returncode or code
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' is a few cheap inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import the library, build the inputs and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    lib, wl = setup(args.workload, args.seed, args.size)
    if args.setup_only:
        return 0
    declared = declared_metrics()
    for key, value in provenance(args).items():
        print(f"provenance {key}: {value}")
    seeds, fermat = anchor(lib)
    matches = seeds == ANCHOR_SEEDS and fermat == ANCHOR_FERMAT
    print(f"anchor: enumerate_isogonic per-seed iterations {seeds} (sum "
          f"{sum(i or 0 for i in seeds)}), fermat_point {fermat}: "
          + ("matches the ROADMAP baseline" if matches else
             f"DIFFERS from the ROADMAP baseline {ANCHOR_SEEDS}, {ANCHOR_FERMAT}"))

    if args.trace == 0:
        setup_s = median_setup_seconds(args)
        res = measure(wl, passes_for(args.workload, args.size, args.seconds))
        print_outcome(res, "run")
        lat = latency_summary(res)
        print(f"latency: p50 and p{lat['tail_percentile']:.2f} over {lat['samples']} ops "
              f"({lat['inputs']} inputs; {TAIL_BEYOND} ops beyond the tail)")
        for name, value in workload_figures(res, wl).items():
            print(f"figure {name} = {value:.6g}")
        metrics = report(end_to_end_metrics(res, setup_s), declared["end_to_end"])
        phases = [res]
    else:
        passes = passes_for(args.workload, args.size, args.seconds / 2)
        untraced = measure(wl, passes)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, passes, tracer)
        finally:
            tracer.uninstall()
        spans = SpanSummary(tracer)
        print_outcome(untraced, "untraced")
        print_outcome(traced, "traced")
        print(f"trace: {spans.spans} spans in {traced.attempted} ops")
        metrics = report(per_layer_metrics(spans, traced, untraced, wl),
                         declared["per_layer"])
        phases = [untraced, traced]

    print(json.dumps({
        "correct": not any(p.wrong for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.attempted - p.correct for p in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
