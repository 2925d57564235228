"""Tiny-size self-test of the benchmark.

Run from the repository root:

    python3 bench/selftest.py

It runs every workload of BENCHMARK.json at ``--size tiny`` in both trace
modes and checks that the last output line is the result object, that it
holds exactly the declared metrics with their units, that each metric is
also printed by name with its unit, and that layers a workload bypasses
read zero.  It checks that each traced op's span self times add up to its
wall time, that the anchor iteration counts match the ROADMAP baseline,
and that the benchmark fails without a result where the library is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer metrics that must read zero on a workload, because its op never
# reaches that layer
BYPASSED = {
    "isogonic-catalog": ("barycentric.embed_from_edge_lengths.calls",
                         "fermat.fermat_point.calls"),
    "fermat-solve": ("barycentric.embed_from_edge_lengths.calls",
                     "isogonic.pedal_equiareal_iteration.calls"),
    "edge-docs": ("isogonic.iterations", "fermat.iterations.mean"),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_outputs() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = run_bench(workload, trace)
            expect(proc.returncode == 0, f"{what} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{what}: outputs not correct")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and isinstance(result["failed"], int), f"{what}: bad counts")
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            metrics = result["metrics"]
            expect(set(metrics) == set(declared),
                   f"{what}: metric names differ: {sorted(set(metrics) ^ set(declared))}")
            for name, unit in declared.items():
                expect(metrics[name]["unit"] == unit, f"{what}: unit of {name}")
                expect(any(line.startswith(f"metric {name} = ") and f" {unit} (" in line
                           for line in lines), f"{what}: {name} not printed with its unit")
            expect(any("matches the ROADMAP baseline" in line for line in lines),
                   f"{what}: anchor iteration counts differ")
            if trace:
                for name in BYPASSED[workload]:
                    expect(metrics[name]["value"] == 0.0,
                           f"{what}: {name} should read zero on this workload")
        print(f"selftest: {workload} ok")


def check_span_self_times() -> None:
    """Per op, the self times of its spans add up to the op's wall time."""
    sys.path.insert(0, str(BENCH_DIR))
    import run
    from tracing import SpanSummary, Tracer

    for workload in (w["name"] for w in SPEC["workloads"]):
        _, wl = run.setup(workload, 7, "tiny")
        tracer = Tracer()
        tracer.install()
        try:
            res = run.measure(wl, 1, tracer)
        finally:
            tracer.uninstall()
        spans = SpanSummary(tracer)
        expect(sorted(spans.op_wall) == list(range(res.attempted)),
               f"{workload}: one root span per op")
        for op, wall in spans.op_wall.items():
            expect(abs(spans.op_self_sum[op] - wall) <= 1e-9,
                   f"{workload}: op {op} self times {spans.op_self_sum[op]} "
                   f"differ from its wall time {wall}")
        covered = sum(spans.op_wall.values())
        expect(0.0 <= res.wall - covered <= 0.05 * res.wall + 1e-4 * res.attempted,
               f"{workload}: spans cover {covered:.6f} s of {res.wall:.6f} s in ops")
    print("selftest: span self times ok")


def check_fails_without_library() -> None:
    """Only BENCHMARK.json and bench/: exit non-zero and print no result."""
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("edge-docs", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark succeeded without the library")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without the library")
    print("selftest: bare directory fails ok")


if __name__ == "__main__":
    check_outputs()
    check_span_self_times()
    check_fails_without_library()
    print("selftest: all checks passed")
