"""The benchmark's workloads still run on the library.

``bench/workloads.py`` reads what the solvers record (a trace's ``seed``,
``iterations_used``, ``damping_used`` and ``vertex_optimum``, a catalog's
``traces`` and ``failed_seeds``, and ``default_seeds``).  Each workload's
inputs, tiny and full, go through its op, oracle, fingerprint and stats
here, so a change that stops offering any of it, or gives a wrong answer
on any benchmark input, fails these tests, not only the benchmark.  Each
tiny workload also runs under the benchmark's tracer, which must see no
call of the layers that the workload bypasses.  The workloads and tracing
modules are loaded from their files and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import simplexcenters
from simplexcenters import cli, documents, verify  # noqa: F401  read by the workloads

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
tracing = _load("tracing")

# the span each workload's op enters, and the spans that must not occur on
# it because its op never reaches their layer (bench/selftest.py's BYPASSED)
SPANS = {
    "isogonic-catalog": ("isogonic.enumerate_isogonic",
                         ("fermat.fermat_point", "barycentric.embed_from_edge_lengths")),
    "fermat-solve": ("fermat.fermat_point", ("barycentric.embed_from_edge_lengths",
                                             "isogonic.enumerate_isogonic")),
    "edge-docs": ("documents.parse_document",
                  ("isogonic.enumerate_isogonic", "fermat.fermat_point")),
}


def _passes_its_oracle(name: str, size: str) -> None:
    workload = WORKLOADS[name](simplexcenters, 1, size)
    assert workload.cases
    for case in workload.cases:
        out = workload.run(case)
        assert workload.check(case, out) is None, case.label
        assert workload.fingerprint(workload.run(case)) == workload.fingerprint(out)
        assert isinstance(workload.stats(case, out), dict)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_oracle(name):
    _passes_its_oracle(name, "tiny")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_workload_passes_its_oracle(name):
    _passes_its_oracle(name, "full")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_bypasses_its_layers(name):
    workload = WORKLOADS[name](simplexcenters, 1, "tiny")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.current_op = 0   # spans count only inside an op
        for case in workload.cases:
            workload.run(case)
    finally:
        tracer.uninstall()
    spans = tracing.SpanSummary(tracer)
    entered, bypassed = SPANS[name]
    # a span the tracer never wraps would read zero calls and prove nothing
    assert {entered, *bypassed} <= set(tracer.names)
    assert spans.get("calls", entered) == len(workload.cases)
    for layer in bypassed:
        assert spans.get("calls", layer) == 0, layer


def test_damping_used_is_a_constant_not_a_field(five_model):
    # the workloads' damped-seed count reads it from every trace
    with pytest.raises(TypeError):
        simplexcenters.SolverTrace(seed=simplexcenters.BarycentricPoint([1, 1, 1, 1]),
                                   damping_used=0.5)
    catalog = simplexcenters.enumerate_isogonic(five_model)
    traces = catalog.traces + catalog.failed_seeds
    assert traces and all(trace.damping_used == 1.0 for trace in traces)
