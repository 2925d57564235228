"""The benchmark's workloads still run on the library.

``bench/workloads.py`` reads what the solvers record (a trace's ``seed``,
``iterations_used``, ``damping_used`` and ``vertex_optimum``, a catalog's
``traces`` and ``failed_seeds``, and ``default_seeds``).  Each workload's
inputs, tiny and full, go through its op, oracle, fingerprint and stats
here, so a change that stops offering any of it, or gives a wrong answer
on any benchmark input, fails these tests, not only the benchmark.  The
workloads module is loaded from its file and not changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import simplexcenters
from simplexcenters import cli, documents, verify  # noqa: F401  read by the workloads

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads() -> dict:
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


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
