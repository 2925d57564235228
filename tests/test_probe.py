"""The kept probe, ``tests/probe.py``, digests the same bits on every run,
and the bits it has always digested.

``SLICE_DIGEST`` is the digest of the slice below as the solvers computed it
once every Newton run, the catalog's and the Fermat solve's, stopped by one
rule, with NumPy 2.4.6 on x86-64.  A change that moves
any output bit of the slice (a catalog point, an area, a start's counts, a
Fermat point, its counts, iterates or distance sums) fails here; if the move
is intended, or a platform rounds differently, rerun the probe and re-pin.
"""

import json
import re
import warnings

import probe
from simplexcenters import BarycentricPoint, MaxIterationsExceeded, SolverTrace

SLICE = {"triangles": 40, "tetrahedra": 20, "four": 4, "five": 2}
SLICE_DIGEST = "4e7ba6f79473e59d00337f32a0bac7aacc2690bffb0cc3ddf64fe2ed71d38a5b"


def test_a_probe_slice_keeps_its_digest():
    (summary, digest, points), (again, digest_again, _) = probe.probe(SLICE), probe.probe(SLICE)
    assert re.fullmatch("[0-9a-f]{64}", digest) and digest_again == digest
    assert summary.rsplit(" (", 1)[0] == again.rsplit(" (", 1)[0] == (
        "107 simplices, 269 points, 107 failed starts (1 out of budget, 106 stalled), "
        "1923 catalog steps, 891 in failed starts, 428 Fermat runs, 0 without an answer, "
        "0 catalog Fermat points apart")
    assert digest == SLICE_DIGEST
    assert len(points) == 107 and sum(map(len, points.values())) == 269


def test_against_counts_lost_and_gained_points(capsys, monkeypatch, tmp_path):
    # a run matches its own dump; against a dump with one point moved by
    # more than SAME_POINT and one by less, it loses and gains one point
    catalogs = {"a": [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]], "b": [[1.0, 1.0, -1.0]]}
    monkeypatch.setattr(probe, "probe", lambda counts: ("a summary", SLICE_DIGEST, catalogs))
    dump = tmp_path / "points.json"
    assert probe.main(["--dump", str(dump), "--against", str(dump)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "lost 0, gained 0"
    saved = json.loads(dump.read_text())
    assert saved == catalogs
    saved["a"][0][0] += 10 * probe.SAME_POINT
    saved["b"][0][0] += 0.5 * probe.SAME_POINT
    dump.write_text(json.dumps(saved))
    assert probe.main(["--against", str(dump)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["lost 1, gained 1", "a lost 1"]


def test_compare_counts_simplices_without_points():
    assert probe.compare({"a": [[1.0, 0.0]], "b": []}, {"a": [], "b": [[0.0, 1.0]]}) == (
        1, 1, {"a": 1})


def test_expect_checks_the_digest(capsys, monkeypatch):
    # exit status 0 on the expected digest; 1 on another, with both printed
    args = [f"--{name}={count}" for name, count in SLICE.items()]
    assert probe.main([*args, "--expect", SLICE_DIGEST]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == SLICE_DIGEST
    monkeypatch.setattr(probe, "probe", lambda counts: ("a summary", SLICE_DIGEST, {}))
    other = SLICE_DIGEST[::-1]
    assert probe.main([*args, "--expect", other]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a summary", SLICE_DIGEST,
        f"digest mismatch: expected {other}, got {SLICE_DIGEST}"]


def test_starts_counts_the_fermat_solves_without_an_answer(capsys):
    # the 41 bench inputs and four Gaussian simplices, one start each, by q and r
    assert probe.main(["--triangles=2", "--tetrahedra=2", "--four=0", "--five=0",
                       "--starts=1"]) == 0
    line, = capsys.readouterr().out.splitlines()
    assert line.rsplit(" (", 1)[0] == "45 simplices, 90 Fermat solves, 0 without an answer (none)"


def test_starts_exits_1_on_a_solve_without_an_answer(capsys, monkeypatch):
    # the first solve raises as a stalled run does; the draw counts it and fails
    solve, calls = probe.fermat_point, []

    def fail_once(model, start, method):
        calls.append(method)
        if len(calls) == 1:
            trace = SolverTrace(BarycentricPoint(start), reason="stalled")
            raise MaxIterationsExceeded("stalled", trace)
        return solve(model, start, method)

    monkeypatch.setattr(probe, "fermat_point", fail_once)
    assert probe.main(["--triangles=0", "--tetrahedra=0", "--four=0", "--five=0",
                       "--starts=1"]) == 1
    line, = capsys.readouterr().out.splitlines()
    assert line.rsplit(" (", 1)[0] == (
        "41 simplices, 82 Fermat solves, 1 without an answer (1 stalled)")


def test_dims_prints_one_line_per_dimension(capsys):
    # n = 92's pedal simplex has bit-identical facet volumes: no spread can show
    assert probe.main(["--dims", "92:93"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" (", 1)[0] for line in lines[:2]] == [
        f"n={n}: centers ok, isodynamic ok, fermat ok, conjugate ok; "
        f"K error {error}; Fermat conjugate's pedal spread {spread}"
        for n, error, spread in ((92, "5.6e-16", "inconclusive"), (93, "4.4e-16", "1.2e-11"))]
    assert lines[2] == "n = 92..93: 2 passed, 0 failed"


def test_dims_exits_1_on_a_warning_or_a_raise(capsys, monkeypatch):
    def warn(p, model):
        warnings.warn("a warning", RuntimeWarning)
        return conjugate(p, model)

    def fail(model):
        raise ValueError("coordinate vector must not be zero")

    conjugate = probe.isogonal_conjugate
    monkeypatch.setattr(probe, "isogonal_conjugate", warn)
    monkeypatch.setattr(probe, "classical_centers", fail)
    assert probe.main(["--dims", "4:4"]) == 1
    line, summary = capsys.readouterr().out.splitlines()
    assert line.startswith("n=4: centers ValueError, isodynamic skipped, fermat ok, "
                           "conjugate warns; K error n/a; Fermat conjugate's pedal spread warns")
    assert line.endswith("  FAIL") and summary == "n = 4..4: 0 passed, 1 failed"
