"""The kept probe, ``tests/probe.py``, digests the same bits on every run,
and the bits it has always digested.

``SLICE_DIGEST`` is the digest of the slice below as the solvers computed it
when the probe was added, with NumPy 2.4.6 on x86-64.  A change that moves
any output bit of the slice (a catalog point, an area, a start's counts, a
Fermat point, its counts, iterates or distance sums) fails here; if the move
is intended, or a platform rounds differently, rerun the probe and re-pin.
"""

import re

import probe

SLICE = {"triangles": 40, "tetrahedra": 20, "four": 4, "five": 2}
SLICE_DIGEST = "c391f6c5a9ad4b3455b4c450d5cdf08bb7953f1639dd1612bf9f0dad366afeb2"


def test_a_probe_slice_keeps_its_digest():
    (summary, digest), (again, digest_again) = probe.probe(SLICE), probe.probe(SLICE)
    assert re.fullmatch("[0-9a-f]{64}", digest) and digest_again == digest
    assert summary.split(" (")[0] == again.split(" (")[0] == (
        "107 simplices, 269 points, 107 failed starts, 428 Fermat runs, 0 without an answer")
    assert digest == SLICE_DIGEST


def test_expect_checks_the_digest(capsys, monkeypatch):
    # exit status 0 on the expected digest; 1 on another, with both printed
    args = [f"--{name}={count}" for name, count in SLICE.items()]
    assert probe.main([*args, "--expect", SLICE_DIGEST]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == SLICE_DIGEST
    monkeypatch.setattr(probe, "probe", lambda counts: ("a summary", SLICE_DIGEST))
    other = SLICE_DIGEST[::-1]
    assert probe.main([*args, "--expect", other]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a summary", SLICE_DIGEST,
        f"digest mismatch: expected {other}, got {SLICE_DIGEST}"]
