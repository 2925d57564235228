"""The kept A/B timer, ``tests/abtime.py``, runs end to end: one tree in
both slots, on the tiny inputs of the catalog and the report workloads."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_abtime_times_one_tree_against_itself():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), src, src,
         "--size", "tiny", "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert out[0] == "isogonic-catalog, seed 1, 3 inputs, best of 2; 0 with different outputs"
    assert out[1].split() == ["n", "inputs", "A", "ms", "B", "ms", "B/A"]
    assert [line.split()[:2] for line in out[2:5]] == [["2", "2"], ["3", "1"], ["all", "3"]]
    assert out[5] == "moved most:" and len(out) == 9
    assert all(float(line.split()[-1]) > 0 for line in out[2:5] + out[6:])


def test_abtime_compares_the_report_workload():
    # the edge-length report path: parse, centers, isodynamic, text report
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), src, src,
         "--workload", "edge-docs", "--size", "tiny", "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert out[0] == "edge-docs, seed 1, 6 inputs, best of 2; 0 with different outputs"
    assert [line.split()[:2] for line in out[2:6]] == [
        ["2", "2"], ["3", "3"], ["4", "1"], ["all", "6"]]
    assert out[6] == "moved most:" and len(out) == 13
