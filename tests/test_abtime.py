"""The kept A/B timer, ``tests/abtime.py``, runs end to end: one tree in
both slots, on the tiny inputs of each workload, exits 0 and prints each
workload's rounds won by B, and the time per Newton step of
``isogonic-catalog`` and ``fermat-solve``; it tells apart two report
outputs that differ only in their JSON; and a tree whose outputs differ
makes it name those inputs and exit 1."""

import copy
import re
import shutil
import subprocess
import sys
from pathlib import Path

import abtime

ROOT = Path(__file__).resolve().parents[1]
STEPS = r"us per Newton step: A (\S+), B (\S+) \((\d+) and (\d+) steps\)"


def _assert_step_line(line: str) -> None:
    # each tree's time per Newton step, over the same steps
    a, b, count_a, count_b = re.fullmatch(STEPS, line).groups()
    assert float(a) > 0 and float(b) > 0 and count_a == count_b and int(count_a) > 0


def test_abtime_times_one_tree_against_itself():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), src, src,
         "--size", "tiny", "--rounds", "2"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert out[0] == "isogonic-catalog, seed 1, 3 inputs, best of 2; 0 with different outputs"
    assert out[1].split() == ["n", "inputs", "A", "ms", "B", "ms", "B/A"]
    assert [line.split()[:2] for line in out[2:5]] == [["2", "2"], ["3", "1"], ["all", "3"]]
    assert re.fullmatch(r"B faster in [012] of 2 rounds", out[5])
    _assert_step_line(out[6])
    assert out[7] == "moved most:" and len(out) == 11
    assert all(float(line.split()[-1]) > 0 for line in out[2:5] + out[8:])


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
    assert re.fullmatch(r"B faster in [012] of 2 rounds", out[6])
    assert out[7] == "moved most:" and len(out) == 14


def test_abtime_times_every_workload_in_one_run():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), src, src,
         "--workload", "all", "--size", "tiny", "--rounds", "1"],
        capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    headers = [line for line in out if "with different outputs" in line]
    assert headers == [
        "isogonic-catalog, seed 1, 3 inputs, best of 1; 0 with different outputs",
        "fermat-solve, seed 1, 16 inputs, best of 1; 0 with different outputs",
        "edge-docs, seed 1, 6 inputs, best of 1; 0 with different outputs"]
    assert out.count("moved most:") == 3
    wins = [k for k, line in enumerate(out) if line.startswith("B faster in")]
    assert len(wins) == 3
    assert all(re.fullmatch(r"B faster in [01] of 1 rounds", out[k]) for k in wins)
    # isogonic-catalog and fermat-solve, not edge-docs: the time per Newton step
    steps = [k for k, line in enumerate(out) if line.startswith("us per Newton step")]
    assert steps == [wins[0] + 1, wins[1] + 1]
    for k in steps:
        _assert_step_line(out[k])


def test_a_json_only_change_counts_as_different():
    # the edge-docs fingerprint is the text report, which prints the
    # incenter's residual to 4 digits; the JSON keeps 7, and the 7th moves
    workload = abtime._workloads().EdgeDocsWorkload(
        abtime.load_tree(ROOT / "src", "abtime_tree"), 1, "tiny")
    out = workload.run(workload.cases[0])
    centers = copy.deepcopy(out[0])
    point = centers["results"]["points"]["I"]
    point["residual"] *= 1.0 + 1e-6
    moved = (centers, out[1], out[2])
    assert workload.fingerprint(moved) == workload.fingerprint(out)
    assert abtime.comparison_key(workload, moved) != abtime.comparison_key(workload, out)
    assert abtime.comparison_key(workload, copy.deepcopy(out)) == abtime.comparison_key(
        workload, out)


def test_a_changed_output_names_its_inputs_and_exits_1(tmp_path):
    # a copy of the tree whose incenter and symmedian residuals move by one
    # part in 10**6: the text reports keep their digits, the JSON does not
    src = ROOT / "src"
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "simplexcenters" / "cli.py"
    text = cli.read_text()
    assert text.count("return _spread(dists)") == 1
    cli.write_text(text.replace("return _spread(dists)", "return _spread(dists) * (1.0 + 1e-6)"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "abtime.py"), str(src), str(changed),
         "--workload", "edge-docs", "--size", "tiny", "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    out = run.stdout.splitlines()
    assert run.returncode == 1, run.stderr
    assert out[0] == "edge-docs, seed 1, 6 inputs, best of 1; 6 with different outputs"
    labels = abtime._workloads().EdgeDocsWorkload(
        abtime.load_tree(src, "abtime_labels"), 1, "tiny").cases
    assert out[-1] == "different outputs: " + ", ".join(case.label for case in labels)
