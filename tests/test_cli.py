import argparse
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import golden
from conftest import KUHN_TETRAHEDRON

from simplexcenters import (
    Degenerate,
    NotEmbeddable,
    SimplexModel,
    classical_centers,
    cli,
    documents,
    total_distance,
    verify,
)
from simplexcenters.cli import (
    _parse_seeds,
    cmd_centers,
    cmd_fermat,
    cmd_isodynamic,
    main,
    render_report,
)
from simplexcenters.documents import (
    DocumentError,
    fraction_strings,
    load_document,
    parse_document,
    parse_point_arg,
)


FIVE_DOC = {"name": "five", "vertices": [[0, 0, 0], [6, 0, 0], [0, 8, 0], [2, 2, 6]]}
GAP_DOC = {"name": "gap",
           "edge_lengths": {"dimension": 3, "values": [13, 11, 9, 12, 5, 11]}}
GAP_TRIANGLE_DOC = {"name": "gap-facet",
                    "edge_lengths": {"dimension": 2, "values": [13, 11, 12]}}
EQUILATERAL_DOC = {"edge_lengths": {"dimension": 2, "values": [1, 1, 1]}}
OBTUSE_DOC = {"edge_lengths": {"dimension": 2, "values": [1, 1, "39/20"]}}
REGULAR_DOC = {"edge_lengths": {"dimension": 3, "values": [1, 1, 1, 1, 1, 1]}}


@pytest.fixture
def doc_path(tmp_path):
    def write(doc, name="doc.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCentersCommand:
    def test_five_document(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "centers", doc_path(FIVE_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        vols = report["results"]["facet_volumes"]
        assert np.abs(np.array(vols)
                      / np.array(golden.FIVE_FACET_VOLUMES) - 1).max() < 1e-10
        assert report["results"]["total_volume"] == pytest.approx(48.0)

    def test_gap_triangle_fractions(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "centers", doc_path(GAP_TRIANGLE_DOC))
        assert code == 0
        assert "73/210" in out and "121/315" in out and "169/630" in out
        code, out, _ = run_cli(capsys, "centers", doc_path(GAP_TRIANGLE_DOC), "--json")
        report = json.loads(out)
        o = report["results"]["points"]["O"]
        assert o["normalized_fractions"] == ["73/210", "121/315", "169/630"]
        assert np.abs(np.array(o["normalized"])
                      - np.array(golden.GAP_TRIANGLE_CIRCUMCENTER)).max() < 1e-12

    @pytest.mark.parametrize("center", [100.0, 400.0])
    def test_random_values_do_not_snap(self, center):
        # a fraction is shown only where a random value rarely lands
        values = center + np.random.default_rng(11).uniform(-1, 1, 200)
        assert [v for v in values if fraction_strings([v]) is not None] == []

    def test_snapping_matches_limit_denominator(self):
        def reference(v):
            tol = 1e-13 * max(1.0, abs(v))
            bound = int(math.sqrt(1e-3 / tol))
            if bound < 1:
                return None
            frac = Fraction(v).limit_denominator(bound)
            if abs(float(frac) - v) > tol:
                return None
            return [f"{frac.numerator}/{frac.denominator}"
                    if frac.denominator != 1 else f"{frac.numerator}"]

        rng = np.random.default_rng(23)
        snaps = [k / q for q in range(1, 301) for k in rng.integers(-20 * q, 20 * q, 3)]
        values = [
            *rng.uniform(-10, 10, 300),
            *(rng.standard_normal(300) * 10.0 ** rng.uniform(-12, 12, 300)),
            *snaps,
            *range(-50, 51), 123456789.0, -9876543210.0,
            *(s * 1e10 * (1 + f * 1e-15) for s in (1, -1) for f in range(-5, 6)),
            *(s * (1e10 + f) for s in (1, -1) for f in (-1.5, -1, -0.5, 0.5, 1)),
            *(v + s * f * 1e-13 * max(1.0, abs(v)) for v in snaps[::7]
              for s in (1, -1) for f in (0.5, 0.99, 1.01, 2.0)),
        ]
        got = [fraction_strings([v]) for v in map(float, values)]
        assert got == [reference(v) for v in map(float, values)]
        assert sum(g is not None for g in got) > len(snaps)

    def test_near_flat_triangle_reports_without_fractions(self, doc_path, capsys):
        # the circumcenter's coordinates are about 1.6e10, where no value snaps
        doc = {"vertices": [[0, 0], [1, 0], [0.5, 2e-6]]}
        code, out, _ = run_cli(capsys, "centers", doc_path(doc), "--json")
        assert code == 0
        o = json.loads(out)["results"]["points"]["O"]
        assert abs(o["normalized"][2]) > 1e10
        assert "normalized_fractions" not in o

    def test_malformed_document_exit_2_no_output(self, doc_path, capsys):
        code, out, err = run_cli(capsys, "centers",
                                 doc_path({"vertices": "nope"}))
        assert code == 2
        assert out == ""
        assert "vertices" in err

    def test_fraction_values_parse_exactly(self, doc_path, capsys):
        doc = {"edge_lengths": {"dimension": 2, "values": ["13/1", "11/1", "12/1"]}}
        code, out, _ = run_cli(capsys, "centers", doc_path(doc), "--json")
        assert code == 0
        assert json.loads(out)["results"]["circumradius"] == pytest.approx(
            golden.GAP_TRIANGLE_CIRCUMRADIUS, rel=1e-12)

    @pytest.mark.parametrize("doc, where", [
        ({"vertices": [[0, 0], [math.nan, 0], [0, 1]]}, "vertices[1][0]"),
        ({"edge_lengths": {"dimension": 2, "values": [1, math.inf, 1]}},
         "edge_lengths.values[1]"),
    ], ids=["NaN", "Infinity"])
    def test_non_finite_number_exit_2(self, doc_path, capsys, doc, where):
        # json reads the literals NaN and Infinity as floats
        code, out, err = run_cli(capsys, "centers", doc_path(doc))
        assert code == 2
        assert out == ""
        assert where in err and "not finite" in err

    def test_geometric_error_exit_3(self, doc_path, capsys):
        # a document is read as a simplex inside the command's error handling
        for doc in ({"edge_lengths": {"dimension": 2, "values": [1, 1, 2]}},
                    {"vertices": [[0, 0], [1, 0], [2, 0]]}):
            code, out, err = run_cli(capsys, "centers", doc_path(doc))
            assert (code, out) == (3, "")
            assert err.startswith("geometric error: ")


@pytest.mark.parametrize("doc, error", [
    ({"vertices": [[0, 0], [1, 0], [2, 0]]}, Degenerate),
    ({"edge_lengths": {"dimension": 2, "values": [1, 1, 3]}}, NotEmbeddable),
], ids=["collinear", "not-euclidean"])
def test_a_document_that_is_no_simplex_fails_to_parse(doc, error):
    with pytest.raises(error):
        parse_document(doc)


def test_an_edge_length_document_is_embedded_once(count_calls):
    # the model is built when the document is read, and each command reads it
    calls = count_calls(documents, "embed_from_edge_lengths")
    doc = parse_document(GAP_DOC)
    cmd_centers(doc, {})
    cmd_isodynamic(doc, {})
    assert len(calls) == 1


def test_a_report_builds_one_model_and_one_circumcenter(count_calls):
    # the witness reads three sides, and every center reads the model's circumcenter
    models = count_calls(SimplexModel, "__init__")
    solves = count_calls(vars(SimplexModel)["_circumcenter"], "func")
    doc = parse_document(verify.GAP_TETRAHEDRON_DOC)
    cmd_centers(doc, {})
    report = cmd_isodynamic(doc, {})
    assert "witness" in report["results"]
    assert (len(models), len(solves)) == (1, 1)


def test_a_report_forms_no_fermat_constant(count_calls):
    # the unit edges and Kuhn's verdict are formed for the solvers alone
    formed = [count_calls(vars(SimplexModel)[name], "func")
              for name in ("_unit_edges", "_fermat_vertex")]
    for raw in verify.BUILTIN_DOCUMENTS.values():
        doc = parse_document(raw)
        cmd_centers(doc, {})
        cmd_isodynamic(doc, {})
    assert formed == [[], []]


def test_each_center_residual_rejects_the_other_centers(five_model):
    # a residual reads its own center's defining property alone
    centers = classical_centers(five_model)
    for key in "GIKO":
        assert cli._center_residual(key, centers, five_model) <= 1e-15
        for other in "GIKO".replace(key, ""):
            assert cli._center_residual(key, {key: centers[other]}, five_model) > 0.1


class TestIsodynamicCommand:
    def test_five_document_matches_table(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isodynamic", doc_path(FIVE_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        points = report["results"]["points"]
        assert len(points) == 2
        for got, expected in zip(points, golden.ISODYNAMIC_TABLE):
            assert np.abs(np.array(got["normalized"]) - expected).max() < 1e-9
            assert got["residual"] <= 1e-8

    def test_gap_document_none_exist_with_witness(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isodynamic", doc_path(GAP_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["verdict"] == "none exist"
        witness = report["results"]["witness"]
        assert witness["outside_circumcircle"] is True
        assert np.abs(np.array(witness["normalized"])
                      - np.array(golden.GAP_WITNESS)).max() < 1e-12

    def test_text_report_lists_points(self, doc_path, capsys):
        _, out, _ = run_cli(capsys, "isodynamic", doc_path(FIVE_DOC))
        lines = out.splitlines()
        assert "points found: 2" in lines
        for k, expected in enumerate(golden.ISODYNAMIC_TABLE, start=1):
            at = lines.index(f"J_{k}")
            got = json.loads(lines[at + 1].split(None, 1)[1])
            assert np.abs(np.array(got) - expected).max() < 1e-9
            assert lines[at + 3].startswith("  residual ")
        assert "verdict" not in out

    def test_text_report_verdict_and_witness(self, doc_path, capsys):
        _, out, _ = run_cli(capsys, "isodynamic", doc_path(GAP_DOC))
        lines = out.splitlines()
        assert lines[2:4] == ["points found: 0", "verdict: none exist"]
        assert lines[4] == "witness point"
        got = json.loads(lines[5].split(None, 1)[1])
        assert np.abs(np.array(got) - golden.GAP_WITNESS).max() < 1e-12
        assert lines[7].startswith("  witness distance ")
        assert lines[7].endswith(" -> outside (no common points)")

    def test_equilateral_single_point_with_note(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isodynamic",
                               doc_path(EQUILATERAL_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["count"] == 1
        assert report["warnings"]

    def test_explicit_point_option(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isodynamic", doc_path(FIVE_DOC),
                               "--point", "1:1:1:2", "--json")
        assert code == 0


class TestFermatCommand:
    def test_methods_agree(self, doc_path, capsys):
        results = {}
        for method in ("q", "r"):
            code, out, _ = run_cli(capsys, "fermat", doc_path(FIVE_DOC),
                                   "--method", method, "--json")
            assert code == 0
            results[method] = json.loads(out)["results"]
        for method in ("q", "r"):
            assert np.abs(np.array(results[method]["point"]["normalized"])
                          - golden.ISOGONIC_TABLE[0]).max() < 1e-9
            assert results[method]["point"]["iterations"] > 0

    def test_start_option(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "fermat", doc_path(FIVE_DOC),
                               "--start", "1:2:3:4", "--json")
        assert code == 0
        point = json.loads(out)["results"]["point"]["normalized"]
        assert np.abs(np.array(point) - golden.ISOGONIC_TABLE[0]).max() < 1e-9

    def test_obtuse_vertex_flagged(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "fermat", doc_path(OBTUSE_DOC))
        assert code == 0
        assert "vertex optimum" in out

    def test_vertex_optimum_has_zero_residual(self, doc_path, capsys):
        # the residual is the least subgradient norm, max(0, |c_k| - 1) at a
        # vertex k that Kuhn's test certifies, not the pull |c_k| itself
        _, out, _ = run_cli(capsys, "fermat", doc_path(OBTUSE_DOC))
        assert "residual 0.000e+00" in out
        _, out, _ = run_cli(capsys, "fermat", doc_path(OBTUSE_DOC), "--json")
        results = json.loads(out)["results"]
        assert results["vertex_optimum"]
        assert results["point"]["residual"] == 0.0

    def test_trace_output(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "fermat", doc_path(FIVE_DOC),
                               "--trace", "--json")
        report = json.loads(out)
        trace = report["results"]["trace"]
        assert len(trace["iterates"]) == len(trace["objective_values"])
        assert len(trace["iterates"]) > 2

    def test_trace_text_lines(self, doc_path, capsys):
        _, out, _ = run_cli(capsys, "fermat", doc_path(FIVE_DOC), "--trace", "--json")
        trace = json.loads(out)["results"]["trace"]
        _, out, _ = run_cli(capsys, "fermat", doc_path(FIVE_DOC), "--trace")
        lines = out.splitlines()
        rows = lines[lines.index("trace:") + 1:-1]
        assert len(rows) == len(trace["iterates"])
        for k, row in enumerate(rows):
            index, rest = row.split(None, 1)
            point, objective = rest.rsplit(None, 1)
            assert int(index) == k
            assert json.loads(point) == trace["iterates"][k]
            assert float(objective) == trace["objective_values"][k]

    @pytest.mark.parametrize("raw", [FIVE_DOC, OBTUSE_DOC], ids=["five", "obtuse"])
    def test_objective_leaves_the_trace_unformed(self, raw, monkeypatch):
        # the reported objective is the point's distance sum, bitwise the
        # trace's last one, which is formed only when --trace asks for it
        runs = []
        solve = cli.fermat_point

        def recorded(*args, **kwargs):
            runs.append(solve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "fermat_point", recorded)
        doc = parse_document(raw)
        report = cmd_fermat(doc, {})
        [(point, trace)] = runs
        assert "iterates" not in vars(trace) and "objective_values" not in vars(trace)
        objective = total_distance(point, doc.build_model())
        assert objective == trace.objective_values[-1]
        assert report["results"]["objective"] == round(objective, 12)

    def test_document_tolerance_reaches_solver(self, doc_path, capsys):
        doc = dict(FIVE_DOC, tolerance=1e-3)
        code, out, _ = run_cli(capsys, "fermat", doc_path(doc), "--json")
        assert code == 0
        report = json.loads(out)
        direct = cmd_fermat(parse_document(doc), {})
        assert (report["results"]["point"]["iterations"]
                == direct["results"]["point"]["iterations"])
        assert report["request"]["options"]["tolerance"] == 1e-3

    def test_a_tolerance_below_rounding_converges(self, doc_path, capsys):
        # no step is that short; the run ends where the line search can no
        # longer lower |g|, already at the level of rounding
        code, out, err = run_cli(capsys, "fermat", doc_path(FIVE_DOC), "--tolerance", "1e-20",
                                 "--json")
        assert (code, err) == (0, "")
        point = json.loads(out)["results"]["point"]
        assert np.abs(np.array(point["normalized"]) - golden.ISOGONIC_TABLE[0]).max() < 1e-9

    def test_budget_exhaustion_exit_4(self, doc_path, capsys):
        code, out, err = run_cli(capsys, "fermat", doc_path(FIVE_DOC),
                                 "--max-iter", "3")
        assert code == 4
        assert "converge" in err

    def test_budget_exhaustion_prints_trace(self, doc_path, capsys):
        code, out, err = run_cli(capsys, "fermat", doc_path(FIVE_DOC),
                                 "--max-iter", "3", "--trace")
        assert code == 4 and out == ""
        lines = err.splitlines()
        assert lines[0] == ("did not converge: no convergence within 3 "
                            "iterations (method 'q')")
        assert len(lines) == 5  # the start and three iterates
        assert json.loads(lines[1].rsplit(None, 1)[0]) == [0.25] * 4
        objectives = [float(line.rsplit(None, 1)[1]) for line in lines[1:]]
        assert objectives == sorted(objectives, reverse=True)


@pytest.mark.parametrize("args", [
    "fermat --method classic",
    "fermat --max-iter 0",
    "fermat --max-iter -5",
    "fermat --tolerance 0",
    "fermat --tolerance -1",
    "fermat --tolerance nan",
    "verify --tolerance nan",
    "verify --tolerance -1",
])
def test_bad_flag_value_exit_2(doc_path, capsys, args):
    command, flag, value = args.split()
    document = [] if command == "verify" else [doc_path(FIVE_DOC)]
    with pytest.raises(SystemExit) as info:
        main([command, *document, flag, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("flag", ["isodynamic --point", "fermat --start", "isogonic --seeds"])
def test_a_zero_point_is_an_input_error(doc_path, capsys, flag):
    # the library refuses an all-zero vector with a ValueError: a malformed argument
    command, option = flag.split()
    code, out, err = run_cli(capsys, command, doc_path(FIVE_DOC), option, "0:0:0:0")
    assert (code, out) == (2, "")
    assert err == "input error: coordinate vector must not be zero\n"


@pytest.mark.parametrize("flag, point", [
    ("isodynamic --point", "-1:2:2:2"), ("fermat --start", "-1,2,2,2"),
    ("isogonic --seeds", "-1,2,2,2")])
def test_a_point_flag_takes_a_separate_value_with_a_minus_sign(doc_path, capsys, flag, point):
    # argparse alone reads a separate -1:2:2:2 as an option and exits 2, after
    # the flag or after a prefix it takes for the flag, like --poi
    command, option = flag.split()
    path = doc_path(FIVE_DOC)
    separate = run_cli(capsys, command, path, option, point, "--json")
    assert separate == run_cli(capsys, command, path, f"{option}={point}", "--json")
    assert separate == run_cli(capsys, command, path, option[:5], point, "--json")
    assert separate[0] == 0 and json.loads(separate[1])["request"]["options"][option[2:]] == point


TRIANGLE = [[0, 0], [1, 0], [0, 1]]


def _file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    return str(path)


def _bytes_file(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    return str(path)


def _edges(values, dimension=2):
    return {"edge_lengths": {"dimension": dimension, "values": values}}


# one malformed input per DocumentError raise: (call, message prefix)
DOCUMENT_ERRORS = {
    "boolean": (lambda t: parse_document({"vertices": [[0, 0], [True, 0], [0, 1]]}),
                "vertices[1][0]: expected a number, got a boolean"),
    "not-a-number": (lambda t: parse_document({"vertices": [[0, 0], [1, None], [0, 1]]}),
                     "vertices[1][1]: expected a number"),
    "unparsable": (lambda t: parse_document(_edges([1, 1, "1/0"])),
                   "edge_lengths.values[2]: cannot parse"),
    "not-finite": (lambda t: parse_document({"tolerance": math.inf, "vertices": TRIANGLE}),
                   "tolerance: number is not finite"),
    "invalid-json": (lambda t: parse_document("{"), "invalid JSON"),
    "not-an-object": (lambda t: parse_document("[]"), "document must be a JSON object"),
    "unknown-field": (lambda t: parse_document({"vertex": TRIANGLE}),
                      "vertex: unknown document field"),
    "name": (lambda t: parse_document({"name": 3, "vertices": TRIANGLE}), "name:"),
    "tolerance": (lambda t: parse_document({"tolerance": 0, "vertices": TRIANGLE}),
                  "tolerance: must be positive"),
    "no-simplex": (lambda t: parse_document({"name": "x"}), "document needs exactly one"),
    "few-vertices": (lambda t: parse_document({"vertices": [[0, 0], [1, 0]]}),
                     "vertices: expected a list"),
    "vertex-length": (lambda t: parse_document({"vertices": [[0, 0], [1, 0, 0], [0, 1]]}),
                      "vertices[1]: expected 2 coordinates"),
    "edges-not-object": (lambda t: parse_document({"edge_lengths": [1, 1, 1]}),
                         "edge_lengths: expected an object"),
    "edges-keys": (lambda t: parse_document({"edge_lengths": {"values": [1, 1, 1]}}),
                   "edge_lengths: needs"),
    "dimension": (lambda t: parse_document(_edges([1], dimension=1)),
                  "edge_lengths.dimension:"),
    "value-count": (lambda t: parse_document(_edges([1, 1])),
                    "edge_lengths.values: dimension 2 needs 3"),
    "value-sign": (lambda t: parse_document(_edges([1, 1, -1])),
                   "edge_lengths.values[2]: must be positive"),
    "edge-boolean": (lambda t: parse_document(_edges([1, True, 1])),
                     "edge_lengths.values[1]: expected a number, got a boolean"),
    "edge-null": (lambda t: parse_document(_edges([1, None, 1])),
                  "edge_lengths.values[1]: expected a number, got NoneType"),
    "edge-nan": (lambda t: parse_document(json.dumps(_edges([1, 1, math.nan]))),
                 "edge_lengths.values[2]: number is not finite"),
    "edge-zero": (lambda t: parse_document(_edges([1, 0, 1])),
                  "edge_lengths.values[1]: must be positive"),
    "edge-negative-first": (lambda t: parse_document(_edges([-1, 1, 1])),
                            "edge_lengths.values[0]: must be positive"),
    "edge-beyond-float": (lambda t: parse_document(_edges([1, 1, 10 ** 400])),
                          "edge_lengths.values[2]: cannot parse number 1000"),
    "unreadable": (lambda t: load_document(str(t / "missing.json")),
                   "cannot read document"),
    "point": (lambda t: parse_point_arg("1,2", 2), "point needs 3 coordinates"),
    "seed-file": (lambda t: _parse_seeds(_file(t, "{}"), 2), "seed file must hold"),
    "seed-row": (lambda t: _parse_seeds(_file(t, "[[1, 2]]"), 2),
                 "seed[0]: expected 3 coordinates"),
    "seed-file-json": (lambda t: _parse_seeds(_file(t, "[[0.26, 0.28, 0.22"), 3),
                       "cannot read seed file"),
    "seed-directory": (lambda t: _parse_seeds(str(t), 3), "cannot read seed file"),
    "not-utf8": (lambda t: load_document(_bytes_file(t, b'\xff\xfe{"vertices": []}')),
                 "cannot read document"),
}


@pytest.mark.parametrize("case", sorted(DOCUMENT_ERRORS))
def test_document_error_names_its_path(case, tmp_path, capsys):
    call, prefix = DOCUMENT_ERRORS[case]
    with pytest.raises(DocumentError) as info:
        call(tmp_path)
    assert str(info.value).startswith(prefix)
    if case == "value-sign":
        # the same input through the command line is an input error
        code, out, err = run_cli(capsys, "centers",
                                 _file(tmp_path, json.dumps(_edges([1, 1, -1]))))
        assert (code, out) == (2, "")
        assert err.startswith("input error: " + prefix)


def test_unreadable_seed_file_exit_2(doc_path, tmp_path, capsys):
    # a seed file that cannot be read is an input error, not a geometric one
    code, out, err = run_cli(capsys, "isogonic", doc_path(FIVE_DOC),
                             "--seeds", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"input error: cannot read seed file {str(tmp_path)!r}")


class TestIsogonicCommand:
    def test_five_document_full_catalog(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isogonic", doc_path(FIVE_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        entries = report["results"]["entries"]
        assert len(entries) == 5
        for k, entry in enumerate(entries):
            assert np.abs(np.array(entry["conjugate"]["normalized"])
                          - golden.CONJUGATE_TABLE[k]).max() < 1e-9
            assert np.abs(np.array(entry["isogonic"]["normalized"])
                          - golden.ISOGONIC_TABLE[k]).max() < 1e-9
            assert entry["pedal_area"] == pytest.approx(
                golden.PEDAL_AREA_TABLE[k], rel=1e-6)
            assert entry["antipedal_area"] == pytest.approx(
                golden.ANTIPEDAL_AREA_TABLE[k], rel=1e-6)

    def test_root_at_a_kuhn_boundary_vertex_is_rejected(self, doc_path, capsys):
        doc = {"vertices": KUHN_TETRAHEDRON}
        code, out, err = run_cli(capsys, "isogonic", doc_path(doc), "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["count"] == 5

    def test_triangle_two_entries(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isogonic",
                               doc_path(GAP_TRIANGLE_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["count"] == 2
        _, out, _ = run_cli(capsys, "isogonic", doc_path(GAP_TRIANGLE_DOC))
        assert out.splitlines()[-1] == "warnings: none"

    def test_regular_tetrahedron_contains_center(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isogonic", doc_path(REGULAR_DOC), "--json")
        assert code == 0
        report = json.loads(out)
        first = np.array(report["results"]["entries"][0]["isogonic"]["normalized"])
        assert np.abs(first - 0.25).max() < 1e-9

    def test_seed_option_inline(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isogonic", doc_path(FIVE_DOC),
                               "--seeds", "0.26,0.28,0.22,0.24", "--json")
        assert code == 0
        assert json.loads(out)["results"]["count"] == 5

    def test_seed_file(self, doc_path, tmp_path, capsys):
        seed_file = tmp_path / "seeds.json"
        seed_file.write_text(json.dumps([[0.26, 0.28, 0.22, 0.24]]))
        code, out, _ = run_cli(capsys, "isogonic", doc_path(FIVE_DOC),
                               "--seeds", str(seed_file), "--json")
        assert code == 0
        assert json.loads(out)["results"]["count"] == 5

    def test_seed_with_conjugate_at_infinity_warns(self, doc_path, capsys):
        doc = {"name": "t", "vertices": [[0, 0], [4, 0], [1, 3]]}
        code, out, err = run_cli(capsys, "isogonic", doc_path(doc),
                                 "--seeds", "9,5,-4", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["results"]["count"] == 2
        # the seed lies on the circumcircle: its conjugate is at infinity
        assert report["warnings"][-1] == (
            "seed rejected: [0.900000000000, 0.500000000000, -0.400000000000]")

    def test_seed_on_a_side_line_warns(self, doc_path, capsys):
        # one isodynamic point of a triangle with a 120-degree angle lies on a
        # side line: its conjugate is a vertex
        doc = {"vertices": [[0, 0], [1, 0], [-0.65, 0.65 * math.sqrt(3)]]}
        code, out, _ = run_cli(capsys, "isogonic", doc_path(doc), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["count"] == 1
        [warning] = report["warnings"]
        assert warning.startswith("seed rejected: [")

    def test_corner_tetrahedron_reports_a_conjugate_at_infinity(self, doc_path, capsys):
        # the conjugate of [-1 : 1 : 1 : 1] is the direction [-3 : 1 : 1 : 1]:
        # it has no normalized coordinates, and its pedal area is undefined
        path = doc_path({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        code, out, err = run_cli(capsys, "isogonic", path, "--json")
        assert (code, err) == (0, "")
        entries = json.loads(out)["results"]["entries"]
        assert len(entries) == 5
        assert [e["conjugate"]["normalized"] is None for e in entries] == [
            False, True, False, False, False]
        direction = entries[1]
        assert direction["conjugate"]["homogeneous"] == [1.0] + [-0.333333333333] * 3
        assert direction["isogonic"]["normalized"] == [-0.5, 0.5, 0.5, 0.5]
        assert direction["pedal_area"] == "nan"
        code, out, err = run_cli(capsys, "isogonic", path)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        k = lines.index("L_1 (equiareal pedal, area nan)")
        assert lines[k + 1:k + 3] == [
            "  normalized   none (at infinity)",
            "  homogeneous  [1.000000000000, -0.333333333333, -0.333333333333, -0.333333333333]"]

    def test_unconverged_seeds_warn(self, doc_path, capsys):
        code, out, _ = run_cli(capsys, "isogonic", doc_path(FIVE_DOC),
                               "--seeds", "1,1,1,1;1,2,3,4", "--json")
        assert code == 0
        report = json.loads(out)
        # both seeds start in the all-positive class, whose one root the
        # Fermat seed found: deflated against it, Newton stalls
        assert report["results"]["count"] == 5
        assert report["warnings"] == [
            "seed stalled: [0.250000000000, 0.250000000000, 0.250000000000, 0.250000000000]",
            "seed stalled: [0.100000000000, 0.200000000000, 0.300000000000, 0.400000000000]"]

    @pytest.mark.parametrize("form", ["text", "json"])
    def test_direction_seed_warns(self, doc_path, capsys, form):
        # a seed whose coordinates sum to zero is listed as given
        path = doc_path({"vertices": [[0, 0], [4, 0], [1, 3]]})
        flags = ["--json"] if form == "json" else []
        code, out, err = run_cli(capsys, "isogonic", path, "--seeds", "1,1,-2", *flags)
        assert (code, err) == (0, "")
        warning = "seed stalled: [1.000000000000, 1.000000000000, -2.000000000000]"
        if form == "json":
            report = json.loads(out)
            assert report["results"]["count"] == 2
            assert report["warnings"] == [warning]
        else:
            assert "points found: 2" in out.splitlines()
            assert out.splitlines()[-1] == "warnings: " + warning



def test_json_reports_gradient_evaluations(doc_path, capsys):
    # next to the iteration counts, for the reference tetrahedron
    _, out, _ = run_cli(capsys, "fermat", doc_path(FIVE_DOC), "--json")
    point = json.loads(out)["results"]["point"]
    assert (point["iterations"], point["gradient_evaluations"]) == (5, 4)
    _, out, _ = run_cli(capsys, "isogonic", doc_path(FIVE_DOC), "--json")
    results = json.loads(out)["results"]
    assert [s["iterations"] for s in results["seed_summary"]] == [5, 8, 6, 5, 6]
    assert [s["gradient_evaluations"] for s in results["seed_summary"]] == [4, 10, 6, 5, 6]
    assert [e["gradient_evaluations"] for e in results["entries"]] == [4, 10, 6, 5, 6]


# SHA-256 of ``simplexcenters verify --json``'s output, NumPy 2.4.6 on x86-64
VERIFY_DIGEST = "22b224245589140e1bd77694273f0a69e03019420decb29bd7de547b10826b5f"


@pytest.mark.usefixtures("cached_reference_checks")
class TestVerifyCommand:
    def test_json_report_keeps_its_bytes(self, capsys):
        # any moved digit of a reference row fails here; re-pin if intended
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST

    def test_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "failed" in out.splitlines()[-1]
        assert " 0 failed" in out.splitlines()[-1]

    def test_a_failing_row_shows_in_the_report(self, monkeypatch, capsys):
        rows = [verify._numeric_row("a bound met", 1e-16, 1e-12),
                verify._numeric_row("a bound missed", 2e-9, 1e-12, quantity="max increase")]
        monkeypatch.setattr(cli, "run_reference_checks", lambda: rows)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        assert out.splitlines() == [
            "[PASS] a bound met",
            "       expected  error <= 1.0e-12",
            "       computed  error 1.000e-16   (tolerance 1.0e-12)",
            "[FAIL] a bound missed",
            "       expected  max increase <= 1.0e-12",
            "       computed  error 2.000e-09   (tolerance 1.0e-12)",
            "2 checks: 1 passed, 1 failed",
        ]

    def test_no_tolerance_override(self, capsys):
        # every row keeps the bound it was judged by
        with pytest.raises(SystemExit) as info:
            main(["verify", "--tolerance", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tolerance 1" in captured.err

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["failed"] == 0
        assert report["results"]["total"] >= 30


def test_random_simplices_are_drawn_up_to_six_dimensions():
    # at n = 8 no draw in 2000 passes the volume floor: refused before drawing
    class CountedDraws:
        draws = 0

        def standard_normal(self, shape):
            self.draws += 1
            if self.draws > 100:
                raise RuntimeError("still redrawing after 100 draws")
            return np.random.default_rng(self.draws).standard_normal(shape)

    rng = CountedDraws()
    with pytest.raises(ValueError, match="n <= 6"):
        verify._random_simplex(rng, 8)
    assert rng.draws == 0
    assert verify._random_simplex(rng, 6).n == 6


class TestReportContracts:
    def test_output_deterministic(self, doc_path, capsys):
        path = doc_path(FIVE_DOC)
        _, out1, _ = run_cli(capsys, "fermat", path, "--json")
        _, out2, _ = run_cli(capsys, "fermat", path, "--json")
        assert out1 == out2
        _, out1, _ = run_cli(capsys, "isogonic", path)
        _, out2, _ = run_cli(capsys, "isogonic", path)
        assert out1 == out2

    def test_document_round_trip(self, doc_path, capsys):
        for doc in (FIVE_DOC, GAP_DOC):
            _, out, _ = run_cli(capsys, "centers", doc_path(doc), "--json")
            report = json.loads(out)
            echoed = report["request"]["document"]
            model_a = parse_document(echoed).build_model()
            model_b = parse_document(doc).build_model()
            assert np.abs(model_a.vertices - model_b.vertices).max() < 1e-14

    def test_stdin_input(self, doc_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FIVE_DOC)))
        code, out, _ = run_cli(capsys, "centers", "-", "--json")
        assert code == 0
        assert json.loads(out)["results"]["total_volume"] == pytest.approx(48.0)

    @pytest.mark.usefixtures("cached_reference_checks")
    @pytest.mark.parametrize("command", ["centers", "isodynamic", "fermat", "isogonic",
                                         "verify"])
    def test_a_request_echoes_only_real_flags(self, doc_path, capsys, command):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in subparsers.choices[command]._actions if a.option_strings}
        document = [] if command == "verify" else [doc_path(FIVE_DOC)]
        code, out, _ = run_cli(capsys, command, *document, "--json")
        assert code == 0
        assert set(json.loads(out)["request"]["options"]) == flags - {"help", "json"}


@pytest.mark.parametrize("command, vertices, key, line", [
    ("centers", [[0, 0], [1e200, 0], [0, 1e200]], "total_volume", "total volume   inf"),
    ("fermat", [[-1e308, 0], [1e308, 0], [0, 1e308]], "objective", "objective      inf"),
], ids=["centers", "fermat"])
def test_json_reports_are_strict(doc_path, capsys, command, vertices, key, line):
    # a measure beyond float range is written as the plain report's text
    def refuse(constant):
        raise ValueError(f"bare {constant} in a JSON report")

    path = doc_path({"vertices": vertices})
    code, out, _ = run_cli(capsys, command, path, "--json")
    assert code == 0
    assert json.loads(out, parse_constant=refuse)["results"][key] == "inf"
    assert line in run_cli(capsys, command, path)[1].splitlines()


def test_module_entry_point():
    import os
    import subprocess
    import sys
    # the child imports the package from wherever this process found it
    proc = subprocess.run(
        [sys.executable, "-m", "simplexcenters.cli", "centers", "-"],
        input=json.dumps(FIVE_DOC), capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0
    assert "48.000000000000" in proc.stdout


def _seeded_edge_document(n: int) -> dict:
    """Edge lengths of a Gaussian n-simplex, as a document."""
    verts = np.random.default_rng((33, n)).standard_normal((n + 1, n))
    values = [float(np.linalg.norm(verts[i] - verts[j]))
              for i in range(n + 1) for j in range(i + 1, n + 1)]
    return {"name": f"gauss-{n}", **_edges(values, dimension=n)}


REPORT_DIGEST = "c86d47b772d51769935db2dbb5fb3b0ad83c3e7697ed884bdccd0d0013dbb3ee"
REPORT_DOCUMENTS = [*verify.BUILTIN_DOCUMENTS.values(),
                    *(_seeded_edge_document(n) for n in range(2, 13))]


def test_reports_keep_their_bytes():
    """The centers and isodynamic reports of REPORT_DOCUMENTS, each in its
    text form and as sorted-key JSON, hash to ``REPORT_DIGEST``.

    The digest was computed with NumPy 2.4.6 on x86-64 when the pin was
    added.  Any change to a reported byte (a digit, a fraction, a residual,
    a label) fails here; if the change is intended, or a platform rounds
    differently, recompute and re-pin.
    """
    digest = hashlib.sha256()
    for raw in REPORT_DOCUMENTS:
        doc = parse_document(raw)
        for report in (cmd_centers(doc, {}), cmd_isodynamic(doc, {})):
            digest.update(render_report(report).encode())
            digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == REPORT_DIGEST


# SHA-256 of ``main``'s stdout for each argument list below over the built-in
# documents, NumPy 2.4.6 on x86-64
COMMAND_DIGEST = "91d8593feca257346b68ea6948412ad6f518cabdb6eb256205b8bd7e895e2802"
COMMAND_ARGS = [("fermat",), ("fermat", "--json"), ("fermat", "--trace", "--json"),
                ("fermat", "--method", "r"), ("isogonic",), ("isogonic", "--json")]


def test_commands_keep_their_bytes(doc_path, capsys):
    """The fermat and isogonic reports that ``main`` prints for each of
    ``verify.BUILTIN_DOCUMENTS``, as text and as JSON, hash to
    ``COMMAND_DIGEST``.  Any change to a printed byte fails here, the request
    echo's included; if the change is intended, recompute and re-pin.
    """
    digest = hashlib.sha256()
    for name, raw in verify.BUILTIN_DOCUMENTS.items():
        path = doc_path(raw, f"{name}.json")
        for command, *flags in COMMAND_ARGS:
            code, out, _ = run_cli(capsys, command, path, *flags)
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == COMMAND_DIGEST
