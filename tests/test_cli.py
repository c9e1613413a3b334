import io
import json
import sys
import time

import numpy as np
import pytest

from cyclic6j import cli, statesum
from cyclic6j.cli import main
from cyclic6j.fixtures import boundary4simplex_document, boundary4simplex_scene
from cyclic6j.triangulation import scene_document

FIXTURE = "fixtures/boundary4simplex.json"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("level,trials", [
    ("algebra", "8"), ("operators", "4"), ("sixj", "1"), ("moves", "1"),
])
def test_verify_suites_pass(level, trials, capsys):
    code, out, _ = run(["verify", "--level", level, "--trials", trials],
                       capsys)
    assert code == 0
    assert out.splitlines()[0].startswith(f"verify level={level} N=3 seed=0")
    assert "PASS" in out.splitlines()[-1]
    assert "FAIL" not in out


def test_verify_output_is_stable(capsys):
    args = ["verify", "--level", "operators", "--trials", "3", "--seed", "7"]
    first = run(args, capsys)
    second = run(args, capsys)
    assert first == second


def test_verify_reports_failures_with_exit_1(capsys):
    code, out, _ = run(["verify", "--level", "algebra", "--trials", "2",
                        "--tol", "1e-30", "--tol-strict", "1e-32"], capsys)
    assert code == 1
    assert "FAIL" in out.splitlines()[-1]


_TOLS = "tol=1.0e-08 tol_strict=1.0e-10"

# Header line and ordered (name, bound, kind) rows of every suite at N = 3,
# seed 0 and the default trials; residual values vary with the BLAS.
VERIFY_SCHEMA = {
    "algebra": (f"verify level=algebra N=3 seed=0 trials=50 {_TOLS}", [
        ("u_multiplicative", 1e-10, "max"), ("u_inverse", 1e-10, "max"),
        ("v_inverse", 1e-10, "max"), ("psi_product_oracle", 1e-10, "max"),
        ("functional_equation", 1e-08, "max"), ("intertwiner_a", 1e-08, "max"),
        ("intertwiner_b", 1e-08, "max"), ("zigzag_left", 1e-10, "max"),
        ("zigzag_right", 1e-10, "max"),
    ]),
    "operators": (f"verify level=operators N=3 seed=0 trials=25 {_TOLS}", [
        ("A_involution", 1e-08, "max"), ("B_involution", 1e-08, "max"),
        ("A_vs_oracle", 1e-08, "max"), ("B_vs_oracle", 1e-08, "max"),
        ("L_from_AstarA", 1e-08, "max"), ("R_from_BstarB", 1e-08, "max"),
        ("C_identity", 1e-08, "max"), ("sqrtR_squared", 1e-08, "max"),
        ("sqrtL_squared", 1e-08, "max"), ("sqrtL_conjugation", 1e-08, "max"),
        ("ALA_inverts_L", 1e-08, "max"), ("BRB_inverts_R", 1e-08, "max"),
        ("ARA_flips_R", 1e-08, "max"), ("BLB_flips_L", 1e-08, "max"),
        ("q_block_scalar", 1e-10, "max"), ("q_check_value", 1e-10, "max"),
        ("q_hat_value", 1e-10, "max"),
    ]),
    "sixj": (f"verify level=sixj N=3 seed=0 trials=4 {_TOLS}", [
        ("pentagon_charged", 1e-08, "max"),
        ("pentagon_zero_charge", 1e-08, "max"),
        ("control_pentagon_bad_charge", 0.001, "min"),
        ("inversion_first", 1e-08, "max"), ("inversion_second", 1e-08, "max"),
        ("symmetry_charged_01", 1e-08, "max"),
        ("symmetry_charged_12", 1e-08, "max"),
        ("symmetry_charged_23", 1e-08, "max"),
        ("symmetry_uncharged_01", 1e-08, "max"),
        ("symmetry_uncharged_12", 1e-08, "max"),
        ("symmetry_uncharged_23", 1e-08, "max"),
        ("control_inversion_mismatch", 0.001, "min"),
    ]),
    "moves": (f"verify level=moves N=3 seed=0 trials=5 {_TOLS}", [
        ("fixture_value_nonzero", 1e-12, "min"),
        ("pachner_plus_mod_qtilde", 1e-08, "max"),
        ("pachner_roundtrip_mod_qtilde", 1e-08, "max"),
        ("pachner_minus_mod_qtilde", 1e-08, "max"),
        ("bubble_plus_mod_qtilde", 1e-08, "max"),
        ("bubble_roundtrip_exact", 1e-10, "max"),
        ("charge_deform_mod_qtilde", 1e-08, "max"),
        ("vertex_reorder_mod_qtilde", 1e-08, "max"),
        ("gauge_exact", 1e-08, "max"),
    ]),
}


@pytest.mark.parametrize("level", list(VERIFY_SCHEMA))
def test_verify_row_schema_is_pinned(level, capsys):
    header, schema = VERIFY_SCHEMA[level]
    code, out, _ = run(["verify", "--level", level], capsys)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == header
    rows = []
    for line in lines[1:-1]:
        _, name, _, rel, bound = line.split()
        rows.append((name, float(bound), "max" if rel == "<=" else "min"))
    assert rows == schema
    assert lines[-1] == f"PASS {len(schema)} identities"


@pytest.mark.parametrize("level,N", [
    ("algebra", 10 ** 21 + 1), ("operators", 10 ** 21 + 1),
    ("sixj", 10 ** 21 + 1), ("algebra", 101),
])
def test_verify_refuses_an_N_over_the_budget(level, N, capsys):
    start = time.perf_counter()
    code, out, err = run(["verify", "--level", level, "--N", str(N)], capsys)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert err.startswith(f"error: verify --level {level} at N = {N} ")
    assert f"over the budget of {statesum.MAX_ENTRIES}" in err


def test_algebra_suite_catches_a_wrong_psi(monkeypatch):
    exact = cli.psi_coeffs

    def bent(root, g, h):
        psis = exact(root, g, h).copy()
        psis[1] *= 1.01
        return psis
    monkeypatch.setattr(cli, "psi_coeffs", bent)
    rows, ok = cli.run_suite("algebra", 9, 0, 3, 1e-8, 1e-10)
    failed = {name for name, value, bound, _ in rows if value > bound}
    assert not ok
    assert failed == {"functional_equation", "psi_product_oracle"}


def test_even_order_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", "algebra", "--N", "4"])
    assert exc.value.code == 2


def test_missing_file_is_input_error(capsys):
    code, _, err = run(["invariant", "no_such_file.json"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["invariant", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["invariant", "{dir}"],
    ["canonical", "{dir}"],
    ["move", "{dir}", "--kind", "pachner+", "--target", "0,0"],
    ["invariant", FIXTURE, "--baseline", "{dir}"],
    ["find-charge", FIXTURE, "--out", "{dir}"],
])
def test_directory_path_is_input_error(argv, tmp_path, capsys):
    code, _, err = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert code == 2
    assert err.startswith("error:") and "Is a directory" in err


@pytest.mark.parametrize("command", ["invariant", "canonical"])
def test_random_bytes_are_input_error(command, tmp_path, capsys):
    path = tmp_path / "noise.json"
    path.write_bytes(b"\xff" + np.random.default_rng(5).bytes(99))
    code, _, err = run([command, str(path)], capsys)
    assert code == 2
    assert err.startswith("error: bad JSON input")


@pytest.mark.parametrize("option", [[], ["--baseline"]])
def test_deeply_nested_json_is_input_error(option, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    argv = ["invariant", FIXTURE, "--baseline", str(path)] if option \
        else ["invariant", str(path)]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: bad JSON input")


def test_invariant_record_output(capsys):
    code, out, _ = run(["invariant", FIXTURE], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["N"] == 3
    assert rec["value"][0] == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert rec["value"][1] == pytest.approx(0.0, abs=1e-9)


def _no_weights(*args, **kwargs):
    raise AssertionError("a weight was built for a refused contraction")


def test_invariant_over_budget_is_input_error(monkeypatch, capsys):
    # the fixture's plan holds at most 751374 stored entries at N = 13
    monkeypatch.setattr(statesum, "MAX_ENTRIES", 751374 - 1)
    for builder in ("tetra_weight", "tetra_weights", "sixj_stack"):
        monkeypatch.setattr(statesum, builder, _no_weights)
    code, out, err = run(["invariant", FIXTURE, "--N", "13"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize("option,value,message", [
    ("--N", str(10 ** 21 + 1), "over the budget"),
    ("--k-root", str(10 ** 23), "k must lie in 1..N-1"),
])
def test_invariant_refuses_a_root_past_int64(option, value, message, capsys):
    code, out, err = run(["invariant", FIXTURE, option, value], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and message in err


def test_canonical_reads_a_record_past_int64(tmp_path, capsys):
    N = 10 ** 23 + 1
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"N": N, "value": [0.5, 0.0]}))
    code, out, _ = run(["canonical", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"N": N, "modulus": 0.5, "qtilde_order": N,
                               "reduced_arg": 0.0, "value": [0.5, 0.0]}


def test_memory_error_is_input_error(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 12.2 GiB")
    monkeypatch.setattr(cli, "state_sum", out_of_memory)
    code, _, err = run(["invariant", FIXTURE], capsys)
    assert code == 2
    assert err.startswith("error: out of memory")


def test_invariant_reads_stdin(monkeypatch, capsys):
    doc = json.dumps(boundary4simplex_document())
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code, out, _ = run(["invariant", "-"], capsys)
    assert code == 0
    assert json.loads(out)["value"][0] == pytest.approx(1.0 / 9.0,
                                                       abs=1e-9)


def test_canonical_reads_a_triangulation_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(json.dumps(boundary4simplex_document())))
    code, out, _ = run(["canonical", "-"], capsys)
    assert code == 0
    assert json.loads(out)["modulus"] == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_missing_charge_needs_flag(tmp_path, capsys):
    doc = boundary4simplex_document()
    del doc["charge"]
    path = tmp_path / "nocharge.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["invariant", str(path)], capsys)
    assert code == 2
    assert "--find-charge" in err
    code, _, err = run(["canonical", str(path)], capsys)
    assert code == 2
    assert "invariant --find-charge" in err
    code, out, _ = run(["invariant", str(path), "--find-charge"], capsys)
    assert code == 0
    assert json.loads(out)["value"][0] == pytest.approx(1.0 / 9.0,
                                                       abs=1e-9)


def test_move_then_baseline_comparison(tmp_path, capsys):
    moved = tmp_path / "moved.json"
    code, _, _ = run(["move", FIXTURE, "--kind", "pachner+",
                      "--target", "0,0", "--out", str(moved)], capsys)
    assert code == 0
    assert len(json.loads(moved.read_text())["tetrahedra"]) == 6

    base = tmp_path / "base.json"
    code, out, _ = run(["invariant", FIXTURE], capsys)
    base.write_text(out)
    code, out, _ = run(["invariant", str(moved), "--baseline", str(base)],
                       capsys)
    assert code == 0
    assert "equal mod qtilde, k=" in out

    # a scaled baseline must be flagged as different
    rec = json.loads(base.read_text())
    rec["value"][0] *= 2.0
    base.write_text(json.dumps(rec))
    code, out, _ = run(["invariant", str(moved), "--baseline", str(base)],
                       capsys)
    assert code == 1
    assert "NOT equal" in out


def test_move_bad_target_is_input_error(capsys):
    code, _, err = run(["move", FIXTURE, "--kind", "bubble-",
                        "--target", "99"], capsys)
    assert code == 2
    assert "out of range" in err


def test_move_not_applicable_is_input_error(tmp_path, capsys):
    # every interior edge of the fixture has degree 3, but edge slot 0 of
    # tet 0 lies on the link, which pachner- refuses to collapse
    code, _, err = run(["move", FIXTURE, "--kind", "pachner-",
                        "--target", "0,0"], capsys)
    assert code == 2
    assert err.startswith("error:")


def _set_gluing_side(doc):
    doc["gluings"][0]["a"] = ["x", 0]


def _set_orientation(doc):
    doc["tetrahedra"][0]["orientation"] = "up"


def _set_link(doc):
    doc["link"] = [[99, 0]]


def _set_charge_value(doc):
    doc["charge"][0]["doubled"] = "one"


def _set_coloring_edge(doc):
    doc["coloring"][0]["edge"] = [0, 9]


def _drop_charge_tet(doc):
    del doc["charge"][0]["tet"]


def _set_coloring_scalar(doc):
    doc["coloring"] = 5


def _set_charge_scalar(doc):
    doc["charge"] = 5


def _set_coloring_strings(doc):
    # every coordinate as the string of its float, which float() would read
    for entry in doc["coloring"]:
        entry["g"] = [repr(v) for v in entry["g"]]


def _set_coloring_bool(doc):
    doc["coloring"][0]["g"][1] = True


def _retyped(*path, fraction=True):
    """An edit that rewrites the integer at ``doc[p0][p1]...`` as a value
    that ``int()`` reads as the same integer: the integer moved away from
    zero by a half, or the bool of a 0 or 1."""
    *outer, key = path

    def edit(doc):
        for p in outer:
            doc = doc[p]
        v = doc[key]
        assert type(v) is int and (fraction or v in (0, 1))
        doc[key] = v + (0.5 if v >= 0 else -0.5) if fraction else bool(v)
    edit.__name__ = "_".join(map(str, path)) + ("_frac" if fraction
                                                 else "_bool")
    return edit


@pytest.mark.parametrize("edit", [
    _set_gluing_side, _set_orientation, _set_link, _set_charge_value,
    _set_coloring_edge, _drop_charge_tet, _set_coloring_scalar,
    _set_charge_scalar, _set_coloring_strings, _set_coloring_bool,
    # fractions and bools that int() reads as the fixture's own integers
    _retyped("tetrahedra", 1, "orientation"),
    _retyped("tetrahedra", 0, "orientation", fraction=False),
    _retyped("gluings", 0, "a", 1),
    _retyped("gluings", 2, "b", 0),
    _retyped("gluings", 0, "corner_map", 0, 1),
    _retyped("link", 0, 1),
    _retyped("coloring", 0, "edge", 1),
    _retyped("coloring", 0, "from_corner"),
    _retyped("charge", 1, "tet"),
    _retyped("charge", 1, "edge_index"),
    _retyped("charge", 0, "doubled"),
    _retyped("charge", 0, "doubled", fraction=False),
])
def test_malformed_document_is_input_error(edit, tmp_path, capsys):
    doc = boundary4simplex_document()
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["invariant", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("vertex,message", [
    pytest.param(["--vertex", "99"], "out of range", id="99"),
    pytest.param(["--vertex", "-1"], "out of range", id="-1"),
    pytest.param([], "need --vertex", id="no-vertex"),
])
def test_gauge_vertex_out_of_range_is_input_error(vertex, message, tmp_path,
                                                  capsys):
    code, _, err = run(["gauge", FIXTURE, *vertex, "--x", "1", "--y", "1",
                        "--out", str(tmp_path / "out.json")], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command,record", [
    ("canonical", {"value": ["a", 1]}),
    ("canonical", {"value": 5}),
    ("canonical", {"N": "x", "value": [1, 0]}),
    ("baseline", {"N": 3}),
    ("trials", "0"),
    ("trials", "-1"),
    ("canonical", {"N": 3.7, "value": [0.1, 0]}),
    ("canonical", {"N": True, "value": [0.1, 0]}),
    ("baseline", {"N": 5, "value": [0.04, 0]}),
    # complex() read these as 1 + 0j and nan + 0j
    ("canonical", {"N": 3, "value": [True, False]}),
    ("canonical", {"N": 3, "value": [float("nan"), 0.0]}),
    ("baseline", {"N": 3, "value": [float("nan"), 0.0]}),
])
def test_malformed_record_or_trials_is_input_error(command, record, tmp_path,
                                                   capsys):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    argv = {"canonical": ["canonical", str(path)],
            "baseline": ["invariant", FIXTURE, "--baseline", str(path)],
            "trials": ["verify", "--level", "algebra", "--trials", record],
            }[command]
    try:
        code = main(argv)
    except SystemExit as exc:  # the parser refuses the option
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    if command == "baseline":  # refused before the state sum
        assert out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("option", ["verify --tol", "verify --tol-strict",
                                    "invariant --baseline --tol"])
def test_tolerance_must_be_finite_and_positive(option, value, tmp_path,
                                               capsys):
    # nan, 0 and -1 failed true identities, and inf passed every row
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"N": 3, "value": [1 / 9, 0.0]}))
    argv = {"verify --tol": ["verify", "--level", "algebra", "--tol"],
            "verify --tol-strict": ["verify", "--level", "algebra",
                                    "--tol-strict"],
            "invariant --baseline --tol": ["invariant", FIXTURE, "--baseline",
                                           str(record), "--tol"]}[option]
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"must be finite and > 0, got {float(value)}" in err


@pytest.mark.filterwarnings("error")  # a numpy overflow warning fails
@pytest.mark.parametrize("x,y,message", [
    ("nan", "1", "must be finite, got nan"),       # refused by the parser
    ("1e308", "1e308", "not a finite real number"),  # colors overflow
    ("1e200", "1e-300", "not a finite real number"),  # inverses overflow
    # finite colors whose cocycle check cancels terms of ~1e300
    ("1", "1e-300", "no longer pass the cocycle check to rounding"),
    ("1e300", "1", "no longer pass the cocycle check to rounding"),
])
def test_gauge_writes_only_documents_that_load(x, y, message, tmp_path,
                                               capsys):
    out = tmp_path / "out.json"
    try:
        code = main(["gauge", FIXTURE, "--vertex", "0", "--x", x, "--y", y,
                     "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    _, err = capsys.readouterr()
    assert code == 2 and message in err and "Traceback" not in err
    if x != "nan":  # the gauge, not the document, is refused
        assert err.startswith("error: --x/--y send edge class"
                              if "finite" in message
                              else "error: --x/--y leave gauged colors")
    assert not out.exists()


def test_find_charge_roundtrip(tmp_path, capsys):
    doc = boundary4simplex_document()
    del doc["charge"]
    src = tmp_path / "nocharge.json"
    src.write_text(json.dumps(doc))
    out_path = tmp_path / "charged.json"
    code, _, _ = run(["find-charge", str(src), "--out", str(out_path)],
                     capsys)
    assert code == 0
    assert "charge" in json.loads(out_path.read_text())


def test_gauge_preserves_invariant(tmp_path, capsys):
    gauged = tmp_path / "gauged.json"
    code, _, _ = run(["gauge", FIXTURE, "--seed", "5", "--out", str(gauged)],
                     capsys)
    assert code == 0
    code, out, _ = run(["invariant", str(gauged)], capsys)
    assert code == 0
    assert json.loads(out)["value"][0] == pytest.approx(1.0 / 9.0,
                                                       abs=1e-9)


def test_canonical_from_triangulation_and_result(tmp_path, capsys):
    code, out, _ = run(["canonical", FIXTURE], capsys)
    assert code == 0
    direct = json.loads(out)
    res = tmp_path / "record.json"
    code, out, _ = run(["invariant", FIXTURE], capsys)
    res.write_text(out)
    code, out, _ = run(["canonical", str(res)], capsys)
    assert code == 0
    assert json.loads(out) == direct
    assert direct["modulus"] == pytest.approx(1.0 / 9.0, abs=1e-9)


def test_fixture_file_matches_builder():
    with open(FIXTURE) as fh:
        on_disk = fh.read()
    assert on_disk == json.dumps(boundary4simplex_document(), sort_keys=True,
                                 indent=1) + "\n"
    assert scene_document(boundary4simplex_scene()) == json.loads(on_disk)
