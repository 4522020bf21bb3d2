import io
import json
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from phialg.algebra import algebra_a2_1, algebra_a3_1
from phialg.cli import MAX_GRID_COUNT, main
from phialg.integrals import MAX_SEGMENTS


DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "algebrize_golden.json"
CLI_GOLDEN = DATA / "cli_golden.json"
GENERIC_GOLDEN = DATA / "algebrize_generic_golden.json"
BILLIARDS_VF = "0,0,0,1,-2,0,0,0,0,0,-2,1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_billiards_command(capsys):
    code, out, _ = run_cli(capsys, "--json", "billiards", "--params", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == -1.0 and data["beta"] == -1.0
    assert data["residual"] <= 1e-12
    assert data["v"] == [1.0, -1.0, 0.0, -1.0]


def test_billiards_degenerate_is_input_error(capsys):
    code, _, err = run_cli(capsys, "billiards", "--params", "1,0,1")
    assert code == 2
    assert "error" in err


def test_json_determinism(capsys):
    _, out1, _ = run_cli(capsys, "--json", "--seed", "3", "pde", "heat",
                         "--alpha", "1.0", "--p", "1,0,0,0,0,1")
    _, out2, _ = run_cli(capsys, "--json", "--seed", "3", "pde", "heat",
                         "--alpha", "1.0", "--p", "1,0,0,0,0,1")
    assert out1 == out2


def test_algebra_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "alg.json"
    code, _, _ = run_cli(capsys, "algebra", "build", "--family", "A3_1",
                         "--params", "1,1,1,1,1,1", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "--json", "algebra", "verify", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["dim"] == 3


def test_algebra_verify_rejects_broken_file(tmp_path, capsys):
    alg = algebra_a3_1((1.0,) * 6)
    data = alg.to_dict()
    data["constants"][1][1][0] += 0.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "algebra", "verify", "--file", str(path))
    assert code == 2
    assert "associativity" in err


def test_cre_emit_and_recover(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "--json", "cre", "emit", "--algebra", "C",
                           "--phi", "swap")
    assert code == 0
    system = json.loads(out)["system"]
    assert len(system["equations"]) == 2

    doc = {
        "A": [
            [{"y": 1.0}, {"x": 1.0}, {"x": -2.0}, {"y": 2.0}],
            [{"x": 1.0}, {"y": -1.0}, {"x": 3.0, "y": -1.0}, {"x": -1.0, "y": -3.0}],
        ],
        "F": [0.0, 0.0],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "--json", "cre", "recover", "--file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "A2_1"
    assert abs(data["params"][0] - 2.0) < 1e-9 and abs(data["params"][1] - 3.0) < 1e-9


def test_cre_recover_no_match_exit_code(tmp_path, capsys):
    # position-dependent coefficients that fit no family pattern
    doc = {
        "A": [
            [{"x": 1.0}, {"y": 1.0}, {"const": 1.0}, {"x": 0.3}],
            [{"y": 1.0}, {"const": 2.0}, {"x": -1.0}, {"y": 0.7}],
        ],
        "F": [0.0, 0.0],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "--json", "cre", "recover", "--file", str(path))
    assert code == 1
    assert not json.loads(out)["pass"]


def test_cre_emit_nonlinear_reports_position_dependent(capsys):
    code, out, _ = run_cli(capsys, "--json", "cre", "emit", "--algebra", "C",
                           "--phi", "nonlinear-3to2")
    assert code == 0
    assert json.loads(out)["system"] == "position-dependent"


def test_cre_equiv_command(tmp_path, capsys):
    base = {
        "A": [[1.0, 0.5, -0.2, 0.8], [0.3, -1.1, 0.7, 0.4]],
        "F": [0.0, 0.0],
    }
    scaled = {
        "A": [[2.0, 1.0, -0.4, 1.6], [0.9, -3.3, 2.1, 1.2]],
        "F": [0.0, 0.0],
    }
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    p1.write_text(json.dumps(base))
    p2.write_text(json.dumps(scaled))
    code, out, _ = run_cli(capsys, "--json", "cre", "equiv", "--s1", str(p1), "--s2", str(p2))
    assert code == 0
    m = np.array(json.loads(out)["matrices"][0])
    assert np.allclose(m, np.diag([2.0, 3.0]), atol=1e-9)

    other = {"A": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], "F": [0.0, 0.0]}
    p3 = tmp_path / "s3.json"
    p3.write_text(json.dumps(other))
    code, out, _ = run_cli(capsys, "--json", "cre", "equiv", "--s1", str(p1), "--s2", str(p3))
    assert code == 1


def test_integrate_loop(capsys):
    code, out, _ = run_cli(capsys, "--json", "integrate", "--loop", "circle:r=1",
                           "--f", "phi^2", "--phi", "swap", "--algebra", "C")
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    assert data["magnitudes"][-1] <= 1e-8


def test_integrate_open_segment(capsys):
    code, out, _ = run_cli(capsys, "--json", "integrate", "--loop",
                           "segment:x0=0,y0=0,x1=1,y1=0", "--f", "unit",
                           "--phi", "identity2", "--algebra", "C")
    assert code == 0
    value = json.loads(out)["value"]
    assert abs(value[0] - 1.0) < 1e-12 and abs(value[1]) < 1e-12


def test_ode_solve(capsys):
    code, out, _ = run_cli(capsys, "--json", "ode", "solve", "--family", "exp",
                           "--algebra", "C", "--phi", "identity2", "--C", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] and data["max_residual"] <= 1e-6


@pytest.mark.parametrize("family", ["picard", "exp"])
def test_ode_over_a_complex_algebra_file_prints_complex_numbers_as_pairs(family, tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(algebra_a2_1(0.3, -0.2, scalars="complex").to_dict()))
    argv = ["ode", "solve", "--family", family, "--algebra", str(path), "--phi", "identity2"]
    code, out, err = run_cli(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    data = json.loads(out)
    values = [data["final"]] if family == "picard" else [s["w"] for s in data["samples"]]
    for value in values:
        assert np.array(value).shape == (2, 2)  # two coordinates, each [re, im]
    if family == "picard":
        np.testing.assert_allclose(data["final"], [[np.exp(0.6), 0.0], [0.0, 0.0]], rtol=1e-6)
        code, plain, _ = run_cli(capsys, *argv)
        assert code == 0 and "w(end) = [(1.82" in plain


def test_pde_first_order(capsys):
    code, out, _ = run_cli(capsys, "--json", "pde", "first-order",
                           "--coeffs", "1.3,-0.7,0.4,2.1", "--alpha", "0", "--beta", "0")
    assert code == 0
    data = json.loads(out)
    assert data["residual"] <= 1e-6


def test_algebrize_command(capsys):
    vf = "0,0,0,1,-2,0,0,0,0,0,-2,1"  # billiards (1,1,1)
    code, out, _ = run_cli(capsys, "--json", "algebrize", "--vf", vf)
    assert code == 0
    data = json.loads(out)
    assert any(w["case"] == "A2_1"
               and abs(w["params"][0] + 1) < 1e-6 and abs(w["params"][1] + 1) < 1e-6
               for w in data["witnesses"])


def test_algebrize_case_2_finds_the_a2_2_witness_of_a_field_built_in_a2_2(capsys):
    # c1 w + c2 w^2 in A2_2(-0.75, 1.5), the last field of the algebrize golden
    vf = "0.0,-0.8125,0.03125,1.75,0.0,2.625,0.0,0.625,-0.5625,-1.3125,2.625,3.9375"
    code, out, err = run_cli(capsys, "--json", "algebrize", "--case", "2", "--vf", vf)
    assert (code, err) == (0, "")
    [witness] = json.loads(out)["witnesses"]
    assert witness["case"] == "A2_2" and witness["residual"] <= 1e-8
    np.testing.assert_allclose(witness["params"], [-0.75, 1.5], atol=1e-12)


def test_algebrize_json_is_byte_identical_to_golden(capsys):
    for case in json.loads(GOLDEN.read_text()):
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == case["exit"], case["field"]
        assert out == case["stdout"], case["field"]


def test_algebrize_json_on_generic_fields_is_byte_identical_to_golden(capsys):
    # six generic fields of the seed-11 search deck and the first one scaled
    # by 1e-9: all seven have blocks of rank three, so no witness, at any scale
    for case in json.loads(GENERIC_GOLDEN.read_text()):
        code, out, _ = run_cli(capsys, *case["argv"])
        assert code == case["exit"], case["field"]
        assert out == case["stdout"], case["field"]


def test_every_subcommand_json_is_byte_identical_to_golden(capsys):
    for case in json.loads(CLI_GOLDEN.read_text()):
        argv = [arg.replace("{data}", str(DATA)) for arg in case["argv"]]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (case["exit"], ""), case["argv"]
        assert out == case["stdout"], case["argv"]


def test_reused_parser_leaks_no_state_between_calls(capsys):
    # main builds its parser once per process; every golden argv, an argparse
    # usage error and a PhialgError, then every golden argv again in reverse
    # order, must each print exactly what a fresh process prints
    cases = json.loads(CLI_GOLDEN.read_text())

    def check(case):
        argv = [arg.replace("{data}", str(DATA)) for arg in case["argv"]]
        assert run_cli(capsys, *argv) == (case["exit"], case["stdout"], ""), case["argv"]

    for case in cases:
        check(case)
    with pytest.raises(SystemExit) as exc:
        main(["--json", "pde", "heat", "--alpha"])
    assert exc.value.code == 2
    capsys.readouterr()
    _assert_one_error_line(*run_cli(capsys, "--json", "billiards", "--params", "1,0,1"))
    for case in reversed(cases):
        check(case)


@pytest.mark.parametrize("argv", [
    ["--vf", "nan,0,0,1,-2,0,0,0,0,0,-2,1"],
    ["--vf", "inf,0,0,1,-2,0,0,0,0,0,-2,1"],
    ["--vf", "0,0,0,1,-2,0,0,0,0,0,-2,1e400"],
    ["--vf", "0,0,0,1,-2,0,0,0,0,0,-2"],
    ["--vf", BILLIARDS_VF + ",0"],
])
def test_algebrize_bad_input_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, "--json", "algebrize", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["pde", "first-order", "--coeffs", "1.3,-0.7,0.4,2.1", "--alpha", "nan", "--beta", "0.3"],
    ["pde", "second-order", "--coeffs", "1,0,1,1,1", "--alpha", "nan", "--beta", "1"],
    ["pde", "system451", "--params", "nan,1,1,1"],
    ["ode", "solve", "--family", "exp", "--algebra", "C", "--phi", "identity2", "--C", "nan,0"],
    ["algebra", "build", "--family", "A3_1", "--params", "nan,1,1,1,1,1"],
])
def test_non_finite_input_fails_closed(capsys, argv):
    _assert_one_error_line(*run_cli(capsys, "--json", *argv))


@pytest.mark.parametrize("n", ["0", "-4", "7"])
def test_integrate_segment_count_below_one_is_input_error(capsys, n):
    _assert_one_error_line(*run_cli(capsys, "--json", "integrate", "--loop", "circle:r=1",
                                    "--f", "phi", "--phi", "swap", "--algebra", "C", "--N", n))


def test_integrate_closed_loop_below_eight_segments_names_the_option(capsys):
    result = run_cli(capsys, "--json", "integrate", "--loop", "circle:r=1", "--f", "phi",
                     "--phi", "swap", "--algebra", "C", "--N", "7")
    _assert_one_error_line(*result)
    assert "--N" in result[2]


@pytest.mark.parametrize("loop", ["circle:r=1", "segment:x0=0,y0=0,x1=1,y1=1"])
def test_integrate_segment_count_above_the_cap_is_input_error_before_allocation(capsys, loop):
    tracemalloc.start()
    try:
        result = run_cli(capsys, "--json", "integrate", "--loop", loop, "--f", "phi",
                         "--phi", "swap", "--algebra", "C", "--N", str(MAX_SEGMENTS + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_one_error_line(*result)
    assert "MAX_SEGMENTS" in result[2]
    assert peak < 2**22


@pytest.mark.parametrize("grid", ["0.1,0.6,0", "0.1,0.6,2.7", f"0.1,0.6,{MAX_GRID_COUNT + 1}",
                                  "0.1,0.6,1e9", "0.1,0.6"])
def test_ode_grid_count_must_be_a_capped_positive_integer(capsys, grid):
    tracemalloc.start()
    try:
        result = run_cli(capsys, "--json", "ode", "solve", "--family", "exp", "--algebra", "C",
                         "--phi", "identity2", "--grid", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_one_error_line(*result)
    assert "--grid" in result[2]
    assert peak < 2**22


@pytest.mark.parametrize("scale", [1e100, 1e160, 1e300, 1e308])
def test_algebrize_huge_coefficients_are_input_error(capsys, scale):
    vf = ",".join(str(x) for x in (0, 0, 0, scale, -2 * scale, 0, 0, 0, 0, 0, -2 * scale, scale))
    _assert_one_error_line(*run_cli(capsys, "--json", "algebrize", "--vf", vf))


@pytest.mark.parametrize("argv", [
    ["pde", "heat", "--alpha", "1e200", "--p", "1,0,0,0,0,1"],
    ["billiards", "--params", "1e300,1,1"],
    ["algebra", "build", "--family", "A2_1", "--params", "1e300,1e300"],
])
def test_huge_finite_input_fails_closed(capsys, argv):
    _assert_one_error_line(*run_cli(capsys, "--json", *argv))


@pytest.mark.parametrize("family", ["trig", "hyperbolic"])
def test_system451_overflowing_closed_form_is_input_error(capsys, family):
    # a1 + a2 = 1e-12 passes the degeneracy guard, but then math.exp overflows
    _assert_one_error_line(*run_cli(capsys, "--json", "pde", "system451",
                                    "--params", "0,1e-12,0,1", "--family", family))


@pytest.mark.parametrize("argv", [
    ["pde", "heat", "--alpha", "1e-7", "--p", "1e-3,0,0,0,0,0"],
    ["pde", "second-order", "--coeffs", "1,1e8,1e-7,1e8,1e-7", "--alpha", "1e300",
     "--beta", "1e150"],
])
def test_overflowing_pde_closed_form_is_input_error(capsys, argv):
    # the exponent passes every parameter check, then math.exp overflows at a residual point
    result = run_cli(capsys, "--json", *argv)
    _assert_one_error_line(*result)
    assert "closed form overflows at" in result[2]


def test_nan_residual_prints_null_and_fails_under_json(capsys):
    argv = ["pde", "first-order", "--coeffs", "1e300,1e300,1,1", "--alpha", "0.2", "--beta", "0.3"]
    code, out, err = run_cli(capsys, "--json", *argv)
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert payload["residual"] is None and payload["pass"] is False
    assert payload["solution_params"]["phi_matrix"][0] == [1.0, 1e300]
    # the plain run reports the same failure
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and "residual nan" in out


def test_overflowing_ode_check_prints_null_without_a_warning(capsys):
    argv = ["--json", "ode", "solve", "--family", "exp", "--algebra", "C", "--phi", "identity2",
            "--C", "1e308,1e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert payload["max_residual"] is None and payload["pass"] is False
    assert [str(w.message) for w in caught] == []


def test_recover_failure_names_the_stage_once(tmp_path, capsys):
    # phi_y = x and phi_x = -x for u: not a gradient
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"A": [[{"x": 1.0}, {"x": 1.0}, 0.0, 0.0],
                                      [0.0, 0.0, 1.0, {"y": 1.0}]]}))
    code, out, _ = run_cli(capsys, "cre", "recover", "--file", str(path))
    assert code == 1
    assert out == "no match: no match at stage 'conservativeness': case A2_12\n"


def test_recover_names_a_non_finite_coefficient(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text('{"A": [[NaN, 1, 0, 0], [0, 0, 1, 1]]}')
    code, out, err = run_cli(capsys, "cre", "recover", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: non-finite coefficient A[0][0] (constant part): nan\n"


def test_closed_loop_of_overflowing_radius_fails_with_one_error_line(capsys):
    argv = ["--json", "integrate", "--loop", "circle:r=1e300", "--f", "phi^3",
            "--phi", "identity2", "--algebra", "C"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: path marked closed but endpoint gap is inf\n"
    assert [str(w.message) for w in caught] == []


def test_non_finite_value_of_a_passing_payload_fails_under_json(capsys):
    # phi^3 along a segment of length 1e200 overflows; the payload said "pass": true
    code, out, err = run_cli(capsys, "--json", "integrate", "--loop",
                             "segment:x0=0,y0=0,x1=1e200,y1=0", "--f", "phi^3",
                             "--phi", "swap", "--algebra", "C", "--N", "8")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"command": "integrate", "pass": False, "value": [None, None]}


def test_algebrize_has_only_the_vf_and_case_options(capsys):
    # the closed form needs no parameter grid, so --box and --step are gone
    for option in (["--box=-3,3"], ["--step", "0.0005"]):
        with pytest.raises(SystemExit) as exc:
            main(["--json", "algebrize", "--vf", BILLIARDS_VF, *option])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err
    code, out, err = run_cli(capsys, "--json", "algebrize", "--case", "1", "--vf", BILLIARDS_VF)
    assert (code, err) == (0, "") and [w["case"] for w in json.loads(out)["witnesses"]] == ["A2_1"]


def test_integrate_with_algebra_file_and_poly_function(tmp_path, capsys):
    path = tmp_path / "alg.json"
    run_cli(capsys, "algebra", "build", "--family", "C", "--out", str(path))
    code, out, _ = run_cli(capsys, "--json", "integrate", "--loop",
                           "segment:x0=0,y0=0,x1=1,y1=1", "--f", "poly:[[0,0],[1,0]]",
                           "--phi", "identity2", "--algebra", str(path))
    assert code == 0
    value = json.loads(out)["value"]
    # integral of z dz from 0 to 1+i is (1+i)^2/2 = i
    assert abs(value[0]) < 1e-10 and abs(value[1] - 1.0) < 1e-10


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_paper_examples(capsys):
    code, out, _ = run_cli(capsys, "--json", "paper-examples")
    assert code == 0
    data = json.loads(out)
    assert data["pass"]
    assert len(data["checks"]) >= 20


def test_paper_examples_table_reports_the_run_time(capsys):
    code, out, _ = run_cli(capsys, "paper-examples")
    assert code == 0
    assert re.fullmatch(r"\(ran in \d+\.\d{3}s\)", out.splitlines()[-1])


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_reported_as_bad_input(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["--json", "ode", "solve", "--family", "exp", "--algebra", "C",
                 "--phi", "identity2", "--C", "1,0"])
    assert code == 1
    assert capsys.readouterr().err == ""


def test_files_that_cannot_be_opened_are_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["algebra", "verify", "--file", missing],
                 ["algebra", "build", "--family", "C", "--out", str(tmp_path / "no" / "a.json")],
                 ["cre", "emit", "--algebra", missing, "--phi", "swap"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and "No such file" in err, argv


_SYSTEM = {"A": [[1, 0, 0, 0], [0, 0, 1, 0]]}
_MALFORMED_SYSTEMS = [
    {"A": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]},  # a third row
    {"A": [[1, 0, 0, 0, 5], [0, 0, 1, 0]]},  # a fifth column
    {**_SYSTEM, "F": [0, 0, 0]},  # a third right-hand side
    {"A": [[[1, 2], 0, 0, 0], [0, 0, 1, 0]]},  # a list entry
    {"A": [[None, 0, 0, 0], [0, 0, 1, 0]]},  # a null entry
    {"A": 5},
    [[1, 0, 0, 0], [0, 0, 1, 0]],  # a top-level list
]
_MALFORMED_ALGEBRAS = [
    [[1.0, 0.0], [0.0, 1.0]],  # a top-level list
    {"scalars": "complex", "constants": [[[1.0]]], "unit": [1.0]},  # no [re, im] pairs
    {"scalars": "real", "constants": {"e1": [1.0]}, "unit": [1.0]},  # constants as an object
]


@pytest.mark.parametrize("argv,payload", [
    *((["cre", "recover", "--file", "{bad}"], s) for s in _MALFORMED_SYSTEMS),
    *((["cre", "equiv", "--s1", "{bad}", "--s2", "{good}"], s) for s in _MALFORMED_SYSTEMS),
    *((["algebra", "verify", "--file", "{bad}"], a) for a in _MALFORMED_ALGEBRAS),
    *((["cre", "emit", "--algebra", "{bad}", "--phi", "swap"], a) for a in _MALFORMED_ALGEBRAS),
])
def test_malformed_input_files_are_input_errors(tmp_path, capsys, argv, payload):
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(json.dumps(payload))
    good.write_text(json.dumps(_SYSTEM))
    argv = [arg.format(bad=bad, good=good) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_one_error_line(*run_cli(capsys, "--json", *argv))
