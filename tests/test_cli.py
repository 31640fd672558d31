import json
import os
import re
import subprocess
import sys

import pytest

import ffzeta
from ffzeta.cli import COMMANDS, main
from ffzeta.fields import FieldSpec, FqElem
from ffzeta.polyring import APoly, MPoly
from ffzeta.seriesinf import LaurentSeries
from ffzeta.zeta import exact_L


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_poly_fixture(capsys):
    code, out, _ = run_cli(capsys, "zeta-poly", "--p", "2", "--e", "1", "--n", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["z"]
    assert doc["terms"] == [{"exp": [0], "coeff": {"coeffs": [[1]]}},
                            {"exp": [1], "coeff": {"coeffs": [[1]]}}]


def test_powersum_fixture(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--p", "2", "--e", "1", "--d", "1", "--n", "1")
    assert code == 0
    assert json.loads(out) == {"coeffs": [[1]]}


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "powersum", "--nope", "3")
    assert code == 2


def test_missing_argument_exits_2(capsys):
    code, _, err = run_cli(capsys, "powersum", "--p", "2")
    assert code == 2
    assert "missing" in err


def test_validation_error_exits_2(capsys):
    code, _, _ = run_cli(capsys, "zeta-poly", "--p", "2", "--n", "1")
    assert code == 2  # positive n is a series, not a polynomial


def test_wrong_json_shape_names_the_flag(capsys):
    code, _, err = run_cli(capsys, "zeta-eval", "--p", "3", "--x", "[1]",
                           "--neg-y-digits", "1", "--prec", "5")
    assert code == 2
    assert "--x expects a JSON object" in err and '"coeffs"' in err


def test_precision_error_exits_3(capsys):
    x = LaurentSeries.theta(FieldSpec.default(2), 60)
    code, _, err = run_cli(capsys, "zeta-eval", "--p", "2",
                           "--x", json.dumps(x.to_json()),
                           "--neg-y-digits", "1,1",
                           "--prec", "40")
    assert code == 3


def test_zeta_eval_smoke(capsys):
    spec = FieldSpec.default(2)
    x = LaurentSeries.theta(spec, 90)
    code, out, _ = run_cli(capsys, "zeta-eval", "--p", "2",
                           "--x", json.dumps(x.to_json()),
                           "--neg-y-digits", "1,0,0,0,0,0",
                           "--prec", "12")
    assert code == 0
    value = LaurentSeries.from_json(spec, json.loads(out))
    assert value.coefficient(0).code == 1


def test_zeta_eval_at_x_of_positive_valuation_keeps_the_digits_x_moves_up(capsys):
    # q = 3, x = pi^2: shell 1 is 2 pi^6 + O(pi^8), and x^(-1) moves it to 2 pi^4
    code, out, err = run_cli(capsys, "zeta-eval", "--p", "3",
                             "--x", json.dumps({"val": 2, "prec": 40, "coeffs": [[1]]}),
                             "--neg-y-digits", "0,2,1", "--prec", "6")
    assert code == 0 and not err
    assert json.loads(out)["coeffs"] == [[1], [0], [0], [0], [2]]


# a run of each subcommand whose schema is `-> {keys}`; one missing here
# fails collection
KEYED_RUNS = {
    "mk": ("--p", "3", "--n1", "-2", "--k", "1", "--P", "[1,0,1]"),
    "interp-gap": ("--p", "2", "--indices", "1,-1", "--P", "[0,1]", "--k", "1"),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_describe(capsys, name):
    """Every subcommand answers --describe with no other argument but
    verify's suite."""
    suite = ("charsum",) if name == "verify" else ()
    code, out, err = run_cli(capsys, name, *suite, "--describe")
    assert code == 0 and not err
    assert json.loads(out) == {"command": name, "schema": COMMANDS[name][1]}


def _needed(name):
    return [flag for flag, kwargs in COMMANDS[name][2].items() if kwargs.get("need")]


@pytest.mark.parametrize("name", [name for name in COMMANDS if _needed(name)])
def test_every_subcommand_names_each_missing_required_flag(capsys, name):
    needed = _needed(name)
    code, out, err = run_cli(capsys, name)
    assert code == 2 and not out
    assert err == f"error: missing required arguments: {', '.join(needed)}\n"
    for flag in needed:
        # the check runs before the runner, so any value argparse accepts will do
        given = [arg for other in needed if other != flag for arg in (other, "1")]
        code, out, err = run_cli(capsys, name, *given)
        assert code == 2 and not out
        assert err == f"error: missing required arguments: {flag}\n"


@pytest.mark.parametrize("argv", [
    (name, *KEYED_RUNS[name]) for name, (_, schema, _, _) in COMMANDS.items()
    if re.search(r"->\s*\{", schema)])
def test_describe_names_the_keys_the_command_emits(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--describe")
    assert code == 0
    schema = json.loads(out)["schema"]
    keys = re.findall(r"(\w+):", re.search(r"->\s*\{([^}]*)\}", schema).group(1))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sorted(json.loads(out)) == sorted(keys)


def test_zero_division_exits_2_with_one_error_line(capsys, monkeypatch):
    def raise_zero_division(*args):
        raise ZeroDivisionError("inversion of a non-unit in A/(P^k)")

    monkeypatch.setattr(ffzeta.vadic, "interpolation_gap", raise_zero_division)
    code, out, err = run_cli(capsys, "interp-gap", "--p", "2", "--indices", "1",
                             "--P", "[0,1]", "--k", "1")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: inversion of a non-unit in A/(P^k)"]


def test_round_trip_mpoly_document(capsys):
    code, out, _ = run_cli(capsys, "zeta-poly", "--p", "3", "--n", "-2")
    spec = FieldSpec.default(3)
    doc = json.loads(out)
    back = MPoly.from_json(doc, lambda d: APoly.from_json(spec, d))
    assert back == exact_L(spec, -2, 0)


def test_determinism(capsys):
    args = ("mzv", "--p", "2", "--indices", "-1,-1", "--mode", "weak")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "zeta-poly", "--p", "2", "--n", "-1",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "z,coeff"
    assert len(lines) == 3


def test_csv_format_of_a_plain_document_is_one_row_per_key(capsys):
    code, out, _ = run_cli(capsys, "mk", "--p", "2", "--n1", "-3", "--k", "1", "--P", "[0,1]",
                           "--format", "csv")
    _, doc, _ = run_cli(capsys, "mk", "--p", "2", "--n1", "-3", "--k", "1", "--P", "[0,1]")
    doc = json.loads(doc)
    assert code == 0
    assert out.splitlines() == [f"{key},{json.dumps(doc[key])}" for key in sorted(doc)]
    assert [line.split(",")[0] for line in out.splitlines()] == ["dP", "k", "mk", "n1"]


def test_vadic_subcommands(capsys):
    P = json.dumps([0, 1])
    code, out, _ = run_cli(capsys, "vadic", "--p", "2", "--P", P, "--n", "-1")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["z"]
    code, out, _ = run_cli(capsys, "vadic-eval", "--p", "2", "--P", P, "--k", "2",
                           "--neg-y-digits", "1,0,0", "--delta", "1", "--zdeg", "2")
    assert code == 0
    code, out, _ = run_cli(capsys, "mk", "--p", "2", "--n1", "0", "--k", "0", "--P", P)
    assert code == 0
    assert json.loads(out)["mk"] == -2
    code, out, _ = run_cli(capsys, "interp-gap", "--p", "2", "--indices", "1",
                           "--P", P, "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["satisfied"] is True


def test_mzv_subcommand_numeric(capsys):
    code, out, _ = run_cli(capsys, "mzv", "--p", "2", "--indices", "1",
                           "--prec", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["prec"] == 16
    code, _, _ = run_cli(capsys, "mzv", "--p", "2", "--indices", "1")
    assert code == 2  # positive indices need --prec


def test_mzv_rejects_z_codes_outside_the_field(capsys):
    for z in ("5", "-1", "0,2"):
        code, out, err = run_cli(capsys, "mzv", "--p", "2", "--indices", "1",
                                 "--prec", "10", "--z", z)
        assert code == 2 and not out
        assert "--z expects codes in [0, 2)" in err
    code, _, _ = run_cli(capsys, "mzv", "--p", "2", "--indices", "1", "--prec", "10",
                         "--z", "1")
    assert code == 0


def test_mzv_rejects_precision_below_one(capsys):
    code, out, err = run_cli(capsys, "mzv", "--p", "2", "--indices", "1", "--prec", "-5")
    assert code == 2 and not out
    assert "prec >= 1" in err


X_AT = '{"val": -1, "prec": 9, "coeffs": [%s]}'


@pytest.mark.parametrize("argv, message", [
    (("mzv", "--indices", "1", "--prec", "6", "--P", "[0,1]"), "--P does not apply"),
    (("mzv", "--indices", "-1", "--prec", "6"), "--prec does not apply"),
    (("mzv", "--indices", "-1,-2", "--z", "1"), "--z does not apply"),
    (("zeta-eval", "--x", X_AT % "[3]", "--neg-y-digits", "1,0,0", "--prec", "5"),
     "--x expects"),
    (("zeta-eval", "--x", X_AT % "[2]", "--neg-y-digits", "1,0,0", "--prec", "5"),
     "--x expects"),
    (("zeta-eval", "--e", "2", "--x", X_AT % "[1]", "--neg-y-digits", "1,0,0", "--prec", "5"),
     "--x expects"),
    (("pellarin", "--n", "1", "--s", "-1"), "s must be >= 0"),
])
def test_options_a_route_would_ignore_or_misread_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith(f"error: {message}")


def test_powersum_and_pellarin_past_p_251_exit_0(capsys):
    # S_1(q - 1) = -1 for every q
    code, out, err = run_cli(capsys, "powersum", "--p", "257", "--d", "1", "--n", "256")
    assert code == 0 and not err
    assert json.loads(out) == {"coeffs": [[256]]}
    code, out, err = run_cli(capsys, "pellarin", "--p", "257", "--n", "256", "--zdeg", "1",
                             "--prec", "5")
    assert code == 0 and not err
    assert json.loads(out) == {"vars": ["z"], "terms": [
        {"exp": [0], "coeff": {"val": 0, "prec": 5, "coeffs": [[1]]}}]}


def test_degree_one_vadic_eval_past_the_packed_kernel_exits_0(capsys):
    # at p = 257 too a degree-one place takes the theta ring; the value is 1 mod P^2
    code, out, err = run_cli(capsys, "vadic-eval", "--p", "257", "--P", "[3,1]", "--k", "2",
                             "--neg-y-digits", "5,0", "--delta", "5", "--zdeg", "1")
    assert code == 0 and not err
    assert json.loads(out)["terms"] == [{"coeff": {"coeffs": [[1]]}, "exp": [0]}]


def test_verify_suites_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "charsum", "--p", "3",
                           "--seed", "1", "--trials", "25", "--budget", "20000")
    assert code == 0
    assert json.loads(out)["violations"] == []
    code, out, _ = run_cli(capsys, "verify", "euler", "--p", "2")
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_verify_thresholds_exits_3_on_a_fast_path_mismatch(capsys, monkeypatch):
    real = ffzeta.oracle.power_sum
    monkeypatch.setattr(ffzeta.oracle, "power_sum",
                        lambda spec, d, n: real(spec, d, n) + APoly.one(spec))
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "2000")
    report = json.loads(out)
    assert report["violations"] == []
    assert report["reports"][0]["fast_path_mismatches"]
    assert code == 3
    monkeypatch.setattr(ffzeta.oracle, "power_sum", real)
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "2000")
    assert code == 0 and not json.loads(out)["reports"][0]["fast_path_mismatches"]


def test_verify_thresholds_exits_3_on_a_twisted_fast_path_mismatch(capsys, monkeypatch):
    real = ffzeta.oracle.twisted_power_sum
    monkeypatch.setattr(ffzeta.oracle, "twisted_power_sum",
                        lambda spec, d, factors: real(spec, d, factors) + MPoly.const(
                            tuple(f"t{i + 1}" for i in range(len(factors))), FqElem(spec, 1)))
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "2000")
    report = json.loads(out)
    assert report["violations"] == []
    assert report["reports"][1]["fast_path_mismatches"]
    assert code == 3
    monkeypatch.setattr(ffzeta.oracle, "twisted_power_sum", real)
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "2000")
    assert code == 0 and not json.loads(out)["reports"][1]["fast_path_mismatches"]


def test_verify_thresholds_exits_3_on_a_character_fast_path_mismatch(capsys, monkeypatch):
    real = ffzeta.oracle.char_power_sum
    monkeypatch.setattr(ffzeta.oracle, "char_power_sum",
                        lambda spec, d, chi, n: real(spec, d, chi, n) + FqElem(spec, d == 1))
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "2000")
    report = json.loads(out)
    assert report["violations"] == []
    assert report["reports"][2]["kind"] == "char"
    assert report["reports"][2]["fast_path_mismatches"] == [
        {"q": 2, "dP": 1, "delta": 0, "d": 1}]
    assert code == 3
    monkeypatch.setattr(ffzeta.oracle, "char_power_sum", real)
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "2000")
    assert code == 0 and not json.loads(out)["reports"][2]["fast_path_mismatches"]


VERIFY_SUITES = ("charsum", "thresholds", "trivial-zeros", "euler", "interp")


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suite_passes_at_p_2(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--p", "2", "--seed", "1",
                             "--trials", "25", "--budget", "2000")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["suite"] == suite and doc["violations"] == []


def _plus_one(real):
    """`real` plus the constant 1 of its result's ring."""
    def broken(spec, *args):
        value = real(spec, *args)
        return value + (MPoly.const(value.vars, APoly.one(spec)) if isinstance(value, MPoly)
                        else APoly.one(spec))
    return broken


# suite -> (module, function, its broken replacement): each breaks one value
# the suite compares, so the suite must report it
VERIFY_BREAKS = {
    "charsum": ("oracle", "charsum_trial", lambda real: lambda cfg: 1),
    "thresholds": ("oracle", "enumerated_power_sum", _plus_one),
    "trivial-zeros": ("zeta", "exact_L", _plus_one),
    "euler": ("oracle", "enumerated_vadic_exact_L", _plus_one),
    "interp": ("vadic", "interpolation_gap_bound", lambda real: lambda *args: 10 ** 6),
}


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suite_reports_a_violation_with_exit_3(capsys, monkeypatch, suite):
    module, name, broken = VERIFY_BREAKS[suite]
    module = getattr(ffzeta, module)
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    code, out, err = run_cli(capsys, "verify", suite, "--p", "2", "--seed", "1",
                             "--trials", "25", "--budget", "2000")
    assert (code, err) == (3, "")
    assert json.loads(out)["violations"]


def test_unreadable_json_file_is_a_validation_error(capsys, tmp_path):
    binary = tmp_path / "P.bin"
    binary.write_bytes(b"\xff\xfe[0, 1]")
    for flag, path in (("--P", tmp_path), ("--P", binary)):
        code, out, err = run_cli(capsys, "vadic", "--p", "2", flag, str(path), "--n", "-1")
        assert code == 2 and not out
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} cannot read {path}")
    code, out, err = run_cli(capsys, "zeta-eval", "--p", "2", "--x", str(tmp_path),
                             "--neg-y-digits", "1")
    assert code == 2 and not out
    assert err == f"error: --x cannot read {tmp_path} (IsADirectoryError)\n"
    readable = tmp_path / "P.json"
    readable.write_text("[0, 1]")
    code, out, _ = run_cli(capsys, "vadic", "--p", "2", "--P", str(readable), "--n", "-1")
    assert (code, out) == run_cli(capsys, "vadic", "--p", "2", "--P", "[0,1]", "--n", "-1")[:2]


def test_inline_json_is_read_before_a_file_of_the_same_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "[0,1]").write_text("[1,1]")
    at_theta = run_cli(capsys, "vadic", "--p", "2", "--P", "[0, 1]", "--n", "-1")
    assert at_theta[0] == 0
    assert run_cli(capsys, "vadic", "--p", "2", "--P", "[0,1]", "--n", "-1") == at_theta
    # text that is not JSON still names a file
    (tmp_path / "P.json").write_text("[1,1]")
    code, out, _ = run_cli(capsys, "vadic", "--p", "2", "--P", "P.json", "--n", "-1")
    assert code == 0 and out != at_theta[1]
    assert (code, out) == run_cli(capsys, "vadic", "--p", "2", "--P", "[1,1]", "--n", "-1")[:2]


@pytest.mark.parametrize("argv, flag", [
    (("mzv", "--indices", "1,,2", "--prec", "10"), "--indices"),
    (("mzv", "--indices", "-1,-2,"), "--indices"),
    (("interp-gap", "--indices", ",1", "--P", "[0,1]", "--k", "0"), "--indices"),
    (("zeta-eval", "--x", X_AT % "[1]", "--neg-y-digits", "1,,0", "--prec", "5"),
     "--neg-y-digits"),
    (("vadic-eval", "--P", "[0,1]", "--k", "2", "--neg-y-digits", "1,0,"), "--neg-y-digits"),
    (("mzv", "--indices", "1", "--prec", "10", "--z", "1, ,0"), "--z"),
])
def test_empty_list_entries_exit_2_naming_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} has an empty entry")


@pytest.mark.parametrize("argv, flag", [
    (("verify", "charsum", "--trials", "-1"), "--trials"),
    (("verify", "charsum", "--trials", "0"), "--trials"),
    (("verify", "thresholds", "--budget", "-1"), "--budget"),
    (("verify", "charsum", "--budget", "0"), "--budget"),
])
def test_verify_that_would_check_nothing_exits_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flag} must be >= 1\n")


def test_verify_charsum_whose_budget_admits_no_trial_exits_2(capsys):
    # every trial enumerates p^dim >= 5 points, so a budget of 4 runs none
    code, out, err = run_cli(capsys, "verify", "charsum", "--p", "5", "--budget", "4",
                             "--trials", "30")
    assert (code, out, err) == (2, "", "error: --budget 4 admits none of the 30 trials\n")


def test_verify_thresholds_whose_budget_admits_no_power_sum_cell_exits_2(capsys):
    # at q = 2 the power-sum scan runs n <= 6, so a shell of q^d monics
    # costs 6 q^d >= 6: a budget of 5 checks no cell, one of 6 checks d = 0
    for budget in ("1", "5"):
        code, out, err = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", budget)
        assert (code, out, err) == (2, "", f"error: --budget {budget} admits no power-sum cell\n")
    code, out, _ = run_cli(capsys, "verify", "thresholds", "--p", "2", "--budget", "6")
    assert code == 0
    assert {row["d"] for row in json.loads(out)["reports"][0]["rows"]} == {0}


@pytest.mark.parametrize("e", ["-1", "0"])
def test_extension_degree_below_one_exits_2(capsys, e):
    code, out, err = run_cli(capsys, "powersum", "--p", "2", "--e", e, "--d", "1", "--n", "1")
    assert (code, out, err) == (2, "", "error: --e must be >= 1\n")


def test_field_override_via_modulus(capsys):
    code, out, _ = run_cli(capsys, "powersum", "--p", "2", "--e", "2",
                           "--modulus", "[1,1,1]", "--d", "1", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"coeffs": []}  # q = 4: S_1(1) = 0 since d(q-1) = 3 > 1


@pytest.mark.parametrize("argv, flag", [
    (("vadic", "--P", "[[1],2]", "--n", "-2"), "--P expects a JSON list of codes"),
    (("vadic", "--p", "3", "--P", '{"x":1}', "--n", "-2"), "--P expects a JSON list of codes"),
    (("mk", "--p", "3", "--P", "[5,1]", "--n1", "0", "--k", "1"),
     "--P expects a JSON list of codes in [0, 3)"),
    (("powersum", "--p", "3", "--modulus", "abc", "--d", "1", "--n", "2"),
     "--modulus expects a JSON list of F_p coefficients"),
    (("powersum", "--p", "3", "--modulus", '{"c":1}', "--d", "1", "--n", "2"),
     "--modulus expects a JSON list of F_p coefficients"),
    (("powersum", "--field-json", "[3]", "--d", "1", "--n", "2"),
     '--field-json expects a JSON object {"p": int, "e": int, "modulus"'),
    (("powersum", "--field-json", "{", "--d", "1", "--n", "2"),
     '--field-json expects a JSON object {"p": int, "e": int, "modulus"'),
])
def test_malformed_json_flags_name_themselves(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}")


def test_well_formed_json_flags_still_parse(capsys):
    doc = {"p": 3, "e": 2, "modulus": [2, 2, 1]}
    code, out, _ = run_cli(capsys, "powersum", "--field-json", json.dumps(doc),
                           "--d", "1", "--n", "8")
    # S_1(8) over F_9 = sum_c (theta + c)^8 = sum_c c^8 = -1
    assert code == 0 and json.loads(out) == {"coeffs": [[2, 0]]}
    code, out, _ = run_cli(capsys, "vadic", "--p", "3", "--P", '{"coeffs": [[1], [1]]}',
                           "--n", "-2")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "vadic", "--p", "3", "--P", "[1,1]", "--n", "-2")
    assert code2 == 0 and out2 == out


def test_library_import_path_leaves_numpy_out(tmp_path):
    """No subcommand loads numpy, and the library never loads `dataclasses`,
    `inspect` or `hashlib`: a fresh process imports only what it runs."""
    script = """
import contextlib, io, sys
import ffzeta, ffzeta.cli
heavy = ("numpy", "dataclasses", "inspect", "hashlib", "_hashlib")
assert not [m for m in heavy if m in sys.modules], "import"
for argv in (
        ["powersum", "--p", "3", "--d", "2", "--n", "26"],
        ["zeta-eval", "--p", "3", "--x", '{"val":-1,"prec":90,"coeffs":[[1]]}',
         "--neg-y-digits", "2,0,1,1", "--prec", "40"],
        ["vadic-eval", "--p", "3", "--P", "[1,1]", "--k", "2", "--neg-y-digits", "1,0,2",
         "--delta", "1"],
        ["interp-gap", "--p", "3", "--indices", "-3,-1", "--P", "[0,1]", "--k", "2"],
        ["verify", "charsum", "--p", "3", "--seed", "7", "--trials", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ffzeta.cli.main(argv) == 0, argv
    print(argv[0], "numpy" in sys.modules)
    assert not [m for m in heavy[1:] if m in sys.modules], argv
"""
    src = os.path.dirname(os.path.dirname(ffzeta.__file__))
    env = dict(os.environ, PYTHONPATH=src, FFZETA_CACHE=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:-1] == ["powersum False", "zeta-eval False",
                                           "vadic-eval False", "interp-gap False",
                                           "verify False"]
