import hashlib
import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from blockmod.cli import _OPTIONS, MAX_CONFIG_BYTES, main
from blockmod.exactnum import PARSE_ECHO_WIDTH
from child_process import run_python


def cli_subprocess(*argv):
    return run_python("-m", "blockmod.cli", *argv)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_bracket_example():
    argv = ["bracket", "L(1,0)", "L(0,1)", "--q", "2"]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert "-3*L(1,1)" in out
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert payload["config"]["q"] == "2"
    # identical invocations are byte-identical
    assert run_cli(argv)[1] == out


def test_zero_element_round_trips():
    # the zero element prints as 0, and 0 parses back as the zero element
    code, out, err = run_cli(["bracket", "L(1,0)", "0"])
    assert (code, err) == (0, "")
    assert [c["witness"] for c in json.loads(out)["checks"]] == ["0"]
    code, out, _ = run_cli(["bracket", "L(1,0)", "L(1,0)", "--q", "2"])
    assert [c["witness"] for c in json.loads(out)["checks"]] == ["0"]
    code, _, err = run_cli(["bracket", "L(1,0)", "1"])
    assert code == 2 and "expected '*'" in err


def test_closure_example():
    argv = ["closure", "--seed", "1", "--D", "3", "--B", "5",
            "--q", "1", "--lambda", "1,1", "--alpha", "0"]
    code, out, _ = run_cli(argv)
    assert code == 0
    payload = json.loads(out)
    assert "tag=FULL, dim=10" in payload["checks"][0]["witness"]
    assert run_cli(argv)[1] == out


def test_iso_example():
    argv = ["iso", "--left", "1,1,0", "--right", "1,2,0", "--q", "1"]
    code, out, _ = run_cli(argv)
    assert code == 0
    payload = json.loads(out)
    assert "not isomorphic" in payload["checks"][0]["witness"]
    assert "m=(0,1)" in payload["checks"][0]["witness"]
    assert run_cli(argv)[1] == out


def test_json_field_order():
    code, out, _ = run_cli(["bracket", "L(1,0)", "D2", "--q", "3"])
    payload = json.loads(out)
    assert list(payload) == ["command", "config", "checks", "overall"]
    assert list(payload["config"]) == ["q", "lambda1", "lambda2", "alpha",
                                       "degree_bound", "box_radius", "rng_seed",
                                       "sweep_count"]
    assert list(payload["checks"][0]) == ["name", "anchor", "status", "witness"]


def test_act_command():
    code, out, _ = run_cli(["act", "L(1,0)", "d1", "--q", "1",
                            "--lambda", "1,1", "--alpha", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["witness"] == "d1^2 - d1*d2 - d1 + d2"


def test_usage_errors_exit_2():
    assert run_cli(["bogus"])[0] == 2
    assert run_cli([])[0] == 2
    assert run_cli(["act", "L(1,0)", "d1^-1"])[0] == 2          # bad polynomial
    assert run_cli(["bracket", "L(1", "D2"])[0] == 2            # bad element
    assert run_cli(["bracket", "L(1,0)", "D2", "--q", "0"])[0] == 2   # invalid q
    code, _, err = run_cli(["act", "L(1,0)", "d1^-1"])
    assert "exponent" in err


def test_closure_huge_box_radius_is_fast():
    # closure sweeps radius min(B, (D+2)//2), so B costs nothing beyond that
    result = cli_subprocess("closure", "--seed", "1", "--D", "2", "--B", "1000000000")
    assert result.returncode == 0
    assert "tag=FULL, dim=6" in result.stdout


def test_degree_bound_ceiling_exits_2(tmp_path):
    assert run_cli(["bracket", "L(1,0)", "D2", "--D", "16"])[0] == 0
    code, out, err = run_cli(["closure", "--seed", "1", "--D", "17"])
    assert code == 2 and out == ""
    assert "D=17 exceeds the cost ceiling 16" in err
    config = tmp_path / "run.cfg"
    config.write_text("D=17\n")
    code, _, err = run_cli(["closure", "--seed", "1", "--config", str(config)])
    assert code == 2 and "ceiling" in err


def test_axioms_radius_ceiling_exits_2():
    # radius 8 would sweep about 24 million Jacobi triples; the guard refuses it at once
    result = cli_subprocess("axioms", "--radius", "8", "--sweeps", "1")
    assert result.returncode == 2 and result.stdout == ""
    assert "axioms radius 8 exceeds the cost ceiling 3" in result.stderr


def test_replay_radius_ceiling_exits_2():
    # the single-index replays cover the whole (2R+1)^2 box: radius 1000 would
    # run for about 40 minutes; the guard refuses it at once
    result = cli_subprocess("replay", "--radius", "1000", "--pairs", "1")
    assert result.returncode == 2 and result.stdout == ""
    assert "replay radius 1000 exceeds the cost ceiling 16" in result.stderr


def test_replay_pairs_ceiling_exits_2():
    # the commutator replay checks every sampled pair: a cap of a million
    # pairs would run for minutes; the guard refuses it at once
    result = cli_subprocess("replay", "--radius", "16", "--pairs", "1000000")
    assert result.returncode == 2 and result.stdout == ""
    assert "pair cap 1000000 exceeds the cost ceiling 10000" in result.stderr


def test_sweeps_ceiling_exits_2(tmp_path):
    # each sweep adds a module-axiom scan of every generator pair; the guard
    # refuses too many at once, from the flag or from a config file
    config = tmp_path / "run.cfg"
    config.write_text("sweeps=101\n")
    for extra in (["--sweeps", "101"], ["--config", str(config)]):
        result = cli_subprocess("axioms", "--radius", "1", *extra)
        assert result.returncode == 2 and result.stdout == "", extra
        assert "sweep count 101 exceeds the cost ceiling 100" in result.stderr, extra


@pytest.mark.parametrize("argv, message", [
    # lambda^m for m = (100000, 0) would overflow the integer printer; by
    # the same arithmetic, L(10^10,0) would first build a 1.25 GB power of 2
    (["act", "L(100000,0)", "d1", "--lambda", "2,1"], "generator index (100000,0)"),
    (["bracket", "L(1,0)", "2*L(3,-1001) + D2"], "generator index (3,-1001)"),
    (["witt", "--m", "1001,0"], "Witt line index (1001,0)"),
    # this range ran for more than 20 s without the guard
    (["witt", "--lambda", "2,3", "--i-min", "0", "--i-max", "20000"],
     "Witt index 20000*(1,0) = (20000,0)"),
    (["witt", "--m", "2,3", "--i-min", "-334", "--i-max", "5"],
     "Witt index -334*(2,3) = (-668,-1002)"),
])
def test_generator_index_ceiling_exits_2(argv, message):
    result = cli_subprocess(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert f"{message} exceeds the cost ceiling 1000 on |m1| and |m2|" in result.stderr


def test_generator_index_at_the_ceiling_runs():
    code, out, _ = run_cli(["act", "L(1000,-1000)", "d1", "--lambda", "2,1"])
    assert code == 0 and "d1" in out
    code, out, _ = run_cli(["witt", "--m", "1,0", "--i-min", "-1000", "--i-max", "1000",
                            "--lambda", "2,3"])
    assert code == 0 and "i in [-1000,1000]" in out


@pytest.mark.parametrize("argv, same_as", [
    # the default Witt lines include -1,4
    (["witt", "--m", "-1,4"], ["witt", "--m=-1,4"]),
    (["bracket", "L(1,0)", "L(0,1)", "--q", "-1/3"],
     ["bracket", "L(1,0)", "L(0,1)", "--q=-1/3"]),
    (["closure", "--seed", "-2*d1", "--D", "2", "--B", "2"],
     ["closure", "--seed=-2*d1", "--D", "2", "--B", "2"]),
    (["act", "L(1,0)", "-d1", "--lambda", "-2,-1/2"],
     ["act", "--lambda=-2,-1/2", "--", "L(1,0)", "-d1"]),
    (["bracket", "-L(1,0)", "-3/2*D2", "--alpha", "-1"],
     ["bracket", "--alpha=-1", "--", "-L(1,0)", "-3/2*D2"]),
    (["act", "--", "L(0,1)", "--d1"], ["act", "L(0,1)", "d1"]),
])
def test_values_may_start_with_a_minus(argv, same_as):
    result = cli_subprocess(*argv)
    assert result.returncode == 0, result.stderr
    expected = cli_subprocess(*same_as)
    assert expected.returncode == 0, expected.stderr
    def outcome(stdout):
        return [(c["status"], c["witness"]) for c in json.loads(stdout)["checks"]]

    assert outcome(result.stdout) == outcome(expected.stdout)


def test_minus_values_keep_options_and_errors():
    result = cli_subprocess("witt", "-h")
    assert result.returncode == 0 and "--i-min" in result.stdout
    for argv in (["witt", "--bogus"], ["witt", "-x"], ["bracket", "L(1,0)", "--q"],
                 ["bracket", "L(1,0)", "L(0,1)", "--q", "--alpha", "1"]):
        result = cli_subprocess(*argv)
        assert result.returncode == 2 and result.stdout == "", argv


@pytest.mark.parametrize("argv, message", [
    (["act", "L(1000,-1000)", "d1^3", "--lambda", "12345/6789,3/1001", "--q", "5/7"],
     "generator index (1000,-1000) gives lambda1^m1*lambda2^m2 of up to 23000 bits"),
    (["act", "L(1,0) + L(0,2)", "d1", "--lambda", "1," + "7" * 2200],
     "generator index (0,2) gives lambda1^m1*lambda2^m2 of up to 14616 bits"),
    (["witt", "--m", "1,1", "--lambda", "12345/6789,3/1001", "--i-min", "-1000",
      "--i-max", "1000"],
     "Witt index -1000*(1,1) = (-1000,-1000) gives lambda1^m1*lambda2^m2 of up to 23000 bits"),
])
def test_lambda_power_ceiling_exits_2(argv, message):
    result = cli_subprocess(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert f"{message}, over the coefficient ceiling of 14000 bits" in result.stderr


def test_lambda_power_at_the_ceiling_runs():
    # 1000 * bits(12345/6789 = 4115/2263) = 13000 <= 14000
    code, out, _ = run_cli(["act", "L(1000,0)", "d1", "--lambda", "12345/6789,3/1001"])
    assert code == 0 and "d1" in out
    code, out, _ = run_cli(["witt", "--m", "1,0", "--i-min", "-1000", "--i-max", "1000",
                            "--lambda", "12345/6789,3/1001"])
    assert code == 0 and "i in [-1000,1000]" in out


def test_replay_holds_its_lambda_powers_to_the_ceiling():
    # at q = 10^7 the replay builds images at the exceptional indices
    # (0,-q) and (0,-2q) and out to (0,-4q): with lambda2 = 3 the first
    # would need 10^7 * 2 bits, so the input is refused before any image
    # is built; a lambda of 1 adds no bits, so the same q at (1,1) runs
    argv = ["replay", "--q", "10000000", "--radius", "1", "--pairs", "1"]
    started = time.perf_counter()
    code, out, err = run_cli(argv + ["--lambda", "1,3"])
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert ("replay index (0,-10000000) gives lambda1^m1*lambda2^m2 of up to 20000000 bits, "
            "over the coefficient ceiling of 14000 bits") in err
    code, out, _ = run_cli(argv + ["--lambda", "1,1"])
    report = json.loads(out)
    assert code == 0 and report["overall"] == "pass" and len(report["checks"]) == 5
    # the control, alone, builds images at sums of two box indices, out to
    # (2R, 2R): at radius 3, lambda1 = 2^k has k + 1 bits, and 6 * 2334 is
    # over the ceiling where 6 * 2333 is not
    control = ["replay", "--eq", "control", "--radius", "3", "--alpha", "1/2"]
    code, _, err = run_cli(control + ["--lambda", f"{2 ** 2333},1"])
    assert code == 2 and "replay index (6,6) gives lambda1^m1*lambda2^m2 of up to 14004 bits" in err
    code, out, _ = run_cli(control + ["--lambda", f"{2 ** 2332},1"])
    assert code == 0 and json.loads(out)["overall"] == "pass"
    # act and witt read the same bound: L(1,1000) at lambda = (1, 2^13) has
    # 1000 * 14 bits, and the lambda1 of 1 no longer adds one for m1
    code, out, _ = run_cli(["act", "L(1,1000)", "d1", "--lambda", "1,8192"])
    assert code == 0 and json.loads(out)["overall"] == "pass"


def test_witt_rejects_m1_zero_as_usage_error():
    code, out, err = run_cli(["witt", "--m", "0,1"])
    assert code == 2 and out == ""
    assert "m1 != 0" in err


@pytest.mark.parametrize("argv, message", [
    (["witt", "--m", "1"], "expected two comma-separated integers"),
    (["bracket", "L(1,0)", "D2", "--lambda", "1"], "expected two comma-separated rationals"),
    (["bracket", "L(1,0)", "D2", "--q", "x"], "expected an integer or a/b rational literal"),
])
def test_argument_type_errors_keep_their_message(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert message in err
    assert "invalid" not in err


@pytest.mark.parametrize("argv, message", [
    (["axioms", "--radius", "-1"], "index box radius must be at least 0, got -1"),
    (["replay", "--radius", "-1"], "replay radius must be at least 1, got -1"),
    (["replay", "--pairs", "0"], "pair cap must be at least 1, got 0"),
    (["witt", "--i-min", "5", "--i-max", "-5"], "empty Witt index range [5,-5]"),
    (["replay", "--eq", "control", "--alpha", "1/2", "--radius", "0"],
     "control radius must be at least 1, got 0"),
    (["replay", "--alpha", "1/2", "--radius", "0"], "replay radius must be at least 1, got 0"),
    # the radius guard comes before the alpha = 1 error check
    (["replay", "--eq", "control", "--alpha", "1", "--radius", "0"],
     "control radius must be at least 1, got 0"),
])
def test_empty_grids_are_usage_errors(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    # the radius-0 grid (L(0,0), D2) cannot tell the two images apart
    (["axioms", "--radius", "0", "--sweeps", "1", "--use-variant-action", "--alpha", "1/2"],
     "control radius must be at least 1, got 0"),
    # at alpha = 1 the variant is a d2-translate of the adopted action
    (["axioms", "--radius", "1", "--sweeps", "1", "--use-variant-action", "--alpha", "1"],
     "control parameter set needs alpha != 1"),
], ids=["radius-0", "alpha-1"])
def test_variant_axioms_reject_degenerate_inputs(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert message in err
    # the adopted action has no such restriction
    code, out, err = run_cli([arg for arg in argv if arg != "--use-variant-action"])
    assert (code, err) == (0, "") and json.loads(out)["overall"] == "pass"


def test_expression_degree_ceiling_is_fast():
    for text in ("d1^1000000000", "(d1+d2)^400"):
        result = cli_subprocess("act", "L(1,0)", text)
        assert result.returncode == 2 and result.stdout == ""
        assert "exceeds the expression degree ceiling 32" in result.stderr


def test_nested_constant_power_is_fast():
    # five levels would build a 33.5-million-bit integer before the guard
    result = cli_subprocess("act", "L(1,0)", "(((((2^32)^32)^32)^32)^32)")
    assert result.returncode == 2 and result.stdout == ""
    assert "exceeds the coefficient ceiling of 14000 bits" in result.stderr


WIDE = "9" * 3001       # 9,966 bits, over the literal ceiling of 8,000 bits


@pytest.mark.parametrize("argv", [
    # without the ceiling these exit 2 with Python's 4,300-digit error
    ["act", "L(1,0)", "d1", "--q", WIDE, "--lambda", WIDE + ",1"],
    ["act", "L(1,0)", f"{WIDE}*d1^3", "--lambda", WIDE + ",1"],
    ["act", "L(1,0)", f"1/{WIDE}*d1"],
    ["bracket", f"{WIDE}*L(1,0)", "D2"],
    ["bracket", "L(1,0)", "D2", "--alpha", f"1/{WIDE}"],
])
def test_literal_ceiling_exits_2(argv):
    result = cli_subprocess(*argv)
    assert result.returncode == 2 and result.stdout == ""
    assert "a 3001-digit literal exceeds the literal ceiling of 8000 bits" in result.stderr


LONG = "7" * 2400       # 7,973 bits, under the literal ceiling


@pytest.mark.parametrize("argv, bits", [
    # the product of two literals under the ceiling outgrows Python's
    # 4,300-digit printer; without the print ceiling these exit 2 with
    # Python's message
    (["act", "L(1,0)", "d1", "--q", LONG, "--lambda", LONG + ",1"], 15945),
    (["bracket", f"{LONG}*L(1,0)", f"{LONG}*L(0,1)"], 15946),
    (["closure", "--seed", "d1", "--D", "2", "--q", LONG, "--alpha", LONG], 15945),
    (["replay", "--radius", "1", "--pairs", "5", "--q", LONG, "--alpha", LONG], 31890),
])
def test_print_ceiling_exits_2(argv, bits):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert f"printing a {bits}-bit coefficient exceeds the coefficient ceiling of 14000 bits" in err


def test_literal_at_the_ceiling_parses():
    # 2^8000 - 1 has 8000 bits and 2409 digits; 2^8000 has 8001 bits
    top = str(2 ** 8000 - 1)
    code, out, _ = run_cli(["bracket", f"{top}*L(1,0)", "L(0,1)"])
    assert code == 0 and top in out
    code, _, err = run_cli(["bracket", f"{2 ** 8000}*L(1,0)", "L(0,1)"])
    assert code == 2 and "a 2409-digit literal exceeds the literal ceiling of 8000 bits" in err
    # past Python's 4,300-digit conversion limit the digit count alone decides;
    # leading zeros are not significant digits
    code, _, err = run_cli(["bracket", f"{'9' * 5000}*L(1,0)", "L(0,1)"])
    assert code == 2 and "a 5000-digit literal exceeds the literal ceiling of 8000 bits" in err
    code, _, _ = run_cli(["bracket", f"{'0' * 5000}3*L(1,0)", "L(0,1)"])
    assert code == 0


NINES = "9" * 2000      # 6,644 bits: under the literal ceiling, over every cost ceiling


@pytest.mark.parametrize("argv, message", [
    # each of these once echoed all 2,000 digits to stderr
    (["act", f"L({NINES},0)", "d1"], "generator index (999"),
    (["act", "L(1,0)", f"d1^{NINES}"], "exponent 999"),
    (["witt", "--m", f"1,{NINES}"], "Witt line index (1,999"),
    (["witt", "--m", f"0,{NINES}"], "Witt line index needs m1 != 0, got 0,999"),
    (["witt", "--i-max", NINES], "Witt index 999"),
    (["witt", "--D", NINES], "degree bound D=999"),
])
def test_ceiling_messages_clip_long_numbers(argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert message in err
    assert "9" * (PARSE_ECHO_WIDTH + 1) not in err
    assert len(err) < 600


def test_witt_line_index_is_read_through_the_literal_ceiling():
    # int() would refuse these digits with Python's 4,300-digit message
    code, out, err = run_cli(["witt", "--m", "1," + "9" * 5000])
    assert code == 2 and out == ""
    assert "a 5000-digit literal exceeds the literal ceiling of 8000 bits" in err
    assert "4300" not in err and "9" * (PARSE_ECHO_WIDTH + 1) not in err
    code, out, err = run_cli(["witt", "--m", "1.5,2"])
    assert code == 2 and out == "" and "unexpected character '.'" in err
    # signs and surrounding blanks read as before
    for text in ("-1,4", " -1, +4 "):
        code, out, _ = run_cli(["witt", "--m", text, "--i-min", "-1", "--i-max", "1"])
        assert code == 0 and "m in {(-1,4)}" in out


FIVE_THOUSAND = "9" * 5000      # past Python's 4,300-digit conversion limit


@pytest.mark.parametrize("argv, option", [
    # argparse's int type echoed every digit: witt --i-max wrote 5,326 bytes
    (["closure", "--seed", "d1", "--D", FIVE_THOUSAND], "--D"),
    (["closure", "--seed", "d1", "--B", FIVE_THOUSAND], "--B"),
    (["report", "--level", "quick", "--rng-seed", FIVE_THOUSAND], "--rng-seed"),
    (["axioms", "--sweeps", FIVE_THOUSAND], "--sweeps"),
    (["axioms", "--radius", FIVE_THOUSAND], "--radius"),
    (["replay", "--radius", FIVE_THOUSAND], "--radius"),
    (["replay", "--pairs", FIVE_THOUSAND], "--pairs"),
    (["witt", "--i-min", "-" + FIVE_THOUSAND], "--i-min"),
    (["witt", "--i-max", FIVE_THOUSAND], "--i-max"),
])
def test_integer_options_are_read_through_the_literal_ceiling(argv, option):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert (f"argument {option}: a 5000-digit literal exceeds the literal ceiling "
            f"of 8000 bits") in err
    assert "9" * (PARSE_ECHO_WIDTH + 1) not in err and len(err) < 600


@pytest.mark.parametrize("key", ["D", "B", "rng_seed", "sweeps"])
def test_integer_config_values_are_read_through_the_literal_ceiling(tmp_path, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={'9' * 50_000}\n")
    code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])
    assert code == 2 and out == ""
    assert "a 50000-digit literal exceeds the literal ceiling of 8000 bits" in err
    assert "4300" not in err and "9" * (PARSE_ECHO_WIDTH + 1) not in err and len(err) < 600


def test_integer_options_keep_signs_and_reject_non_integers(tmp_path):
    code, out, _ = run_cli(["witt", "--i-min", "-4", "--i-max", "+2", "--m", "1,0"])
    assert code == 0 and "i in [-4,2]" in out
    config = tmp_path / "run.cfg"
    config.write_text("D= 2 \nB=-1\n")
    code, _, err = run_cli(["closure", "--seed", "d1", "--config", str(config)])
    assert code == 2 and "box radius must be at least 1" in err
    code, out, _ = run_cli(["closure", "--seed", "d1", "--config", str(config), "--B", "3"])
    assert code == 0 and json.loads(out)["config"]["degree_bound"] == 2
    for text in ("1.5", "0x10", "2e3", "5_000", ""):
        code, out, err = run_cli(["axioms", "--radius", text])
        assert code == 2 and out == "" and "argument --radius:" in err, text


def test_empty_sample_is_an_error_not_a_pass():
    # the one sampled pair holds a zero index and q=5/7 adds no exceptional
    # pairs, so the coefficient replay has nothing to check
    code, out, _ = run_cli(["replay", "--eq", "coefficients", "--radius", "1", "--pairs", "1",
                            "--q", "5/7", "--rng-seed", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    assert [(c["status"], c["witness"]) for c in payload["checks"]] == [
        ("error", "no case was checked")]


def test_failing_check_exits_1():
    code, out, _ = run_cli(["axioms", "--use-variant-action", "--radius", "1",
                            "--q", "1", "--alpha", "1/3", "--sweeps", "2"])
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    statuses = {check["name"]: check["status"] for check in payload["checks"]}
    assert statuses["module axioms (variant action)"] == "fail"
    assert statuses["jacobi q=1"] == "pass"


AXIOMS_SHA256 = "6c8a8fe71d3bd78265862de5a21b6872b196a80d0c3979ef4928767d16503798"
AXIOMS_VARIANT_SHA256 = "ce240c781372ef62e294517bc42daff44f5c575fd457a4011762f9d2302ff093"


@pytest.mark.parametrize("argv, exit_code, digest", [
    (["axioms"], 0, AXIOMS_SHA256),
    (["axioms", "--use-variant-action"], 1, AXIOMS_VARIANT_SHA256),
], ids=["default", "variant"])     # ids that stay put when a pin changes
def test_axioms_report_bytes(argv, exit_code, digest):
    # the default sweeps; the variant's failure witness names the first
    # failing generator pair, so any byte change to it shows here
    code, out, err = run_cli(argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REPLAY_SHA256 = "e8a2dda0254214151184502ccc76d27dae040e1299aa0c92372f082721c6f91d"
REPLAY_SEPARATED_SHA256 = "26098a1497ce0c03f5e3dc2657ae228ff1a0b1d865f5185e7ff5aece354ab3cc"


@pytest.mark.parametrize("argv, digest", [
    (["replay", "--q", "5/7", "--alpha", "1/3", "--lambda", "2,3", "--radius", "6",
      "--pairs", "500"], REPLAY_SHA256),
    # integral q: its exceptional indices (0,2) and (0,4) join the 17^2 box indices (291)
    (["replay", "--eq", "separated-form", "--q", "-2", "--alpha", "3/2", "--lambda", "1/2,3",
      "--radius", "8"], REPLAY_SEPARATED_SHA256),
], ids=["all", "separated-form"])
def test_replay_report_bytes(argv, digest):
    # replay bytes at scales the full report does not reach
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


CONTROL_ALPHA_1_SHA256 = "dce9505b0e35ae4ac734138ac77191955d426cd0d4241217686f7ae085b674f5"
WITT_SHA256 = "0ea29b655606634245351b5aaa4b7da1f80a4ff6c370006c49585b183b363d6a"
WITT_LINES_SHA256 = "58d975368580f5789c54f327791961e0262db73b16b1d2b7a98cb1698b817ced"


@pytest.mark.parametrize("argv, exit_code, digest", [
    # the control is undefined at alpha=1: one error check, and exit 1
    (["replay", "--eq", "control", "--alpha", "1"], 1, CONTROL_ALPHA_1_SHA256),
    (["witt"], 0, WITT_SHA256),
    # lines with m2/m1 not an integer, negative i, and q, alpha, lambda off the defaults
    (["witt", "--m", "3,-2", "--m", "-5,7", "--i-min", "-9", "--i-max", "9", "--q", "2/3",
      "--alpha", "5/4", "--lambda", "2,1/3"], 0, WITT_LINES_SHA256),
], ids=["control-alpha-1", "witt", "witt-lines"])
def test_control_and_witt_report_bytes(argv, exit_code, digest):
    code, out, err = run_cli(argv)
    assert (code, err) == (exit_code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reports_echo_their_own_scales():
    # each command's scale options follow the shared config, under keys of their own
    def config_of(argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        return json.loads(out)["config"]

    shared = ["q", "lambda1", "lambda2", "alpha", "degree_bound", "box_radius", "rng_seed",
              "sweep_count"]
    config = config_of(["replay", "--eq", "commutator", "--radius", "2", "--pairs", "7"])
    assert list(config) == shared + ["replay_radius", "pair_cap"]
    assert (config["replay_radius"], config["pair_cap"], config["box_radius"]) == (2, 7, 5)
    config = config_of(["axioms", "--radius", "1", "--sweeps", "1"])
    assert list(config) == shared + ["axiom_radius"]
    assert config["axiom_radius"] == 1
    assert list(config_of(["witt"])) == shared


def test_axioms_command_passes():
    code, out, _ = run_cli(["axioms", "--radius", "1", "--q", "5/7",
                            "--alpha", "1/2", "--sweeps", "3"])
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_witt_command():
    code, out, _ = run_cli(["witt", "--q", "3/2", "--lambda", "2,3",
                            "--alpha", "1/4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"][0]["anchor"] == "witt-line-reduction"


def test_replay_command():
    code, out, _ = run_cli(["replay", "--eq", "commutator", "--radius", "2",
                            "--q", "5/7", "--alpha", "1/3"])
    assert code == 0
    payload = json.loads(out)
    assert [c["anchor"] for c in payload["checks"]] == ["commutator-replay"]

    code, out, _ = run_cli(["replay", "--eq", "control", "--q", "1",
                            "--alpha", "1/3", "--radius", "2"])
    assert code == 0
    payload = json.loads(out)
    check = payload["checks"][0]
    assert check["status"] == "pass"
    # the control names both placements of the parameters
    assert "(m2+q)*d1 - m1*(d2+q*alpha)" in check["witness"]
    assert "(q*alpha+m2)*d1 - m1*(d2+alpha)" in check["witness"]

    code, out, _ = run_cli(["replay", "--eq", "all", "--radius", "2",
                            "--pairs", "30", "--q", "2", "--alpha", "3/4"])
    assert code == 0
    anchors = {c["anchor"] for c in json.loads(out)["checks"]}
    assert anchors == {"commutator-replay", "pair-difference-replay",
                       "separated-form-replay", "coefficient-replay",
                       "action-variant-control"}


def test_config_file_and_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults\nq=5/7\nlambda1=2\nlambda2=3\nalpha=1/2\nD=2\n")
    code, out, _ = run_cli(["bracket", "L(1,0)", "L(0,1)", "--config", str(config)])
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["q"] == "5/7"
    assert payload["config"]["lambda1"] == "2"
    assert payload["config"]["degree_bound"] == 2
    # flags override the file
    code, out, _ = run_cli(["bracket", "L(1,0)", "L(0,1)", "--config", str(config),
                            "--q", "3"])
    assert json.loads(out)["config"]["q"] == "3"
    # unknown keys are usage errors
    config.write_text("volume=11\n")
    assert run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])[0] == 2


def test_empty_config_path_fails_like_a_missing_file(tmp_path):
    # an empty path names no file; it must not read as "no --config"
    for path in ("", str(tmp_path / "missing.cfg")):
        code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", path])
        assert (code, out) == (2, ""), path
        assert err.startswith("error: ") and "No such file or directory" in err, err


def test_config_that_is_not_utf8_names_the_file(tmp_path):
    # a decode error names the file, as every other config error does
    config = tmp_path / "run.cfg"
    for data in (b"q=5/7\nD=\xd0\xff\n", b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256))):
        config.write_bytes(data)
        code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])
        assert (code, out, err) == (2, "", f"error: {config}: not UTF-8 text\n")


def test_config_file_size_ceiling(tmp_path):
    # a file of exactly MAX_CONFIG_BYTES parses; one byte more is a usage error
    config = tmp_path / "run.cfg"
    tail = b"q=5/7\n"
    comment = b"#" * 1023 + b"\n"
    body = comment * ((MAX_CONFIG_BYTES - len(tail)) // len(comment))
    body += b"#" * (MAX_CONFIG_BYTES - len(tail) - len(body) - 1) + b"\n" + tail
    assert len(body) == MAX_CONFIG_BYTES
    config.write_bytes(body)
    code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])
    assert code == 0 and json.loads(out)["config"]["q"] == "5/7", err
    config.write_bytes(b"#" + body)
    code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])
    assert (code, out, err) == (2, "", f"error: {config}: file exceeds the config size "
                                       f"ceiling of {MAX_CONFIG_BYTES} bytes\n")


def test_endless_config_file_fails_at_once():
    # /dev/zero is valid UTF-8 with no newline; only the byte ceiling stops it
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero")
    code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", "/dev/zero"])
    assert (code, out) == (2, "")
    assert err == f"error: /dev/zero: file exceeds the config size ceiling of {MAX_CONFIG_BYTES} bytes\n"


def test_config_lines_split_as_in_text_mode(tmp_path):
    # \r and \r\n end lines; \x0c and \x85, which str.splitlines also splits
    # at, do not, so the comment below is one line and the numbering holds
    config = tmp_path / "run.cfg"
    text = "q=5/7\rD=2\r\n# a\x85note\x0cmore\n"
    config.write_bytes(text.encode())
    code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])
    assert code == 0, err
    assert (json.loads(out)["config"]["q"], json.loads(out)["config"]["degree_bound"]) == ("5/7", 2)
    config.write_bytes((text + "volume=1\n").encode())
    code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config)])
    assert (code, out, err) == (2, "", f"error: {config}:4: unknown key 'volume'\n")


def test_import_loads_no_introspection_modules():
    # the records are slot classes and named tuples; dataclasses would pull
    # inspect, ast and dis into every process's start-up
    result = run_python("-c", "import sys, blockmod.cli; print(sorted(set(sys.modules) & "
                              "{'dataclasses', 'inspect', 'ast', 'dis'}))")
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


@pytest.mark.parametrize("text, message", [
    ("q=5/7\nD=abc\n", ":2: D: expected an integer"),
    ("q=1/0\n", ":1: q: zero denominator"),
    ("# defaults\nrng_seed=" + "9" * 50_000 + "\n",
     ":2: rng_seed: a 50000-digit literal exceeds the literal ceiling"),
    ("q=1\nq=2\n", ":2: duplicate key 'q'"),
])
def test_config_errors_name_path_line_and_key(tmp_path, text, message):
    config = tmp_path / "run.cfg"
    config.write_text(text)
    # the file is read whole before the flags, so a flag does not hide a bad value
    for flags in ([], ["--q", "2", "--D", "3", "--rng-seed", "4"]):
        code, out, err = run_cli(["bracket", "L(1,0)", "D2", "--config", str(config), *flags])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {config}{message}"), err


# each config key with a value off its default, and the flags that set it
FLAG_OF_KEY = {
    "q": ("5/7", ["--q", "5/7"]),
    "lambda1": ("2", ["--lambda", "2,1"]),
    "lambda2": ("-3", ["--lambda", "1,-3"]),
    "alpha": ("1/2", ["--alpha", "1/2"]),
    "D": ("4", ["--D", "4"]),
    "B": ("6", ["--B", "6"]),
    "rng_seed": ("9", ["--rng-seed", "9"]),
    "sweeps": ("7", ["--sweeps", "7"]),
}


def test_every_config_key_has_a_parity_case():
    assert list(FLAG_OF_KEY) == list(_OPTIONS)


@pytest.mark.parametrize("key", FLAG_OF_KEY)
def test_flag_and_config_key_give_the_same_config(tmp_path, key):
    value, flags = FLAG_OF_KEY[key]
    config = tmp_path / "run.cfg"
    config.write_text(f"{key}={value}\n")

    def config_of(argv):
        code, out, err = run_cli(["bracket", "L(1,0)", "D2", *argv])
        assert code == 0, err
        return json.loads(out)["config"]

    from_file = config_of(["--config", str(config)])
    assert from_file == config_of(flags)
    assert from_file != config_of([])


def test_global_flags_before_subcommand():
    code, out, _ = run_cli(["--q", "2", "bracket", "L(1,0)", "L(0,1)"])
    assert code == 0
    assert "-3*L(1,1)" in out


QUICK_REPORT_SHA256 = "bce251f7cf31456561b678acd0c4191a2bf5249534bd31ad682c452a3d33dc7c"
FULL_REPORT_SHA256 = "0a0daeaa225255210a74abc9c25e62df4e58f059d21241a624669757607ceff9"


def test_quick_report():
    code, out, _ = run_cli(["report", "--level", "quick"])
    assert code == 0
    # any byte change to the report must show here, not only in a hand diff
    assert hashlib.sha256(out.encode()).hexdigest() == QUICK_REPORT_SHA256
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    anchors = {c["anchor"] for c in payload["checks"]}
    assert {"jacobi-identity", "module-action-compatibility",
            "action-variant-control", "submodule-dichotomy",
            "invariance-certificate", "witt-line-reduction",
            "commutator-replay", "isomorphism-rigidity",
            "difference-equation"} <= anchors
    assert run_cli(["report", "--level", "quick"])[1] == out


def test_full_report_bytes():
    # the full report at the pinned acceptance scales; any byte change shows here
    code, out, err = run_cli(["report", "--level", "full"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FULL_REPORT_SHA256


CLOSURE_REPORT = """{
  "command": "closure",
  "config": {
    "q": "1",
    "lambda1": "1",
    "lambda2": "1",
    "alpha": "0",
    "degree_bound": 5,
    "box_radius": 7,
    "rng_seed": 1,
    "sweep_count": 10
  },
  "checks": [
    {
      "name": "closure of [d1+d2^2]",
      "anchor": "submodule-dichotomy",
      "status": "pass",
      "witness": "tag=OMEGA_PRIME, dim=20; spans the evaluation kernel at (0,0) \
inside the degree-5 level (dim 20); passes=7, workspace additions per pass=[5, 5, 6, 7, 2, 1, 0]; \
fixpoint certificate: all single-step images of the final basis over the box [-3,3]^2 reduce \
to zero in the degree-6 workspace, and by the degree-6 interpolation bound they span the same \
space as the images over [-7,7]^2"
    }
  ],
  "overall": "pass"
}
"""


def test_closure_report_bytes():
    code, out, err = run_cli(["closure", "--seed", "d1+d2^2", "--D", "5", "--B", "7"])
    assert (code, out, err) == (0, CLOSURE_REPORT, "")


def test_console_entry_point():
    result = cli_subprocess("bracket", "L(1,0)", "L(0,1)", "--q", "2")
    assert result.returncode == 0
    assert "-3*L(1,1)" in result.stdout
