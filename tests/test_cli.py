"""Command-line behaviour: exit codes, formats, determinism, and the
promise that every shell example and the Python Quick tour shown in the
README actually produce the output printed next to them."""

import argparse
import doctest
import gc
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from bosonorder import cli
from bosonorder.cli import COMMANDS
from bosonorder.verify import SUITES

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "cli.json")
                    .read_text(encoding="utf-8"))
GOLDEN_IDS = [f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)]
#: The cases that pin stdout itself; the larger ones pin only its sha256.
GOLDEN_STDOUT = [pytest.param(c, id=i) for c, i in zip(GOLDEN, GOLDEN_IDS)
                 if "stdout" in c]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_stirling_triangle_csv(capsys):
    code, out = run_cli(capsys, "hs-triangle", "--A", "0", "--B", "1",
                        "--r", "0", "--N", "4", "--format", "csv")
    assert code == 0
    assert out == "1\n0,1\n0,1,1\n0,1,3,1\n0,1,7,6,1\n"


def test_triangle_json_shape(capsys):
    code, out = run_cli(capsys, "hs-triangle", "--A", "-1", "--B", "1",
                        "--r", "1", "--N", "2")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 2
    assert data["rows"][2] == [["2"], ["4"], ["1"]]


def test_rational_parameters(capsys):
    code, out = run_cli(capsys, "hs-triangle", "--A", "1/2", "--B", "-1/3",
                        "--r", "2", "--N", "1", "--format", "csv")
    assert code == 0
    assert out == "1\n2,1\n"


def test_power_csv(capsys):
    code, out = run_cli(capsys, "power", "--L", "1", "--R", "0", "--n", "4",
                        "--s", "normal", "--format", "csv")
    assert code == 0
    assert out == "1,1,1\n2,2,7\n3,3,6\n4,4,1\n"


def test_order_symbolic_csv(capsys):
    code, out = run_cli(capsys, "order", "--L", "1", "--R", "0", "--N", "1",
                        "--format", "csv")
    assert code == 0
    assert out == "0,0,0,1\n1,0,0,-1/2 - 1/2*s\n1,1,1,1\n"


def test_weyl_aaa_json(capsys):
    code, out = run_cli(capsys, "power", "--L", "1", "--R", "1", "--n", "3",
                        "--s", "weyl")
    assert code == 0
    data = json.loads(out)
    assert {"n": 4, "m": 1, "coeff": ["-9/2"]} in data
    assert {"n": 6, "m": 3, "coeff": ["1"]} in data


def test_two_point_egf_endpoint_matches_hs(capsys):
    code1, out1 = run_cli(capsys, "two-point-egf", "--A", "2", "--B", "1",
                          "--r", "-1", "--r-prime", "3", "--s", "-1",
                          "--N", "5")
    code2, out2 = run_cli(capsys, "hs-egf", "--A", "-2", "--B", "1",
                          "--r", "3", "--N", "5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_catalog_csv(capsys):
    code, out = run_cli(capsys, "catalog", "touchard", "--N", "3",
                        "--format", "csv")
    assert code == 0
    assert out == "1\n0,1\n0,1,1\n0,1,3,1\n"


def test_default_truncation_order(capsys, monkeypatch):
    code, out = run_cli(capsys, "catalog", "abel", "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 9
    # the environment does not set the truncation order
    monkeypatch.setenv("BOSONORDER_TRUNC_ORDER", "2")
    assert run_cli(capsys, "catalog", "abel", "--format", "csv") == (0, out)


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "tri.csv"
    code, out = run_cli(capsys, "hs-triangle", "--A", "0", "--B", "1",
                        "--r", "0", "--N", "2", "--format", "csv",
                        "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1\n0,1\n0,1,1\n"


def test_usage_errors_exit_2(capsys, tmp_path):
    # a bad value is named by the input it should be, on stderr only
    for argv, line in (
            (["hs-triangle", "--A", "bogus", "--B", "1", "--r", "0"],
             "bosonorder hs-triangle: error: argument --A: "
             "invalid rational value: 'bogus'"),
            (["order", "--L", "1", "--R", "0", "--s", "foo"],
             "bosonorder order: error: argument --s: "
             "invalid ordering value: 'foo'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == line
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    # a zero denominator is malformed input, not a failing verification
    for argv, kind, bad in (
            (["order", "--L", "1", "--R", "0", "--s", "1/0"],
             "ordering", "1/0"),
            (["hs-triangle", "--A", "1/0", "--B", "1", "--r", "0"],
             "rational", "1/0"),
            (["hs-egf", "--A", "0", "--B", "-2/0", "--r", "0"],
             "rational", "-2/0"),
            (["hs-egf", "--A", "0", "--B", "1", "--r", "3/0"],
             "rational", "3/0"),
            (["two-point-egf", "--A", "0", "--B", "1", "--r", "0",
              "--r-prime", "3/0"], "rational", "3/0")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith(f"invalid {kind} value: {bad!r}")
    # exponent notation and digit separators are refused before anything
    # runs, on every Python; a decimal is not
    for argv, kind, bad in (
            (["order", "--L", "1", "--R", "0", "--s", "1e5000", "--N", "1"],
             "ordering", "1e5000"),
            (["hs-triangle", "--A", "1E3", "--B", "1", "--r", "0"],
             "rational", "1E3"),
            (["hs-triangle", "--A", "1_0", "--B", "1", "--r", "0",
              "--N", "1"], "rational", "1_0")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.endswith(f"invalid {kind} value: {bad!r}")
    assert cli.main(["hs-triangle", "--A", "1.5", "--B", "1", "--r", "0",
                     "--N", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1\n0,1\n"
    # power computes one exact power and takes no --N; the Weyl-ordered
    # power of ad a ad is power --L 1 --R 1 --s weyl, not a subcommand
    for argv in (["power", "--L", "1", "--R", "0", "--n", "2", "--N", "-1"],
                 ["weyl-aaa", "--n", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    # an --out file that cannot be written is a usage error, not a failure
    capsys.readouterr()
    missing = str(tmp_path / "no-such-dir" / "x.json")
    for argv in (["order", "--L", "1", "--R", "1", "--N", "3"],
                 ["verify", "riordan-group"]):
        assert cli.main(argv + ["--out", missing]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: cannot write {missing}: "
                       "No such file or directory\n")


@pytest.mark.parametrize("argv,flag,value", [
    (["hs-triangle", "--B", "1", "--r", "0", "--N", "2"], "--A", "-1.5"),
    (["order", "--L", "1", "--R", "1", "--N", "1"], "--s", "-.5"),
    (["order", "--L", "1", "--R", "1", "--N", "1"], "--s", "-1."),
    (["two-point-egf", "--A", "2", "--B", "1", "--r", "-2", "--N", "2"],
     "--r-prime", "-5/2"),
])
def test_negative_decimals_are_values_not_flags(capsys, argv, flag, value):
    # a negative number as its own word reads like "--A=-1.5"
    code, out = run_cli(capsys, *argv, flag, value)
    assert code == 0
    assert (0, out) == run_cli(capsys, *argv, f"{flag}={value}")


def test_precondition_errors_exit_3(capsys):
    code = cli.main(["order", "--L", "0", "--R", "0"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert cli.main(["power", "--L", "1", "--R", "0", "--n", "-2"]) == 3
    capsys.readouterr()
    # a negative truncation order is refused with one message everywhere
    for argv in (["hs-triangle", "--A", "0", "--B", "1", "--r", "0"],
                 ["hs-egf", "--A", "0", "--B", "1", "--r", "0"],
                 ["two-point-egf", "--A", "0", "--B", "1", "--r", "0",
                  "--r-prime", "1"],
                 ["order", "--L", "1", "--R", "0"],
                 ["catalog", "abel"]):
        assert cli.main(argv + ["--N", "-1"]) == 3
        err = capsys.readouterr().err
        assert err == "error: truncation order must be >= 0\n"


def test_verify_reports_and_exit_codes(capsys, monkeypatch):
    code, out = run_cli(capsys, "verify", "katriel")
    assert code == 0
    report = json.loads(out)
    assert report["suite"] == "katriel"
    assert all(c["status"] == "pass" for c in report["cases"])
    assert all(c["residual"] == "0" for c in report["cases"])

    # a failing case must flip the exit code to 1
    def fake(name, seed=0):
        return {"suite": name,
                "cases": [{"params": {}, "status": "fail", "residual": "x"}]}
    monkeypatch.setattr(cli, "run_suite", fake)
    code, out = run_cli(capsys, "verify", "katriel")
    assert code == 1


# text with quotes, backslashes, control characters and non-ASCII, with an
# astral character that json escapes as a surrogate pair
json_str_st = st.text(st.one_of(st.characters(),
                                st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028é😀')),
                      max_size=6)
json_st = st.recursive(
    st.one_of(st.integers(), json_str_st),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(json_str_st, kids, max_size=4)),
    max_leaves=40)


@given(json_st)
@example([])
@example({})
@example({"a": [[{"b": [[], {}, -3, {"c": ["d\"\\\u0001é"]}]}]], "": 0})
@example([[[[[[["deep"]]]]]], 10 ** 40, -0])
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, True, None, [1, {"k": None}],
                                 {"k": [False]}, {1: "one"}, ("a",)],
                         ids=["float", "bool", "None", "nested-None",
                              "nested-bool", "int-key", "tuple"])
def test_json_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._json_text(obj)


def test_cli_json_does_not_call_json_dumps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the CLI called json.dumps")

    monkeypatch.setattr(json, "dumps", refuse)
    code, out = run_cli(capsys, "order", "--L", "1", "--R", "2",
                        "--s", "1/3", "--N", "3")
    assert code == 0 and json.loads(out)["trunc_order"] == 3
    code, out = run_cli(capsys, "verify", "katriel")
    assert code == 0 and json.loads(out)["suite"] == "katriel"


@pytest.mark.parametrize("case", GOLDEN, ids=GOLDEN_IDS)
def test_golden_output(capsys, case):
    code, out = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN_STDOUT)
def test_golden_output_to_file(capsys, tmp_path, case):
    """--out FILE writes exactly the golden stdout and prints nothing."""
    target = tmp_path / "out"
    code, out = run_cli(capsys, *case["argv"], "--out", str(target))
    assert code == case["exit"]
    assert out == ""
    assert target.read_bytes() == case["stdout"].encode("utf-8")


def test_verify_suite_alone_prints_its_entry_in_all(capsys):
    """README's promise: a suite's report is the same whether it runs
    alone or inside ``verify all``.  The suites run alone in reverse order,
    so that none runs after the suites that precede it in ``verify all``."""
    code, out = run_cli(capsys, "verify", "all", "--seed", "1")
    assert code == 0
    entries = {r["suite"]: r for r in json.loads(out)}
    assert list(entries) == list(SUITES)
    for name in reversed(SUITES):
        code, out = run_cli(capsys, "verify", name, "--seed", "1")
        assert code == 0
        assert out == json.dumps(entries[name], indent=2) + "\n", name


def test_byte_level_determinism(capsys):
    args = ("order", "--L", "2", "--R", "1", "--N", "3")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_module_entry_point():
    # the subprocess does not inherit pytest's pythonpath setting
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(README.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "bosonorder", "hs-triangle", "--A", "0",
         "--B", "1", "--r", "0", "--N", "3", "--format", "csv"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1\n0,1\n0,1,1\n0,1,3,1\n"


def _readme_examples():
    """Yield (command argv, expected output) for each console block."""
    lines = README.read_text().split("\n")
    blocks = []
    inside = False
    buf = []
    for line in lines:
        if line.startswith("```"):
            if inside and buf:
                blocks.append(buf)
            inside = not inside
            buf = []
        elif inside:
            buf.append(line)
    for block in blocks:
        if block and block[0].startswith("$ bosonorder"):
            argv = shlex.split(block[0][2:])[1:]
            yield argv, "\n".join(block[1:]) + "\n"


def test_readme_examples_are_current(capsys):
    examples = list(_readme_examples())
    assert examples, "README must show at least one runnable example"
    for argv, expected in examples:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0, f"bosonorder {' '.join(argv)} exited {code}"
        assert captured.out == expected, \
            f"README output for 'bosonorder {' '.join(argv)}' has drifted"


def test_readme_quick_tour_is_current():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0, "the README Quick tour has drifted"


def test_main_leaves_no_parser_garbage(capsys):
    """cli.main reuses one parser, so repeated calls leave no ArgumentParser
    behind as cyclic garbage."""
    gc.collect()
    start = len(gc.garbage)
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(10):
            assert cli.main(["order", "--L", "2", "--R", "1", "--N", "4"]) == 0
        gc.collect()
        parsers = [obj for obj in gc.garbage[start:]
                   if isinstance(obj, argparse.ArgumentParser)]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    capsys.readouterr()
    assert parsers == []


# A shortest valid command line for every subcommand.
MINIMAL_ARGV = {
    "hs-triangle": ["--A", "0", "--B", "1", "--r", "0"],
    "hs-egf": ["--A", "0", "--B", "1", "--r", "0"],
    "two-point-egf": ["--A", "0", "--B", "1", "--r", "0", "--r-prime", "1"],
    "order": ["--L", "1", "--R", "0"],
    "power": ["--L", "1", "--R", "0", "--n", "2"],
    "verify": ["katriel"],
    "catalog": ["abel"],
}


def test_parser_subcommands_are_the_registry():
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(COMMANDS)
    assert set(MINIMAL_ARGV) == set(COMMANDS)


@pytest.mark.parametrize("name", list(COMMANDS))
def test_help_lists_the_registered_flags_in_order(capsys, name):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    # each argument's help entry starts a line indented by two spaces; a
    # positional with choices is shown as its choices in braces
    shown = [m for m in re.findall(r"^  (\S+)", capsys.readouterr().out,
                                   re.M) if m != "-h,"]
    _, specs, _ = COMMANDS[name]
    assert shown == [flag if flag.startswith("-") or "choices" not in kw
                     else "{" + ",".join(kw["choices"]) + "}"
                     for flag, kw in specs]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_minimal_argv_dispatches_to_the_registered_handler(name):
    args = cli.build_parser().parse_args([name, *MINIMAL_ARGV[name]])
    assert args.command == name
    assert args.func is COMMANDS[name][2]


@pytest.mark.parametrize("argv, expected", [
    (["power", "--L", "1", "--R", "1", "--n", "2", "--s", "-2/5"],
     "2,0,-13/25\n3,1,8/5\n4,2,1\n"),
    (["two-point-egf", "--A", "1", "--B", "-1/3", "--r", "-5/3",
      "--r-prime", "-2/7", "--s", "-1/7", "--N", "2"],
     "1\n-43/49,1\n640/7203,-122/147,1/2\n")])
def test_negative_fractions_are_values(capsys, argv, expected):
    """A negative fraction after a flag is its value, as after "--B="."""
    assert run_cli(capsys, *argv, "--format", "csv") == (0, expected)
    pairs = iter(argv[1:])
    joined = [f"{flag}={value}" for flag, value in zip(pairs, pairs)]
    assert run_cli(capsys, argv[0], *joined, "--format", "csv") == \
        (0, expected)


def test_coefficients_past_the_digit_limit_print_in_full(capsys):
    """r = 10^1000 gives [z^5 t^0] = r^5/5!, a 5,000-digit numerator: the
    CLI prints it, and leaves the interpreter's limit as it found it."""
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = digit_limit()
    code, out = run_cli(capsys, "hs-egf", "--A", "0", "--B", "1",
                        "--r", "1" + "0" * 1000, "--N", "5")
    assert code == 0
    assert json.loads(out)["coeffs"][5][0] == ["25" + "0" * 4997 + "/3"]
    assert digit_limit() == limit
