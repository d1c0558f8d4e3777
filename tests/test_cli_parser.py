"""The argv parser against argparse, the parser it replaced.

The reference is an argparse parser built from cli.PARAMS the way qecopt
built its subcommands before, each flag read by its Param.type; it lives
here only, since the runtime does not import argparse.  Over argv made of each command's exact flags the two
parsers agree: the same namespace where argparse accepts, and a one-line
usage error (exit 2) where argparse exits 2.  The deliberate differences
(no abbreviations; a value is always the next token) are pinned below.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qecopt import cli


@functools.cache
def reference() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qecopt")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in cli.COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--format", choices=cli._COMMANDS[command].formats)
        p.add_argument("--out")
        p.add_argument("--config")
        if command == "fit":
            p.add_argument("--in", dest="infile")
        for key, param in cli._COMMAND_PARAMS[command].items():
            kwargs: dict = {"dest": key, "default": None}
            if param.action:
                kwargs["action"] = param.action
            if "enum" in param.json:
                kwargs["choices"] = param.json["enum"]
            elif param.action != "store_true":
                kwargs["type"] = param.type
            p.add_argument(param.flag, **kwargs)
    return parser


def reference_parse(argv: list[str]) -> dict | None:
    """vars() of argparse's namespace for argv, or None where it exits 2."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(reference().parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            return None


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def texts(namespace: dict) -> dict:
    """A namespace's values by repr, so that NaN equals NaN."""
    return {key: repr(value) for key, value in namespace.items()}


@functools.cache
def command_flags(command: str) -> dict[str, cli.Param]:
    """The command's Params by exact flag, as the parser reads them."""
    return {p.flag: p for p in (*cli._IO_PARAMS, *cli.PARAMS) if command in p.status}


def exact_flags(command: str) -> list[str]:
    return list(command_flags(command))


# Values argparse takes as values too: none starts with '-' unless it is a
# negative number by argparse's pattern.  Each conversion has some it takes.
VALUES = ["1", "0", "8", "-1", "-2.5", "-.5", "1e9", "1e-300", "nan", "inf", "pi/2",
          " 3 ", "1_000", "", "json", "csv", "xml", "affine", "exp", "shor", "chain",
          "square", "c:0:4:3", "a=b", "aliferis2006", "0:1e-5,1:2e-5"]
TAKEN = {int: ["8", "-1", " 3 ", "1_000"], float: ["1e9", "-2.5", "nan", "inf", "-.5"],
         str: ["pi/2", "c:0:4:3", "a=b", "", "aliferis2006", "0:1e-5,1:2e-5"]}


@st.composite
def argvs(draw) -> list[str]:
    """A command and a few of its exact flags in any order, repeated or not,
    with values or as --flag=value; now and then a stray value, a flag of
    another command, or a last flag without its value."""
    command = draw(st.sampled_from(cli.COMMANDS))
    table = command_flags(command)
    # A flag of another command that argparse would not read as a prefix of
    # one of this command's flags.
    foreign = sorted({f for c in cli.COMMANDS for f in exact_flags(c)
                      if not any(own.startswith(f) for own in table)})
    argv = [command]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["equals"] * 3 + ["stray", "foreign"]))
        flag = draw(st.sampled_from(sorted(table)))
        spec = table[flag]
        taken = spec.json.get("enum") or TAKEN.get(spec.type, TAKEN[str])
        value = draw(st.sampled_from(taken if taken and draw(st.integers(0, 3)) else VALUES))
        if kind == "stray":
            argv.append(value)
        elif kind == "foreign":
            argv += [draw(st.sampled_from(foreign)), value]
        elif spec.action == "store_true":
            argv.append(flag if kind != "equals" else f"{flag}={value}")
        elif kind == "pair":
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(sorted(table))))
    return argv


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_parser_agrees_with_argparse(argv):
    expected = reference_parse(argv)
    if expected is not None:
        assert texts(vars(cli.build_parser().parse(argv))) == texts(expected), argv
        return
    with pytest.raises(cli.UsageError):
        cli.build_parser().parse(argv)
    code, out, err = run(argv)
    assert code == 2 and out == "", argv
    assert err.startswith("qecopt: ") and err.count("\n") == 1 and err.endswith("\n"), argv


@pytest.mark.parametrize("argv", [
    ["shor", "--gam", "10", "--omega0", "1e10", "--R", "1000"],
    ["shor", "--R", "1000", "--gamma", "10", "--omega", "1e10"],
    ["optimize", "--model", "affine", "--eta0", "5e-6", "--k", "5"],
    # --c is optimize's slope, but in gatesim argparse read it as --config.
    ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000", "--c", "x.json"],
])
def test_abbreviations_are_usage_errors(argv):
    assert reference_parse(argv) is not None  # argparse took the prefix
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert "must match exactly" in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-0.5e1"])
def test_a_value_is_always_the_next_token(value):
    # argparse's negative-number pattern misses exponents and inf, so it
    # read these as flags and exited 2.
    argv = ["optimize", "--model", "affine", "--eta0", "5e-6", "--c", value]
    assert reference_parse(argv) is None
    assert cli.build_parser().parse(argv).c == float(value)


def test_flag_equals_value_and_repeats():
    parse = cli.build_parser().parse
    assert vars(parse(["shor", "--R=1000", "--gamma=10"])) == vars(
        parse(["shor", "--R", "1000", "--gamma", "10"]))
    assert parse(["shor", "--R", "5", "--R=7"]).R == 7  # the last value wins
    assert parse(["shor", "--out=a=b"]).out == "a=b"  # split at the first '='
    sweep = parse(["sweep", "--axis", "c:0:1:2", "--axis=eta0:1:2:2"])
    assert sweep.axes == [cli._axis("c:0:1:2"), cli._axis("eta0:1:2:2")]  # --axis appends
    assert parse(["longrange", "--compare"]).compare is True
    assert parse(["shor", "--out", "--format"]).out == "--format"  # a value, though flag-like


@pytest.mark.parametrize("argv, message", [
    ([], "missing command"),
    (["bogus"], "unknown command 'bogus'"),
    (["shor", "--R"], "--R needs a value"),
    (["shor", "--R", "abc"], "--R needs an integer, got 'abc'"),
    (["shor", "--gamma", "x"], "--gamma needs a number, got 'x'"),
    (["shor", "--format", "xml"], "--format must be one of json, csv, got 'xml'"),
    (["longrange", "--compare=1"], "--compare takes no value"),
    (["shor", "junk"], "unexpected argument 'junk'"),
    (["shor", "--help=1"], "shor has no flag --help"),
])
def test_parse_errors_are_one_line(argv, message):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("qecopt: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "bogus"]])
def test_top_level_help(argv):
    code, out, err = run(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: qecopt ")
    for command in cli.COMMANDS:
        assert re.search(rf"^  {command} ", out, re.M), command


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_command_help_lists_every_flag(command):
    for argv in ([command, "--help"], [command, "--format", "csv", "-h"]):
        code, out, err = run(argv)
        if "csv" in argv and "csv" not in cli._COMMANDS[command].formats:  # before -h
            assert (code, out, err) == (2, "", "qecopt: --format must be one of json, "
                                               "got 'csv'\n")
            continue
        assert code == 0 and err == ""
        assert out.startswith(f"usage: qecopt {command} ")
        listed = re.findall(r"^  (--[\w-]+)", out, re.M)
        assert listed == exact_flags(command)
