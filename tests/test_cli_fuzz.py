"""Fuzzed argv and configs: every input gives a report or a one-line message.

Each example starts from a valid invocation of one command and overwrites a
few of its flags, or of its config keys, with values drawn from a fixed list
of valid, junk and edge values: 0, -1, nan, inf, 1e+-300, integer literals
past the float range, scheme counts past it, pi/0, a missing path, and the
wrong command.  The flags and keys come from the command's own
parameter table.  Grid counts, kcap and N0 come from short bounded lists, so
every example stays small.

The same configs, nudged with junk at any depth, also hold the config
reader's schema walk (cli._read_json) to jsonschema: both accept and reject
the same ones.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qecopt import cli

MISSING = "/nonexistent-dir/missing.json"
EDGE_TEXT = ["0", "-1", "nan", "inf", "1e300", "1e-300", "pi/0", MISSING]
PAST_FLOAT = 10 ** 400  # a JSON integer that no float holds
EDGE_JSON = [0, -1, math.nan, math.inf, 1e300, 1e-300, PAST_FLOAT, -PAST_FLOAT, "pi/0",
             MISSING, None, True, "optimize"]

# One valid invocation per model or path of each command.
BASES = [
    ["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1", "--kcap", "8"],
    ["optimize", "--model", "exp", "--eta0", "1e-12", "--beta", "1", "--kcap", "8"],
    ["optimize", "--model", "table", "--eta0", "1e-9", "--f-values", "1,300,90000"],
    ["optimize", "--model", "shor", "--nL", "1e9", "--kcap", "8"],
    ["sweep", "--model", "affine", "--eta0", "5e-6", "--axis", "c:0:4:3", "--kcap", "8"],
    ["sweep", "--model", "exp", "--axis", "eta0:1e-12:1e-6:3:log",
     "--axis", "beta:0.1:1:2", "--kcap", "8"],
    ["sweep", "--model", "shor", "--R", "1000", "--axis", "n_L:1e4:1e13:3:log",
     "--kcap", "8"],
    ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1000"],
    ["gatesim", "--theta", "pi/2", "--gamma", "1", "--ng", "300", "--omega0", "1e9"],
    ["longrange", "--lattice", "chain", "--z", "0.5", "--N0", "101", "--compare"],
    ["longrange", "--lattice", "square", "--z", "1", "--N0", "144", "--compare"],
    ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"],
    ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10", "--nL", "1e6"],
    ["fit", "--samples", "0:1e-5,1:2e-5,2:3e-5", "--model", "affine"],
    ["fit", "--samples", "0:1e-6,1:2.91e-4", "--model", "exp", "--D", "291"],
]

# Valid values beside each parameter's enum, so edits also stay valid.
VALID = {
    "scheme": ["aliferis2006", "575,291,10000,291,3", "1,1,1,1,1", "1,2,3", "bogus",
               f"1,1,{PAST_FLOAT},{PAST_FLOAT},1"],
    "eta0": ["5e-6", "1e-12", "0.5"],
    "c": ["1", "0"],
    "beta": ["1", "0.5", "0"],
    "f_values": ["1,300,90000", "1,2", "2,1", "", "1,inf", "1,1e308,inf"],
    "A": ["291", "1"],
    "R": ["1000", "2", "64"],
    "theta": ["pi", "pi/2", "2pi", "1.5", "tau"],
    "gamma": ["1", "10"],
    "ng": ["1000", "50"],
    "omega0": ["1e10", "1"],
    "z": ["0.5", "1", "3"],
    "kappa": ["1", "2"],
    "nL": ["1e6", "1e12"],
    "ptarget": ["0.9", "0.6667"],
    "perr": ["1e-9", "1e-300", "1"],
    "nlcap": ["1e12", "1e30"],
    "samples": ["0:1e-5,1:2e-5", "0:1e-5,0:2e-5", "0:1e-5", "1:2:3", "nan:1e-5,1:2e-5",
                "inf:1e-5,1:2e-5", "0:nan,1:2e-5", "-100:1e-5,0:1e-5,1:0.5",
                "1000:1e-5,1001:1e-9"],
    "D": ["291", "1"],
}
# These set the work of one example, so they take bounded values only.
BOUNDED_TEXT = {
    "kcap": ["0", "-1", "1", "8", "64", "1001", "1e300", "nan"],
    "N0": ["0", "-1", "2", "101", "64", "1e300", "nan"],
}
BOUNDED_JSON = [0, -1, 1, 8, 64, 1001, 2.0, math.nan, math.inf, PAST_FLOAT, -PAST_FLOAT,
                None]
AXIS_PARAMS = ["eta0", "c", "beta", "B_eta0", "n_L", "volume"]
AXIS_BOUNDS = ["0", "-1", "1e-9", "0.5", "10", "1e300", "nan", "inf", "pi/0"]
AXIS_COUNTS = ["0", "-1", "1", "3", "1e300", "nan"]

COMMAND_PARAMS = cli._COMMAND_PARAMS


@st.composite
def axis_text(draw) -> str:
    parts = [draw(st.sampled_from(AXIS_PARAMS)), draw(st.sampled_from(AXIS_BOUNDS)),
             draw(st.sampled_from(AXIS_BOUNDS)), draw(st.sampled_from(AXIS_COUNTS))]
    if draw(st.booleans()):
        parts.append(draw(st.sampled_from(["log", "linear", "cubic"])))
    return ":".join(parts)


def flag_choices(key: str, param: cli.Param) -> list[str]:
    """The listed flag texts of a parameter other than --axis."""
    if key in BOUNDED_TEXT:
        return BOUNDED_TEXT[key]
    return list(param.json.get("enum", [])) + VALID.get(key, []) + EDGE_TEXT


def flag_values(key: str, param: cli.Param) -> st.SearchStrategy:
    if key == "axes":
        return st.lists(axis_text(), min_size=1, max_size=3)
    return st.sampled_from(flag_choices(key, param))


def json_choices(key: str) -> list:
    """The listed config values of a key other than axes."""
    if key in BOUNDED_TEXT:
        return BOUNDED_JSON
    if key == "samples":
        return [[[0, 1e-5], [1, 2e-5]], [[0, 1e-5]], [[0, 2.0], [1, 0.5]], [[0, 1e-5, 3]],
                "0:1e-5,1:2e-5", [[-100, 1e-5], [0, 1e-5], [1, 0.5]],
                [[1000, 1e-5], [1001, 1e-9]]]
    if key == "f_values":
        return [[1, 300, 90000], [1.0], [2.0, 1.0], [], [1, math.inf], [1, 1e308, math.inf]]
    if key == "scheme":
        return ["aliferis2006", "bogus", "1,2,3",
                {"A": 575, "A_prime": 291, "B": 10000, "D": 291, "M": 3},
                {"A": 575.0, "A_prime": 291, "B": 1e4, "D": 291, "M": 3.0},
                {"A": 1, "A_prime": 1, "B": 1, "D": 1, "M": 1},
                {"A": 1, "A_prime": 1, "B": PAST_FLOAT, "D": PAST_FLOAT, "M": 1}]
    numbers = []
    for text in VALID.get(key, []):
        try:
            numbers.append(float(text))
        except ValueError:
            pass
    return EDGE_JSON + numbers + ["affine", "exp", "chain", "pi"]


def json_values(key: str) -> st.SearchStrategy:
    if key == "axes":
        axis = st.fixed_dictionaries(
            {"param": st.sampled_from(AXIS_PARAMS),
             "min": st.sampled_from([0, -1, 1e-9, 0.5, 1e300, PAST_FLOAT]),
             "max": st.sampled_from([0, 1e-6, 10, 1e300]),
             "count": st.sampled_from([0, 1, 3])},
            optional={"spacing": st.sampled_from(["log", "linear", "cubic"])})
        return st.lists(axis, max_size=3)
    return st.sampled_from(json_choices(key))


def set_flag(argv: list[str], flag: str, values: list[str]) -> list[str]:
    """argv with every occurrence of flag replaced by one per value."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == flag:
            i += 2
        else:
            out.append(argv[i])
            i += 1
    for value in values:
        out += [flag, value]
    return out


@st.composite
def mutated_argv(draw, base: list[str]) -> list[str]:
    """base with a few flags overwritten, dropped or added."""
    command, argv = base[0], list(base)
    params = COMMAND_PARAMS[command]
    for key in draw(st.lists(st.sampled_from(sorted(params)), max_size=3, unique=True)):
        param = params[key]
        if param.action == "store_true":
            argv = [a for a in argv if a != param.flag]
            if draw(st.booleans()):
                argv.append(param.flag)
            continue
        values = draw(flag_values(key, param))
        if isinstance(values, str):
            values = [] if draw(st.integers(0, 5)) == 0 else [values]
        argv = set_flag(argv, param.flag, values)
    extra = draw(st.sampled_from(["", "", "", "", "format", "out", "config", "foreign", "in"]))
    if extra == "format":
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    elif extra in ("out", "config"):
        argv += [f"--{extra}", MISSING]
    elif extra == "foreign":
        other = draw(st.sampled_from([p for p in cli.PARAMS if command not in p.status]))
        argv += [other.flag, "1"]
    elif extra == "in" and command == "fit":
        argv = set_flag(argv, "--samples", [])
        argv += ["--in", draw(st.sampled_from([MISSING, "@samples", "@bad-samples"]))]
    return argv


@st.composite
def mutated_config(draw, config: dict) -> dict:
    """A valid config with a few keys overwritten, dropped or added."""
    config = dict(config)
    command = config["command"]
    keys = sorted(COMMAND_PARAMS[command])
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        if draw(st.integers(0, 5)) == 0:
            config.pop(key, None)
        else:
            config[key] = draw(json_values(key))
    extra = draw(st.sampled_from(["", "", "", "", "foreign", "command"]))
    if extra == "foreign":
        foreign = sorted({p.key for p in cli.PARAMS} - set(keys))
        config[draw(st.sampled_from(foreign))] = 1.0
    elif extra == "command":
        config["command"] = draw(st.sampled_from(cli.COMMANDS))
    return config


def outcome(argv: list[str], workdir: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr)."""
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return cli.main(argv), out.getvalue(), err.getvalue()


def strict_json(text: str) -> dict:
    """A report parsed as standard JSON: NaN and Infinity are refused."""

    def refuse(constant: str):
        raise ValueError(f"report holds {constant}, which is not JSON")

    return json.loads(text, parse_constant=refuse)


def check(argv: list[str], workdir: Path) -> None:
    """Exit 0, 1 or 2 and no traceback; exit 1 or 2 comes with exactly one
    stderr line, parse errors included.  A JSON report on stdout is standard
    JSON."""
    code, out, err = outcome(argv, workdir)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if code == 0 and out.startswith("{"):
        strict_json(out)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("fuzz")
    (path / "samples").write_text("k,eta\n0,1e-6\n1,2.91e-4\n")
    (path / "bad-samples").write_text("k,eta\n0,1e-6,7\nx\n")
    return path


@pytest.fixture(scope="module")
def base_configs(workdir) -> list[dict]:
    """The resolved config of each base invocation, from its own report."""
    configs = []
    for i, argv in enumerate(BASES):
        out = workdir / f"base{i}.json"
        assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
        configs.append(strict_json(out.read_text())["config"])
    return configs


FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def test_bases_are_valid(workdir):
    for argv in BASES:
        assert outcome(argv, workdir)[0] == 0, argv


@FUZZ
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(workdir, data):
    base = data.draw(st.sampled_from(BASES))
    check(data.draw(mutated_argv(base)), workdir)


@FUZZ
@given(data=st.data())
def test_fuzzed_config_exits_cleanly(workdir, base_configs, data):
    i = data.draw(st.integers(0, len(BASES) - 1))
    config = data.draw(mutated_config(base_configs[i]))
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    argv = [BASES[i][0], "--config", str(path)]
    if data.draw(st.booleans()):
        # Flags of the same command ride along; a flag wins over its key.
        argv += data.draw(mutated_argv(BASES[i]))[1:]
    check(argv, workdir)


# Every listed value, one edit at a time: the drawn tests above may miss a
# value that breaks one command, and these try each on each base.
def single_edits(command: str) -> Iterator[tuple[str, cli.Param]]:
    for key, param in COMMAND_PARAMS[command].items():
        if key != "axes" and param.action != "store_true":
            yield key, param


def test_every_single_flag_edit_exits_cleanly(workdir):
    for base in BASES:
        for key, param in single_edits(base[0]):
            for value in flag_choices(key, param):
                check(set_flag(base, param.flag, [value]), workdir)


def test_every_single_config_edit_exits_cleanly(workdir, base_configs):
    path = workdir / "edit.json"
    for base, config in zip(BASES, base_configs):
        for key, _ in single_edits(base[0]):
            for value in json_choices(key):
                path.write_text(json.dumps(dict(config, **{key: value})))
                check([base[0], "--config", str(path)], workdir)


# The config reader's walk against jsonschema, the reference it replaced.  Junk is
# any JSON value, with keys drawn from the schemas' own names so that junk
# objects come close to valid axes and schemes.
SCHEMA_KEYS = sorted({p.key for p in cli.PARAMS} | {"command", "param", "min", "max",
                                                     "count", "spacing", "A_prime",
                                                     "B", "M"})
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([2.0, -0.0, 1e300, 10 ** 400, "log", "affine", "chain", "shor"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(SCHEMA_KEYS), inner, max_size=5)),
    max_leaves=8,
)


@st.composite
def nudged(draw, value):
    """value with one member, at any depth, replaced by junk, dropped or
    added; or value replaced by junk outright."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        copy = dict(value) if isinstance(value, dict) else list(value)
        key = draw(st.sampled_from(list(copy) if isinstance(copy, dict)
                                   else range(len(copy))))
        if draw(st.integers(0, 4)) == 0:
            del copy[key]
        else:
            copy[key] = draw(nudged(copy[key]))
        return copy
    if isinstance(value, dict) and draw(st.booleans()):
        return dict(value, **{draw(st.sampled_from(SCHEMA_KEYS)): draw(JUNK)})
    return draw(JUNK)


@functools.cache
def reference(command: str):
    """The validator jsonschema.validate builds for the command's schema,
    built once: the schema is checked here and not again per config."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = cli.CONFIG_SCHEMA[command]
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    return validator(schema)


def problem(value, schema: dict) -> str | None:
    """How the config reader refuses value under schema, or None if it reads it."""
    try:
        cli._read_json(value, schema)
    except cli.UsageError as exc:
        return str(exc)
    return None


def assert_walker_agrees(config) -> None:
    for command, schema in cli.CONFIG_SCHEMA.items():
        refusal = problem(config, schema)
        assert (refusal is None) == reference(command).is_valid(config), (command, config)
        if refusal is not None:
            assert "\n" not in refusal


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_walker_agrees_with_jsonschema(base_configs, data):
    i = data.draw(st.integers(0, len(BASES) - 1))
    config = data.draw(mutated_config(base_configs[i]))
    for _ in range(data.draw(st.integers(0, 2))):
        config = data.draw(nudged(config))
    assert_walker_agrees(config)


AXIS = {"param": "c", "min": 0.0, "max": 1.0, "count": 3}
SCHEME = {"A": 575, "A_prime": 291, "B": 10000, "D": 291, "M": 3}


@pytest.mark.parametrize("config", [
    # 2.0 is an integer and true is neither an integer nor a number.
    {"command": "shor", "R": 2.0}, {"command": "shor", "R": True},
    {"command": "shor", "gamma": 2.0}, {"command": "shor", "gamma": True},
    {"command": "longrange", "N0": 1e300}, {"command": "longrange", "N0": 2.5},
    {"command": "longrange", "compare": 1}, {"command": "longrange", "compare": True},
    # const and enum tell true from 1.
    {"command": True}, {"command": 1}, {"command": "optimize", "model": True},
    # -0.0, NaN and inf against minimum, and counts past the grid bound.
    {"command": "optimize", "kcap": -0.0}, {"command": "optimize", "kcap": math.nan},
    {"command": "optimize", "kcap": math.inf}, {"command": "optimize", "kcap": 10 ** 400},
    {"command": "sweep", "axes": [dict(AXIS, count=-0.0)]},
    {"command": "sweep", "axes": [dict(AXIS, count=1e6)]},
    {"command": "sweep", "axes": [dict(AXIS, count=1e6 + 1)]},
    {"command": "sweep", "axes": [dict(AXIS, count=math.nan)]},
    {"command": "sweep", "axes": [dict(AXIS, count=math.inf)]},
    {"command": "sweep", "axes": [dict(AXIS, min=math.nan, max=-math.inf)]},
    # An extra or missing key inside an axis object, and three or no axes.
    {"command": "sweep", "axes": [dict(AXIS, volume=1)]},
    {"command": "sweep", "axes": [{"param": "c", "min": 0.0, "max": 1.0}]},
    {"command": "sweep", "axes": [AXIS, AXIS, AXIS]}, {"command": "sweep", "axes": []},
    {"command": "sweep", "axes": [dict(AXIS, spacing="cubic")]},
    # A scheme of neither type, and objects that break or keep the object rules.
    {"command": "shor", "scheme": 291}, {"command": "shor", "scheme": [575]},
    {"command": "shor", "scheme": dict(SCHEME, D=291.5)},
    {"command": "shor", "scheme": dict(SCHEME, extra=1)},
    {"command": "shor", "scheme": SCHEME}, {"command": "shor", "scheme": dict(SCHEME, D=2.0)},
    # Pairs of exactly two numbers.
    {"command": "fit", "samples": [[0, 1e-5], [1, True]]},
    {"command": "fit", "samples": [[0, 1e-5, 3]]}, {"command": "fit", "samples": [[0]]},
    # null only where a parameter is optional.
    {"command": "shor", "nL": None}, {"command": "shor", "R": None},
    {"command": "gatesim", "omega0": None}, {"command": "gatesim", "omega0": "1e9"},
])
def test_walker_agrees_with_jsonschema_on_edges(config):
    assert_walker_agrees(config)


@pytest.mark.parametrize("schema", [
    {"const": 1}, {"const": True}, {"enum": [1, 2.0]}, {"enum": [False]},
    {"minimum": 1}, {"type": "number", "minimum": -1},
    {"type": ["integer", "null"]},
    # The scheme's shape: keywords about objects pass every other value.
    {"type": ["string", "object"], "required": ["A"], "additionalProperties": False},
    # The axes' and pairs' shape: keywords about arrays pass every other value.
    {"items": {"minimum": 1}, "minItems": 1, "maxItems": 1},
])
@pytest.mark.parametrize("value", [
    True, False, 1, 1.0, 2.0, 0, -0.0, math.nan, math.inf, -math.inf, None, "1", [1],
])
def test_walker_keeps_json_schema_rules_beyond_config_schema(schema, value):
    # CONFIG_SCHEMA compares only strings and bounds only integers, so these
    # rules (true is not 1; NaN passes minimum) show only here.
    jsonschema = pytest.importorskip("jsonschema")
    accepted = jsonschema.validators.validator_for(schema)(schema).is_valid(value)
    assert (problem(value, schema) is None) == accepted


def test_reader_reads_numbers_as_floats_integers_as_ints_and_fills_defaults():
    config = {"command": "sweep", "kcap": 8.0, "eta0": 1, "R": 1e3,
              "axes": [{"param": "c", "min": -PAST_FLOAT, "max": PAST_FLOAT, "count": 2.0}],
              "scheme": {"A": 575.0, "A_prime": 291, "B": 1e4, "D": 291, "M": 3}}
    read = cli._read_json(config, cli.CONFIG_SCHEMA["sweep"])
    assert read == {"command": "sweep", "kcap": 8, "eta0": 1.0, "R": 1000,
                    "axes": [{"param": "c", "min": -math.inf, "max": math.inf, "count": 2,
                              "spacing": "linear"}],
                    "scheme": {"A": 575, "A_prime": 291, "B": 10000, "D": 291, "M": 3}}
    assert [type(read[key]) for key in ("kcap", "eta0")] == [int, float]
    assert {type(v) for v in read["scheme"].values()} == {int}
    assert type(read["axes"][0]["count"]) is int
    # A number reads as its text does as a flag, past the float range too.
    assert cli._read_json(PAST_FLOAT, cli.NUMBER) == float(str(PAST_FLOAT)) == math.inf
    assert cli._read_json(3, cli.NUMBER) == cli.build_parser().parse(
        ["shor", "--gamma", "3"]).gamma


WALKER_KEYWORDS = {"type", "const", "enum", "minimum", "minItems",
                   "maxItems", "items", "required", "properties", "additionalProperties",
                   "default"}


def schema_keywords(schema: dict) -> Iterator[tuple[str, object]]:
    """Every (keyword, value) pair of a schema and of its subschemas."""
    for keyword, value in schema.items():
        yield keyword, value
        if keyword == "properties":
            for sub in value.values():
                yield from schema_keywords(sub)
        elif keyword == "items":
            yield from schema_keywords(value)


def test_config_schema_uses_only_the_walkers_keywords():
    pairs = [pair for schema in cli.CONFIG_SCHEMA.values()
             for pair in schema_keywords(schema)]
    assert {keyword for keyword, _ in pairs} == WALKER_KEYWORDS
    # The walker reads additionalProperties as false and compares const and
    # enum values as scalars.
    assert {repr(v) for k, v in pairs if k == "additionalProperties"} == {"False"}
    assert all(isinstance(v, str) for k, v in pairs if k == "const")
    assert all(isinstance(e, str) for k, v in pairs if k == "enum" for e in v)
