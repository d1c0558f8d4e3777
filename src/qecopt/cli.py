"""Command-line front end.

Subcommands: optimize, sweep, gatesim, longrange, shor, fit.  Every report
embeds the fully resolved computation parameters under "config", so a report
can be fed back via --config and reproduces itself; identical invocations
produce byte-identical files.  Probability-like columns are emitted as log10
values (``_log10`` suffix); linear values appear only where representable.

Each parameter is declared once, in PARAMS: its flag, the type that converts
its flag text and its config value alike, its JSON type, and its status
under every command that takes it.  The argv parser (build_parser), the
per-command config schemas (CONFIG_SCHEMA) and config resolution (flag, else
config, else default) are all generated from that table; the I/O flags
(--format, --out, --config, fit's --in) are Params of _IO_PARAMS.  The parser
takes the command first, then that command's flags by their exact names; a
flag's value is the next token, or follows '=' in --flag=value.

Each cmd_* handler resolves its settings and computes; main renders every
report, JSON through _report and CSV through _csv_table.  One writer,
_json_parts, gives json.dumps(sort_keys=True, indent=2) text for every JSON
value and splices a table in at its depth; table rows, JSON and CSV alike,
are joined from per-column prefixes and cells.  A parameter given by flag
or config that the handler left out of its resolved config (it does not
read it) is a usage error, raised before the handler computes.

Exit codes: 0 success, 1 computational infeasibility, 2 usage error, and
141 (128 + SIGPIPE, as a shell reports a reader that left early) when
stdout is closed before the report is written.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import crosstalk, gatesim, optimizer, scheme, shor

COMMANDS = ("optimize", "sweep", "gatesim", "longrange", "shor", "fit")

# Most grid points one sweep may take, per axis and in total.
MAX_SWEEP_POINTS = 10 ** 6
# Curve values a sweep evaluates at once (points x levels): 1 MB of floats.
SWEEP_BLOCK = 1 << 17
# Table rows a report renders and writes at once.
REPORT_ROWS = 1 << 12


class UsageError(ValueError):
    """Bad arguments or configuration (exit code 2)."""


def _angle(value: str | float) -> float:
    """Angles as plain floats or simple pi expressions: 'pi', 'pi/2', '2pi'."""
    if not isinstance(value, str):
        return float(value)
    cleaned = value.strip().lower().replace(" ", "")
    try:
        return float(cleaned)
    except ValueError:
        pass
    factor = 1.0
    body = cleaned
    if "pi" in body:
        head, _, tail = body.partition("pi")
        if head:
            factor *= float(head.rstrip("*"))
        if tail:
            if not tail.startswith("/"):
                raise UsageError(f"cannot parse angle {value!r}")
            denominator = float(tail[1:])
            if denominator == 0.0:
                raise UsageError(f"angle {value!r} divides by zero")
            factor /= denominator
        return factor * math.pi
    raise UsageError(f"cannot parse angle {value!r}")


def _parse_scheme(value: str | dict) -> scheme.FTScheme:
    if isinstance(value, dict):
        return scheme.make_scheme(**value)
    if "," in value:
        parts = [int(p) for p in value.split(",")]
        if len(parts) != 5:
            raise UsageError("explicit scheme needs 5 integers: A,A_prime,B,D,M")
        return scheme.make_scheme(*parts)
    return scheme.get_scheme(value)


def _scheme_config(value: str | dict) -> str | dict:
    """Canonical config form of the scheme argument."""
    if isinstance(value, dict):
        return dict(value)
    if "," in value:
        return _parse_scheme(value).to_dict()
    return value


def _floats(value: str | list) -> list[float]:
    """'1,300,9e4' or a list of numbers."""
    items = value.split(",") if isinstance(value, str) else value
    return [float(v) for v in items]


def _samples(value: str | list) -> list[list[float]]:
    """'k:eta,k:eta,...' or a list of [k, eta] pairs."""
    if isinstance(value, str):
        pairs = []
        for chunk in value.split(","):
            k, _, eta = chunk.partition(":")
            if not eta:
                raise UsageError("samples format is k:eta,k:eta,...")
            pairs.append((k, eta))
        value = pairs
    return [[float(k), float(eta)] for k, eta in value]


def _axes(value: list) -> list[dict]:
    """Each --axis text 'param:min:max:count[:spacing]' as an axis object,
    checked against the config schema's axis; axis objects from a config
    (checked with the config) pass through."""
    axes = []
    for axis in value:
        if isinstance(axis, str):
            text, parts = axis, axis.split(":")
            if len(parts) not in (4, 5):
                raise UsageError("axis format is param:min:max:count[:spacing]")
            axis = {"param": parts[0]}
            fields = (("min", float), ("max", float), ("count", int))
            for (field, convert), part in zip(fields, parts[1:4]):
                try:
                    axis[field] = convert(part)
                except ValueError:
                    raise UsageError(f"--axis {text}: {field} needs {_ACCEPTS[convert]}, "
                                     f"got {part!r}") from None
            axis["spacing"] = parts[4] if len(parts) == 5 else "linear"
            if (problem := _violation(axis, _AXIS_JSON)) is not None:
                raise UsageError(f"--axis {text}: {problem}")
        axes.append(axis)
    return axes


def _scheme_growth(cfg: dict) -> float:
    """Default per-level gate growth of the photon law: the scheme's D."""
    return float(_parse_scheme(cfg["scheme"]).D)


REQUIRED = object()  # status of a parameter the command cannot run without


@dataclass(frozen=True)
class Param:
    """One parameter.  status maps each command that takes it to its
    default, REQUIRED, or None (optional, emitted as null when unset); a
    callable default is computed from the parameters resolved before it."""

    key: str
    flag: str
    type: Callable[[Any], Any]
    json: dict
    status: dict[str, Any]
    help: str | None = None
    action: str | None = None


NUMBER = {"type": "number"}
INTEGER = {"type": "integer"}
_SCAN = ("optimize", "sweep")  # the commands that scan a noise law

_SCHEME_JSON = {
    "oneOf": [
        {"type": "string"},
        {
            "type": "object",
            "properties": {name: INTEGER for name in ("A", "A_prime", "B", "D", "M")},
            "required": ["A", "A_prime", "B", "D", "M"],
            "additionalProperties": False,
        },
    ]
}
_AXIS_JSON = {
    "type": "object",
    "properties": {
        "param": {"type": "string"},
        "min": NUMBER,
        "max": NUMBER,
        "count": {"type": "integer", "minimum": 1, "maximum": MAX_SWEEP_POINTS},
        "spacing": {"enum": ["linear", "log"]},
    },
    "required": ["param", "min", "max", "count"],
    "additionalProperties": False,
}
_PAIR_JSON = {"type": "array", "items": NUMBER, "minItems": 2, "maxItems": 2}

PARAMS = (
    Param("scheme", "--scheme", _scheme_config, _SCHEME_JSON,
          {c: "aliferis2006" for c in (*_SCAN, "shor")}, "preset name or A,A_prime,B,D,M"),
    Param("model", "--model", str, {"enum": list(scheme.MODEL_FIELDS)},
          dict.fromkeys(_SCAN, REQUIRED)),
    Param("eta0", "--eta0", float, NUMBER, dict.fromkeys(_SCAN, REQUIRED)),
    Param("c", "--c", float, NUMBER, dict.fromkeys(_SCAN, 0.0)),
    Param("beta", "--beta", float, NUMBER, dict.fromkeys(_SCAN, REQUIRED)),
    Param("f_values", "--f-values", _floats, {"type": "array", "items": NUMBER},
          {"optimize": REQUIRED}),
    Param("nL", "--nL", float, NUMBER, {"optimize": REQUIRED, "shor": None},
          "photons per logical gate"),
    Param("A", "--A", float, NUMBER, {"optimize": _scheme_growth}),
    Param("kcap", "--kcap", int, {"type": "integer", "minimum": 1},
          dict.fromkeys(_SCAN, optimizer.DEFAULT_K_CAP)),
    Param("axes", "--axis", _axes, {"type": "array", "items": _AXIS_JSON, "maxItems": 2},
          {"sweep": REQUIRED}, "param:min:max:count[:spacing], up to twice", "append"),
    Param("R", "--R", int, INTEGER, {"sweep": REQUIRED, "shor": REQUIRED}),
    Param("theta", "--theta", _angle, NUMBER, {"gatesim": REQUIRED},
          "radians, or pi / pi/2 / 2pi"),
    Param("gamma", "--gamma", float, NUMBER, {"gatesim": REQUIRED, "shor": REQUIRED}),
    Param("ng", "--ng", float, NUMBER, {"gatesim": REQUIRED}),
    Param("omega0", "--omega0", float, NUMBER, {"gatesim": None, "shor": REQUIRED}),
    Param("lattice", "--lattice", str, {"enum": ["chain", "square"]},
          {"longrange": REQUIRED}),
    Param("z", "--z", float, NUMBER, {"longrange": REQUIRED}),
    Param("N0", "--N0", int, INTEGER, {"longrange": REQUIRED}),
    Param("kappa", "--kappa", float, NUMBER, {"longrange": 1.0}),
    Param("compare", "--compare", bool, {"type": "boolean"}, {"longrange": False},
          action="store_true"),
    Param("ptarget", "--ptarget", float, NUMBER, {"shor": 2.0 / 3.0}),
    Param("perr", "--perr", float, NUMBER, {"shor": None},
          "explicit per-gate error target"),
    Param("nlcap", "--nlcap", float, NUMBER, {"shor": shor.N_L_SEARCH_CAP},
          "search cap on n_L"),
    Param("samples", "--samples", _samples, {"type": "array", "items": _PAIR_JSON},
          {"fit": REQUIRED}, "k:eta,k:eta,..."),
    Param("model", "--model", str, {"enum": ["affine", "exp"]}, {"fit": REQUIRED}),
    Param("D", "--D", float, NUMBER, {"fit": None}),
)

# The flags that name the report's format and files, not a computation
# parameter: the parser reads them, configs and resolution do not.  A
# sweep's format is left to main (see there), so it has its own help.
_IO_PARAMS = (
    Param("format", "--format", str, {"enum": ["json", "csv"]},
          dict.fromkeys(c for c in COMMANDS if c != "sweep"), "report format (default: json)"),
    Param("format", "--format", str, {"enum": ["json", "csv"]}, {"sweep": None},
          "report format (default: csv, or json for a report fed back)"),
    Param("out", "--out", str, {"type": "string"}, dict.fromkeys(COMMANDS),
          "output path (default: stdout)"),
    Param("config", "--config", str, {"type": "string"}, dict.fromkeys(COMMANDS),
          "JSON config file (or a prior report)"),
    Param("infile", "--in", str, {"type": "string"}, {"fit": None}, "CSV file with k,eta rows"),
)

# Each command's parameters by config key, in table order.
_COMMAND_PARAMS = {
    command: {p.key: p for p in PARAMS if command in p.status} for command in COMMANDS
}


def _schema(command: str) -> dict:
    """The command's own keys; null is allowed where a parameter is optional."""
    properties: dict[str, Any] = {"command": {"const": command}}
    for key, param in _COMMAND_PARAMS[command].items():
        properties[key] = param.json
        if param.status[command] is None:
            properties[key] = dict(param.json, type=[param.json["type"], "null"])
    return {"type": "object", "properties": properties, "additionalProperties": False}


# Published schema for --config files, one per command (a full report is
# also accepted, and its "config" member is then used).
CONFIG_SCHEMA = {command: _schema(command) for command in COMMANDS}

# JSON Schema's types: a bool is neither a number nor an integer, and a float
# with no fraction (2.0) is an integer.
_JSON_TYPES: dict[str, Callable[[Any], bool]] = {
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _same(a: Any, b: Any) -> bool:
    """JSON equality of scalars, where true is not 1."""
    return isinstance(a, bool) is isinstance(b, bool) and a == b


def _violation(value: Any, schema: dict) -> str | None:
    """The first way value breaks schema, or None.

    Covers the keywords CONFIG_SCHEMA uses, with JSON Schema's meaning:
    type, const, enum, oneOf, minimum, maximum, minItems, maxItems, items,
    required, properties and additionalProperties (false only).  As in JSON
    Schema, a keyword about numbers, arrays or objects passes other values.
    """
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        if not any(_JSON_TYPES[t](value) for t in types):
            return f"{value!r} is not of type {', '.join(map(repr, types))}"
    if "const" in schema and not _same(value, schema["const"]):
        return f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        return f"{value!r} is not one of {schema['enum']!r}"
    if "oneOf" in schema:
        matches = sum(_violation(value, branch) is None for branch in schema["oneOf"])
        if matches != 1:
            return f"{value!r} matches {matches} of the oneOf schemas, not exactly 1"
    if _JSON_TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            return f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return f"{value!r} is greater than the maximum of {schema['maximum']!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            return f"{value!r} is too long"
        for item in value if "items" in schema else ():
            if (problem := _violation(item, schema["items"])) is not None:
                return problem
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"{key!r} is a required property"
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                if (problem := _violation(item, properties[key])) is not None:
                    return problem
            elif schema.get("additionalProperties", True) is False:
                return f"additional property {key!r} is not allowed"
    return None


_STRING = json.encoder.encode_basestring_ascii
_TABLE = object()  # stands for a report's table in its payload (see _report)


def _json_parts(value: Any, depth: int, parts: list, blocks: Iterable = ()) -> None:
    """Append value's JSON text at depth `depth` to parts as json.dumps(value, sort_keys=True,
    indent=2, allow_nan=False) writes it, or raise json's error; _TABLE is the table in blocks."""
    if type(value) is float and math.isfinite(value):
        parts.append(repr(value))
    elif type(value) is str:
        parts.append(_STRING(value))
    elif type(value) is int:
        parts.append(int.__repr__(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (dict, list, tuple)):
        keyed, inner = isinstance(value, dict), "\n" + "  " * (depth + 1)
        lead = ("{" if keyed else "[") + inner
        for item in sorted(value.items()) if keyed else value:
            if keyed:
                key, item = item
                if not isinstance(key, str):  # json's own key conversion, and its errors
                    (key,) = json.loads(json.dumps({key: None}, indent=2, allow_nan=False))
                lead += _STRING(key) + ": "
            parts.append(lead)
            lead = "," + inner
            _json_parts(item, depth + 1, parts, blocks)
        parts.append(inner[:-2] + ("}" if keyed else "]") if value else "{}" if keyed else "[]")
    elif value is _TABLE:
        parts.append(_json_table(blocks, depth))
    else:  # subclasses of str, int and float, and what json raises for
        parts.append(json.dumps(value, indent=2, allow_nan=False))


def _json_cells(values: list) -> list[str]:
    """The JSON text of each value of a list, or json's error for the first bad one."""
    parts: list[str] = []
    for value in values:
        _json_parts(value, 0, parts)
    return parts


def _csv_cells(values: list) -> list[str]:
    """The CSV text of each value of a list: its str, and an empty cell for None."""
    return ["" if value is None else str(value) for value in values]


def _rows(prefixes: Sequence[str], columns: Sequence, close: str, cells: Callable) -> str:
    """The rows of columns: each cell after its column's prefix, then close.
    Finite arrays are written by repr, as json does, and all else by cells; a
    coded column, (values, index), gives each of its values' text once."""
    streams: list[Iterable[str]] = []
    for prefix, column in zip(prefixes, columns):
        values, index = column if isinstance(column, tuple) else (column, None)
        if isinstance(values, np.ndarray) and np.isfinite(values).all():
            texts = list(map(repr, values.tolist()))
        else:  # json raises for a non-finite float; CSV writes its str
            texts = cells(values.tolist() if isinstance(values, np.ndarray) else values)
        streams += (itertools.repeat(prefix),
                    texts if index is None else map(texts.__getitem__, index.tolist()))
    return "".join(itertools.chain.from_iterable(zip(*streams, itertools.repeat(close))))


def _json_table(blocks: Iterable[dict[str, Any]], depth: int) -> Iterator[str]:
    """The objects in blocks (columns by key, one or more) at depth `depth`, a chunk a block."""
    indent = "\n" + "  " * (depth + 1)
    lead = "["  # in place of the first row's leading comma
    for block in blocks:
        keys = sorted(block)
        prefixes = [f",{indent}{{{indent}  {_STRING(keys[0])}: ",
                    *(f",{indent}  {_STRING(key)}: " for key in keys[1:])]
        text = _rows(prefixes, [block[key] for key in keys], indent + "}", _json_cells)
        if text:
            yield lead + text[1:]
            lead = ","
    yield "[]" if lead == "[" else indent[:-2] + "]"


def _report(payload: dict, blocks: Iterable[dict[str, Any]]) -> Iterator[str]:
    """The chunks of payload's JSON text, with the table in blocks for _TABLE;
    the rest is encoded before the first chunk, so a bad value writes nothing."""
    parts: list = []
    _json_parts(payload, 0, parts, blocks)
    parts.append("\n")
    return itertools.chain.from_iterable(  # text joined; a table streams its chunks
        ("".join(run),) if kind is str else next(run)
        for kind, run in itertools.groupby(parts, type))


def _csv_table(names: Sequence[str], blocks: Iterable[dict[str, Any]]) -> Iterator[str]:
    """A header of names and one line per row, one chunk per block: the one CSV writer."""
    yield ",".join(names) + "\n"
    for block in blocks:
        yield _rows(["", *[","] * (len(names) - 1)], [block[n] for n in names], "\n", _csv_cells)


def _one_row(row: dict) -> list[dict[str, list]]:
    """The table of the one row row, for _report or _csv_table."""
    return [{key: [value] for key, value in row.items()}]


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write a report's chunks to stdout or to the file out."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from exc


def _load_config(path: str | None, command: str) -> tuple[dict, bool]:
    """The config in the file at path ({} for none), and whether the file
    was a report, whose "config" member is then the config."""
    if path is None:
        return {}, False
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    report = isinstance(data, dict) and "config" in data and "result" in data
    if report:
        data = data["config"]
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    problem = _violation(data, CONFIG_SCHEMA[command])
    if problem is not None:
        raise UsageError(f"config does not match the {command} schema: {problem}")
    return data, report


def _reject_unread(args: SimpleNamespace, config: dict, cfg: dict) -> None:
    """A usage error for a parameter given by flag or config that the
    resolved cfg leaves out, i.e. that the handler does not read."""
    for key, param in _COMMAND_PARAMS[args.command].items():
        if key not in cfg and (getattr(args, key) is not None
                               or config.get(key) is not None):
            raise UsageError(f"{param.flag} is given but this {args.command} "
                             "does not read it")


def _settings(args: SimpleNamespace, config: dict,
              keys: Sequence[str] | None = None, cfg: dict | None = None) -> dict:
    """Resolve keys (default: all of the command's parameters) into cfg:
    the flag, else the config value, else the default."""
    params = _COMMAND_PARAMS[args.command]
    cfg = {"command": args.command} if cfg is None else cfg
    for key in params if keys is None else keys:
        param = params[key]
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
        if value is not None:
            try:
                cfg[key] = param.type(value)
            except ValueError as exc:  # a UsageError names what it rejects already
                raise exc if isinstance(exc, UsageError) else UsageError(f"{param.flag}: {exc}")
            continue
        status = param.status[args.command]
        if status is REQUIRED:
            raise UsageError(f"missing required parameter {param.flag}")
        cfg[key] = status(cfg) if callable(status) else status
    return cfg


# What a handler returns: the resolved config, the report's result, the CSV
# header (None for a report that is JSON only) and the table as blocks of
# columns.  main renders it: a result without _TABLE is written alone in
# JSON, and the CSV report is the table.  A handler that resolves only some
# of its parameters calls _reject_unread before it computes.
Report = tuple[dict, dict, Sequence[str] | None, Iterable[dict[str, Sequence]]]


def cmd_optimize(args: SimpleNamespace, config: dict) -> Report:
    cfg = _settings(args, config, ("scheme", "model", "kcap"))
    _settings(args, config, scheme.MODEL_FIELDS[cfg["model"]], cfg)
    _reject_unread(args, config, cfg)
    sch = _parse_scheme(cfg["scheme"])
    model = scheme.model_from_dict(cfg)
    result = optimizer.find_kmax(sch, model, k_cap=cfg["kcap"])
    report: dict[str, Any] = dict(result.to_dict(), curve=_TABLE)
    if isinstance(model, scheme.ExponentialNoise):
        # The bounds hold for a law that grows: beta > 0 and D >= 2.
        report["bounds"] = optimizer.exp_model_bounds(
            sch, model.eta0, model.beta
        ).to_dict() if model.beta > 0 and sch.D >= 2 else None
    if isinstance(model, scheme.AffineNoise):
        c_star = optimizer.affine_usefulness_threshold(sch.B, model.eta0)
        report["usefulness_c_star"] = c_star
        report["no_c_helps"] = c_star == 0.0
    return cfg, report, ("k", "log10_p"), [result.curve_columns()]


# The law's field each sweep axis sets; B_eta0 is eta0 in units of 1/B.
_AXIS_FIELDS = {"eta0": "eta0", "c": "c", "beta": "beta", "B_eta0": "eta0", "n_L": "nL"}


def _axis_values(axis: dict) -> np.ndarray:
    lo, hi, count = float(axis["min"]), float(axis["max"]), int(axis["count"])
    spacing = axis.get("spacing", "linear")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("axis min and max must be finite")
    if hi < lo:
        raise UsageError("axis max must be >= min")
    if count == 1:
        return np.array([lo])
    if spacing == "log":
        if lo <= 0:
            raise UsageError("log axis needs min > 0")
        ratio = (hi / lo) ** (1.0 / (count - 1))
        # Python's pow, which numpy's vectorised power need not match bit for
        # bit; it raises where a power leaves the float range.
        try:
            values = np.fromiter((lo * ratio ** i for i in range(count)), float, count)
        except OverflowError:
            raise UsageError("axis spacing overflows float range") from None
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            values = lo + (hi - lo) / (count - 1) * np.arange(count)
    # The grid is monotone, so its last value overflows first (to inf or NaN).
    if not math.isfinite(values[-1]):
        raise UsageError("axis spacing overflows float range")
    return values


def _sweep_minima(sch: scheme.FTScheme, point: dict, grid: dict[str, np.ndarray],
                  kcap: int) -> tuple[np.ndarray, np.ndarray]:
    """k_max and log10 p_min at every grid point, outer axis slowest: two
    flat arrays, 16 bytes a point.

    point holds the law's fixed fields and grid each swept field's values,
    one axis per field in axis order.  The grid is evaluated in blocks of at
    most SWEEP_BLOCK curve values, and in each block every swept field of
    point is an array along its own axis, so the law family takes each
    logarithm once per distinct value.
    """
    table = optimizer.levels(kcap)
    shape = [v.size for v in grid.values()]
    inner = min(shape[-1], max(1, SWEEP_BLOCK // table.ks.size))
    chunks = [max(1, SWEEP_BLOCK // (inner * table.ks.size))] * (len(shape) - 1) + [inner]
    k_max, p_min = np.empty(shape, dtype=int), np.empty(shape)
    for starts in itertools.product(*(range(0, n, c) for n, c in zip(shape, chunks))):
        block = tuple(slice(s, s + c) for s, c in zip(starts, chunks))
        for i, (field, vals) in enumerate(grid.items()):
            point[field] = vals[block[i]].reshape(
                [-1 if d == i else 1 for d in range(len(shape))] + [1])
        k_max[block], p_min[block] = optimizer.first_minima(
            optimizer.log10_curve(sch, scheme.model_from_dict(point), table))
    return k_max.ravel(), p_min.ravel()


def _sweep_rows(axes: list[dict], values: list[np.ndarray], k_max: np.ndarray,
                p_min: np.ndarray, kcap: int) -> Iterator[dict[str, Any]]:
    """The sweep's table, REPORT_ROWS rows at a time, as columns: each axis,
    k_max, log10_p_min and status.  The axes, k_max and status are coded
    (see _rows): the block's distinct values, and each row's index."""
    status = [optimizer.scan_status(k, kcap) for k in range(kcap + 1)]
    strides = [math.prod(v.size for v in values[i + 1:]) for i in range(len(values))]
    for start in range(0, k_max.size, REPORT_ROWS):
        rows = np.arange(start, min(start + REPORT_ROWS, k_max.size))
        block: dict[str, Any] = {}
        for axis, vals, stride in zip(axes, values, strides):
            # Row r takes vals[r // stride % n]: from step `first` on, wrapping at n.
            first, n = start // stride, vals.size
            steps = np.arange(first, min(rows[-1] // stride + 1, first + n)) % n
            block[axis["param"]] = (vals[steps], (rows // stride - first) % n)
        ks = k_max[rows]
        low, high = int(ks.min()), int(ks.max()) + 1
        block.update(k_max=(np.arange(low, high), ks - low), log10_p_min=p_min[rows],
                     status=(status[low:high], ks - low))
        yield block


def cmd_sweep(args: SimpleNamespace, config: dict) -> Report:
    cfg = _settings(args, config, ("scheme", "model", "kcap", "axes"))
    axes, model = cfg["axes"], cfg["model"]
    if not axes:
        raise UsageError("sweep needs at least one axis (--axis or config)")
    if model == "table":
        raise UsageError("sweep does not support --model table")
    fields = scheme.MODEL_FIELDS[model]
    choices = [param for param, field in _AXIS_FIELDS.items() if field in fields]
    swept: dict[str, str] = {}  # each swept field of the law, and its axis
    for axis in axes:
        param = axis["param"]
        if param not in choices:
            raise UsageError(f"cannot sweep {param!r} under --model {model}; "
                             f"choose from {', '.join(choices)}")
        field = _AXIS_FIELDS[param]
        if field in swept:
            raise UsageError(f"cannot sweep {param!r}: axis {swept[field]!r} already sets "
                             f"{field}; choose from {', '.join(choices)}, one per field")
        swept[field] = param
    if math.prod(int(axis["count"]) for axis in axes) > MAX_SWEEP_POINTS:
        raise UsageError(f"a sweep takes at most {MAX_SWEEP_POINTS} grid points")
    if model == "shor":  # its one axis is n_L, and A is the scheme's D
        _settings(args, config, ("R",), cfg)
        shor.ShorProblem(R=cfg["R"])  # echoed in every report, so checked unused too
    else:
        _settings(args, config, [f for f in fields if f not in swept], cfg)
    _reject_unread(args, config, cfg)

    sch = _parse_scheme(cfg["scheme"])
    # model_from_dict reads only the model's fields of point.
    point = dict(cfg, A=_scheme_growth(cfg))
    values = [_axis_values(axis) for axis in axes]
    grid = {_AXIS_FIELDS[axis["param"]]: vals / sch.B if axis["param"] == "B_eta0" else vals
            for axis, vals in zip(axes, values)}
    k_max, p_min = _sweep_minima(sch, point, grid, cfg["kcap"])
    # Before the first byte; no legal law reaches it (see scheme.NoiseModel).
    _json_cells(p_min[~np.isfinite(p_min)].tolist())  # json's error for a non-finite minimum
    names = [axis["param"] for axis in axes] + ["k_max", "log10_p_min", "status"]
    return cfg, {"rows": _TABLE}, names, _sweep_rows(axes, values, k_max, p_min, cfg["kcap"])


def cmd_gatesim(args: SimpleNamespace, config: dict) -> Report:
    cfg = _settings(args, config)
    spec = gatesim.GateSpec(
        theta=cfg["theta"], gamma=cfg["gamma"], n_g=cfg["ng"], omega0=cfg["omega0"]
    )
    omega, tau = gatesim.pulse_params(spec)
    channel = gatesim.evolve_noisy_gate(spec)
    asym = gatesim.asymptotic_pauli_errors(spec.n_g)
    result = channel.to_dict()
    result.update(
        {
            "Omega": omega,
            "tau": tau,
            "p_x": channel.chi_diag[1],
            "p_y": channel.chi_diag[2],
            "p_z": channel.chi_diag[3],
            "asymptotic": {"p_x": asym[0], "p_y": asym[1], "p_z": asym[2]},
            "rwa_marginal": spec.rwa_margin <= gatesim.RWA_MARGINAL_RATIO,
        }
    )
    return cfg, result, None, ()


def cmd_longrange(args: SimpleNamespace, config: dict) -> Report:
    cfg = _settings(args, config, ("lattice", "z", "N0", "compare"))
    if cfg["compare"]:
        _settings(args, config, ("kappa",), cfg)
        if not 0 < cfg["kappa"] < math.inf:
            raise UsageError(f"--kappa must be positive and finite, got {cfg['kappa']!r}")
    elif args.format == "csv":
        raise UsageError("csv output requires --compare")
    _reject_unread(args, config, cfg)
    spec = crosstalk.LatticeSpec(
        d=1 if cfg["lattice"] == "chain" else 2,
        z=cfg["z"],
        N0=cfg["N0"],
        aspect=cfg["lattice"],
    )
    # The closed form first: a z it does not cover is rejected before the oracle.
    asym = crosstalk.delta0_asymptotic(spec, kappa=cfg["kappa"]) if cfg["compare"] else None
    oracle = crosstalk.delta_lattice_oracle(spec)
    result: dict[str, Any] = {"oracle": oracle}
    if asym is not None:
        result["asymptotic"] = asym
        result["rel_err"] = abs(asym - oracle) / oracle
    return (cfg, result, ("N0", "oracle", "asymptotic", "rel_err"),
            _one_row(dict(result, N0=cfg["N0"])))


def cmd_shor(args: SimpleNamespace, config: dict) -> Report:
    cfg = _settings(args, config, ("scheme", "nL", "R", "gamma", "omega0", "perr"))
    if cfg["perr"] is None:  # the target comes from P_target
        _settings(args, config, ("ptarget",), cfg)
    if cfg["nL"] is None:  # the budget is searched for, up to the cap
        _settings(args, config, ("nlcap",), cfg)
    _reject_unread(args, config, cfg)
    sch = _parse_scheme(cfg["scheme"])
    problem = shor.ShorProblem(R=cfg["R"],
                               P_target=cfg.get("ptarget", shor.ShorProblem.P_target))
    p_err = shor.error_target(problem, cfg["perr"])

    if cfg["nL"] is None:
        budget = shor.min_photon_budget(
            problem, sch, p_err=cfg["perr"], n_L_cap=cfg["nlcap"]
        )
        if not budget.feasible:
            raise RuntimeError(f"target error {p_err:.3e} unreachable within "
                               f"n_L <= {cfg['nlcap']:.0e}")
        n_L, k, log10_p_min = budget.n_L, budget.k, budget.log10_p_min
    else:
        n_L = cfg["nL"]
        opt = shor.optimize_photon_budget(problem, n_L, sch)
        k, log10_p_min = opt.k_max, opt.log10_curve[opt.k_max]
    bill = shor.energy_bill(problem, n_L, k, cfg["gamma"], cfg["omega0"], sch)
    margin = shor.rwa_margin(bill.pulse)

    result = bill.to_dict()
    result.update(
        {
            "R": cfg["R"],
            "L": problem.L,
            "p_err_target": p_err,
            "log10_p_min": log10_p_min,
            "meets_target": log10_p_min <= math.log10(p_err),
            "rwa_margin": margin,
            "rwa_marginal": margin <= gatesim.RWA_MARGINAL_RATIO,
        }
    )
    return (cfg, result, ("R", "n_L", "k", "E_tot_J", "P_W", "T_tot_s", "tau_g_s"),
            _one_row(result))


def _read_samples(path: str) -> list[list[float]]:
    """(k, eta) rows of a CSV file, with an optional 'k,...' header."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read samples {path}: {exc.strerror}") from exc
    lines = text.strip().splitlines()
    first = text[:len(text) - len(text.lstrip())].count("\n") + 1  # lines[0]'s line number
    if lines and lines[0].lower().startswith("k,"):
        lines, first = lines[1:], first + 1
    rows = []
    for number, line in enumerate(lines, first):
        try:
            k, eta = line.split(",")
            rows.append([float(k), float(eta)])
        except ValueError:
            raise UsageError(f"--in {path} line {number}: a row is two numbers k,eta, "
                             f"got {line!r}") from None
    return rows


def cmd_fit(args: SimpleNamespace, config: dict) -> Report:
    if args.samples is None and args.infile is not None:
        args.samples = _read_samples(args.infile)  # --in stands for --samples
    cfg = _settings(args, config, ("samples", "model"))
    if cfg["model"] == "exp":  # D turns the fitted slope into beta
        _settings(args, config, ("D",), cfg)
    _reject_unread(args, config, cfg)
    fit = scheme.fit_noise_model(
        [tuple(s) for s in cfg["samples"]], cfg["model"], D=cfg.get("D")
    )
    result = {
        "model": scheme.model_to_dict(fit.model),
        "residual": fit.residual,
        "n_points": fit.n_points,
    }
    return cfg, result, None, ()


_HANDLERS = {
    "optimize": ("scan the logical-error curve", cmd_optimize),
    "sweep": ("grid sweep emitting one row per point", cmd_sweep),
    "gatesim": ("simulate the driven-qubit gate", cmd_gatesim),
    "longrange": ("lattice crosstalk strength", cmd_longrange),
    "shor": ("photon budget and energy bill", cmd_shor),
    "fit": ("fit a noise law to (k, eta) samples", cmd_fit),
}


_HELP_FLAGS = ("-h", "--help")


# What a conversion that can fail accepts, for its error message.
_ACCEPTS = {int: "an integer", float: "a number"}


def _help_text(usage: str, about: str, rows: list[tuple[str, str]], footer: str) -> str:
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"usage: {usage}", "", about, ""]
    lines += [f"  {name:<{width}}{text}".rstrip() for name, text in rows]
    return "\n".join([*lines, "", footer, ""])


@dataclass(frozen=True)
class Parser:
    """Reads argv: the command first, then that command's flags by their
    exact names (no abbreviations).  A flag's value is the next token, or
    follows '=' in --flag=value; the last value given wins, except for a
    flag that appends (--axis).  Integers and numbers are converted as they
    are read; text-valued flags (angles, lists, axes, schemes) are converted
    during resolution, so a malformed one is a one-line usage error there."""

    flags: dict[str, dict[str, Param]]
    helps: dict[str | None, str]  # the top level's (None) and each command's

    def parse(self, argv: Sequence[str]) -> SimpleNamespace | str:
        """The namespace of argv (its command and one attribute per flag of
        that command, None where not given), or the help text that -h or
        --help asks for.  Anything else is a UsageError."""
        if not argv:
            raise UsageError(f"missing command; choose from {', '.join(COMMANDS)}")
        command = argv[0]
        if command in _HELP_FLAGS:
            return self.helps[None]
        if command not in self.flags:
            raise UsageError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
        flags = self.flags[command]
        values: dict[str, Any] = {param.key: None for param in flags.values()}
        tokens = iter(argv[1:])
        for token in tokens:
            if token in _HELP_FLAGS:
                return self.helps[command]
            name, given, text = token.partition("=") if token.startswith("--") else (
                token, "", "")
            param = flags.get(name)
            if param is None:
                if not name.startswith("-"):
                    raise UsageError(f"unexpected argument {token!r}: {command} takes flags only")
                raise UsageError(f"{command} has no flag {name} (flags must match exactly; "
                                 f"see qecopt {command} --help)")
            if param.action == "store_true":
                if given:
                    raise UsageError(f"{name} takes no value")
                values[param.key] = True
                continue
            if not given:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"{name} needs a value")
            try:
                value = param.type(text) if param.type in _ACCEPTS else text
            except ValueError:
                raise UsageError(f"{name} needs {_ACCEPTS[param.type]}, got {text!r}") from None
            choices = param.json.get("enum")
            if choices and value not in choices:
                raise UsageError(f"{name} must be one of {', '.join(choices)}, got {text!r}")
            values[param.key] = ([*(values[param.key] or ()), value]
                                 if param.action == "append" else value)
        return SimpleNamespace(command=command, **values)


@functools.cache
def build_parser() -> Parser:
    """The qecopt parser, built once per process from _IO_PARAMS and PARAMS.
    Parsing leaves it unchanged, so every call to main shares it."""
    flags = {}
    helps: dict[str | None, str] = {None: _help_text(
        f"qecopt {{{','.join(COMMANDS)}}} [flags]",
        "Optimal error correction under scale-dependent noise",
        [(command, help_text) for command, (help_text, _) in _HANDLERS.items()],
        "'qecopt COMMAND --help' lists the flags of a command.")}
    for command, (help_text, _) in _HANDLERS.items():
        params = [p for p in (*_IO_PARAMS, *PARAMS) if command in p.status]
        flags[command] = {param.flag: param for param in params}
        rows = [("-h, --help", "show this help and exit")]
        for param in params:
            name = param.flag
            if "enum" in param.json:
                name += " {" + ",".join(param.json["enum"]) + "}"
            elif param.action != "store_true":
                name += " " + param.key.upper()
            rows.append((name, param.help or ""))
        helps[command] = _help_text(
            f"qecopt {command} [flags]", help_text, rows,
            "Flags must match exactly; a value is the next token or follows "
            "'=' (--flag=value).")
    return Parser(flags, helps)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help text -h or --help asked for
            sys.stdout.write(args)
            return 0
        config, from_report = _load_config(args.config, args.command)
        cfg, result, csv_names, table = _HANDLERS[args.command][1](args, config)
        # The one format default: JSON, but a sweep writes CSV unless its
        # config was a report.
        fmt = args.format or ("csv" if args.command == "sweep" and not from_report else "json")
        if fmt == "json":
            _emit(_report({"config": cfg, "result": result}, table), args.out)
        elif csv_names is None:
            raise UsageError(f"{args.command} reports are JSON only")
        else:
            _emit(_csv_table(csv_names, table), args.out)
        return 0
    except (UsageError, ValueError, TypeError) as exc:
        sys.stderr.write(f"qecopt: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"qecopt: {exc}\n")
        return 1


# Exit code when stdout closes before the report is written (128 + SIGPIPE).
CLOSED_PIPE_EXIT = 141


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # Python's documented idiom: stdout points at devnull, so the flush
        # at exit writes nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = CLOSED_PIPE_EXIT
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
