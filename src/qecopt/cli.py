"""Command-line front end.

Subcommands: optimize, sweep, gatesim, longrange, shor, fit.  Every report
embeds the fully resolved computation parameters under "config", so a report
can be fed back via --config and reproduces itself; identical invocations
produce byte-identical files.  Probability-like columns are emitted as log10
values (``_log10`` suffix); linear values appear only where representable.

Each parameter is declared once, in PARAMS: its flag, the type that converts
its flag text and its config value alike, its JSON type, and its status
under every command that takes it.  The argparse subcommands, the
per-command config schemas (CONFIG_SCHEMA) and config resolution (flag, else
config, else default) are all generated from that table.

Each cmd_* handler resolves its settings and computes; main renders every
report, JSON through _report and CSV through _csv_table.  A parameter given
by flag or config that the handler left out of its resolved config (it does
not read it) is a usage error, raised before the handler computes.

Exit codes: 0 success, 1 computational infeasibility, 2 usage error, and
141 (128 + SIGPIPE, as a shell reports a reader that left early) when
stdout is closed before the report is written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
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
    """Each --axis text 'param:min:max:count[:spacing]' as an axis object;
    axis objects from a config pass through."""
    axes = []
    for axis in value:
        if isinstance(axis, str):
            parts = axis.split(":")
            if len(parts) not in (4, 5):
                raise UsageError("axis format is param:min:max:count[:spacing]")
            axis = {
                "param": parts[0],
                "min": float(parts[1]),
                "max": float(parts[2]),
                "count": int(parts[3]),
                "spacing": parts[4] if len(parts) == 5 else "linear",
            }
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


def _dump_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _json_scalar(value: Any, strings: dict[str, str]) -> str:
    """One scalar's JSON text as _dump_json writes it; a string is encoded
    once and kept in strings."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        strings[value] = json.dumps(value)
        return strings[value]
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    return _dump_json(value)[:-1]  # null, true, false; a non-finite float raises


def _array_cells(column: np.ndarray) -> list[str]:
    """The text of every value of an int or float array, as json and the CSV
    reports write it: int.__repr__, or float.__repr__ taken once per distinct
    float (told apart by their bits, so -0.0 keeps its sign)."""
    if column.dtype.kind != "f":
        return list(map(int.__repr__, column.tolist()))
    bits, index = np.unique(np.ascontiguousarray(column, float).view(np.int64),
                            return_inverse=True)
    texts = list(map(float.__repr__, bits.view(float).tolist()))
    return list(map(texts.__getitem__, index.tolist()))


def _check_finite(column: np.ndarray) -> None:
    """Raise json's own ValueError for the first non-finite float of an array."""
    bad = ~np.isfinite(column)
    if bad.any():
        _dump_json(column[bad][0].item())


def _json_cells(column: Sequence, strings: dict[str, str]) -> list[str]:
    """The JSON text of every value of a column."""
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            _check_finite(column)
        return _array_cells(column)
    return [strings[v] if v in strings else _json_scalar(v, strings) for v in column]


def _json_table(blocks: Iterable[dict[str, Sequence]], depth: int) -> Iterator[str]:
    """A list of objects, text for text as _dump_json writes it at nesting
    depth `depth`, one chunk per block.

    Each block maps every key (at least one) to a column of scalars, one per
    row.  One row template is built from the sorted keys and the depth, and
    each row is that template filled with its cells.  A non-finite float
    raises the ValueError that json raises for it.
    """
    indent = "\n" + "  " * (depth + 1)
    template = None
    strings: dict[str, str] = {}
    for block in blocks:
        keys = sorted(block)
        cells = [_json_cells(block[key], strings) for key in keys]
        if not cells[0]:
            continue
        if template is None:
            template = "{" + ",".join(
                f"{indent}  {json.dumps(key).replace('%', '%%')}: %s" for key in keys
            ) + indent + "}"
            yield "[" + indent
        else:
            yield "," + indent
        yield ("," + indent).join(map(template.__mod__, zip(*cells)))
    yield "[]" if template is None else "\n" + "  " * depth + "]"


# Stands for a report's table; no accepted config string holds a NUL.
_TABLE = "\x00table"


def _report(payload: dict, blocks: Iterable[dict[str, Sequence]]) -> Iterator[str]:
    """The chunks of _dump_json(payload) with its _TABLE value, if it has
    one, replaced by the table in blocks.  The rest of the report is encoded
    before the first chunk is returned, so a bad value there writes nothing."""
    text = _dump_json(payload)
    head, marker, tail = text.partition(json.dumps(_TABLE))
    if not marker:
        return iter((text,))
    line = head[head.rfind("\n") + 1:]
    depth = (len(line) - len(line.lstrip(" "))) // 2
    return itertools.chain((head,), _json_table(blocks, depth), (tail,))


def _csv_cells(column: Sequence) -> Sequence:
    """The CSV text of every value of a column: floats by float.__repr__,
    ints by int.__repr__, strings as they are, None as an empty cell."""
    if isinstance(column, np.ndarray):
        return _array_cells(column)
    return ["" if v is None else v for v in column]


def _csv_table(names: Sequence[str], blocks: Iterable[dict[str, Sequence]]) -> Iterator[str]:
    """A header of names and one line per row, one chunk per block (see
    _csv_cells).  The only CSV writer: every CSV report goes through here."""
    yield ",".join(names) + "\n"
    template = ",".join(["%s"] * len(names)) + "\n"
    for block in blocks:
        cells = [_csv_cells(column) for column in map(block.get, names)]
        yield "".join(map(template.__mod__, zip(*cells)))


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


def _reject_unread(args: argparse.Namespace, config: dict, cfg: dict) -> None:
    """A usage error for a parameter given by flag or config that the
    resolved cfg leaves out, i.e. that the handler does not read."""
    for key, param in _COMMAND_PARAMS[args.command].items():
        if key not in cfg and (getattr(args, key) is not None
                               or config.get(key) is not None):
            raise UsageError(f"{param.flag} is given but this {args.command} "
                             "does not read it")


def _settings(args: argparse.Namespace, config: dict,
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
            cfg[key] = param.type(value)
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


def cmd_optimize(args: argparse.Namespace, config: dict) -> Report:
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
    ks = optimizer.levels(kcap)
    shape = [v.size for v in grid.values()]
    inner = min(shape[-1], max(1, SWEEP_BLOCK // ks.size))
    chunks = [max(1, SWEEP_BLOCK // (inner * ks.size))] * (len(shape) - 1) + [inner]
    k_max, p_min = np.empty(shape, dtype=int), np.empty(shape)
    for starts in itertools.product(*(range(0, n, c) for n, c in zip(shape, chunks))):
        block = tuple(slice(s, s + c) for s, c in zip(starts, chunks))
        for i, (field, vals) in enumerate(grid.items()):
            point[field] = vals[block[i]].reshape(
                [-1 if d == i else 1 for d in range(len(shape))] + [1])
        k_max[block], p_min[block] = optimizer.first_minima(
            optimizer.log10_curve(sch, scheme.model_from_dict(point), ks))
    return k_max.ravel(), p_min.ravel()


def _sweep_rows(axes: list[dict], values: list[np.ndarray], k_max: np.ndarray,
                p_min: np.ndarray, kcap: int) -> Iterator[dict[str, Sequence]]:
    """The sweep's table, REPORT_ROWS rows at a time, as columns: each axis,
    k_max, log10_p_min and status."""
    status = [optimizer.scan_status(k, kcap) for k in range(kcap + 1)]
    strides = [math.prod(v.size for v in values[i + 1:]) for i in range(len(values))]
    for start in range(0, k_max.size, REPORT_ROWS):
        rows = np.arange(start, min(start + REPORT_ROWS, k_max.size))
        block: dict[str, Sequence] = {
            axis["param"]: vals[rows // stride % vals.size]
            for axis, vals, stride in zip(axes, values, strides)
        }
        block["k_max"] = k_max[rows]
        block["log10_p_min"] = p_min[rows]
        block["status"] = list(map(status.__getitem__, block["k_max"].tolist()))
        yield block


def cmd_sweep(args: argparse.Namespace, config: dict) -> Report:
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
        if not 1 <= int(axis["count"]) <= MAX_SWEEP_POINTS:
            raise UsageError(f"axis count must lie in [1, {MAX_SWEEP_POINTS}]")
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
    _check_finite(p_min)
    names = [axis["param"] for axis in axes] + ["k_max", "log10_p_min", "status"]
    return cfg, {"rows": _TABLE}, names, _sweep_rows(axes, values, k_max, p_min, cfg["kcap"])


def cmd_gatesim(args: argparse.Namespace, config: dict) -> Report:
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


def cmd_longrange(args: argparse.Namespace, config: dict) -> Report:
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


def cmd_shor(args: argparse.Namespace, config: dict) -> Report:
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
        k, log10_p_min = opt.k_max, opt.log10_p_min
    bill = shor.energy_bill(problem, n_L, k, cfg["gamma"], cfg["omega0"], sch)
    margin = shor.rwa_margin(n_L, k, cfg["gamma"], cfg["omega0"], sch)

    result = bill.to_dict()
    result.update(
        {
            "R": cfg["R"],
            "L": problem.L,
            "p_err_target": p_err,
            "log10_p_min": log10_p_min.log10_value,
            "meets_target": log10_p_min.log10_value <= math.log10(p_err),
            "rwa_margin": margin,
            "rwa_marginal": margin <= gatesim.RWA_MARGINAL_RATIO,
        }
    )
    return (cfg, result, ("R", "n_L", "k", "E_tot_J", "P_W", "T_tot_s", "tau_g_s"),
            _one_row(result))


def _read_samples(path: str) -> list[list[float]]:
    """(k, eta) rows of a CSV file, with an optional 'k,...' header."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read samples {path}: {exc.strerror}") from exc
    if lines and lines[0].lower().startswith("k,"):
        lines = lines[1:]
    return [[float(a) for a in line.split(",")] for line in lines]


def cmd_fit(args: argparse.Namespace, config: dict) -> Report:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qecopt parser, built once per process from PARAMS.  Parsing
    leaves it unchanged, so every call to main shares it."""
    parser = argparse.ArgumentParser(
        prog="qecopt",
        description="Optimal error correction under scale-dependent noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler) in _HANDLERS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--format", choices=("json", "csv"),
                       default=None if command == "sweep" else "json")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="JSON config file (or a prior report)")
        if command == "fit":
            p.add_argument("--in", dest="infile", help="CSV file with k,eta rows")
        for key, param in _COMMAND_PARAMS[command].items():
            kwargs: dict[str, Any] = {"dest": key, "default": None, "help": param.help}
            if param.action:
                kwargs["action"] = param.action
            elif "enum" in param.json:
                kwargs["choices"] = param.json["enum"]
            elif param.type in (int, float):
                # Text-valued flags (angles, lists, axes) are converted during
                # resolution, so a malformed one is a one-line usage error.
                kwargs["type"] = param.type
            p.add_argument(param.flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, from_report = _load_config(args.config, args.command)
        cfg, result, csv_names, table = args.func(args, config)
        # Only sweep has no default format: CSV, or JSON for a report fed back.
        if (args.format or ("json" if from_report else "csv")) == "json":
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
