"""Command-line front end.

Subcommands: optimize, sweep, gatesim, longrange, shor, fit.  Every report
embeds the fully resolved computation parameters under "config", so a report
can be fed back via --config and reproduces itself; identical invocations
produce byte-identical files.  Probability-like columns are emitted as log10
values (``_log10`` suffix); linear values appear only where representable.

Each command is one Command record in _COMMANDS: its help line, its
handler, its report formats and the library modules main imports for it (a
gatesim loads neither optimizer nor shor).  Each parameter is declared once,
in PARAMS: its flag, the type that reads its flag text, its JSON type, and
its status under every command that takes it.  The argv parser
(build_parser, no argparse; a parse plan per command), the per-command
config schemas (CONFIG_SCHEMA) and config resolution are generated from
these two tables; the I/O flags (--format, --out, --config, fit's --in) are
Params of _IO_PARAMS.  Each acceptance rule has one home: an enum flag
offers exactly what its command takes (each command's --format its record's
formats, sweep's --model the laws it sweeps), so --help, the parser and the
schema agree; cmd_sweep alone bounds a grid's size (MAX_SWEEP_POINTS) and
its axes (one per field of the law); kcap's range is optimizer.levels'.
Flags match exactly; a value is the next token, or follows '=' in
--flag=value.  Each value has one reader: the parser reads flag text as it
parses; the schema walk (_read_json, no jsonschema) reads a config, each
"number" a float and each "integer" an int, where an integer literal past
the float range reads as +-inf, as flag text 1e400 does.  Resolution only
picks the flag, else the config value, else the default.

Each cmd_* handler resolves its settings, computes and returns a Report,
(cfg, result, table): the table is blocks of columns whose keys are the CSV
header, or None for a JSON-only report.  main renders every report in
--format, else JSON for a report fed back, else the command's format: JSON
through _report and CSV through _csv_table.  One writer, _json_text, gives
json.dumps(sort_keys=True, indent=2, allow_nan=False) text for every JSON
value: a container of scalars in one call of json's C encoder, re-indented
for its depth, any other container member by member, and on an error
json.dumps's own, raised before the first byte.  It splices a table in at
its depth; table rows, JSON and CSV alike, are joined from per-column
prefixes and cells.  A parameter given by flag or config that the handler
left out of its resolved config (it does not read it) is a usage error,
raised before the handler computes.

Exit codes: 0 success, 1 computational infeasibility, 2 usage error, and
141 (128 + SIGPIPE, as a shell reports a reader that left early) when
stdout is closed before the report is written.  main maps exactly two
exception types to a one-line message: scheme.InputError (qecopt.InputError,
raised by every check on a value the caller gave; UsageError is one) to exit
2, and RuntimeError (an unreachable target) to exit 1.  Anything else is a
bug and leaves main as a traceback.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import operator
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import scheme

# Most grid points one sweep may take.
MAX_SWEEP_POINTS = 10 ** 6
# Table rows a report renders and writes at once.
REPORT_ROWS = 1 << 12


class UsageError(scheme.InputError):
    """Bad arguments or configuration whose message names the flag or file
    it refuses (exit code 2, as for every InputError)."""


def _angle(value: str) -> float:
    """Angles as plain floats or simple pi expressions: 'pi', 'pi/2', '2pi'."""
    cleaned = value.strip().lower().replace(" ", "")
    head, pi, tail = cleaned.partition("pi")
    if not pi:
        try:
            return float(cleaned)
        except ValueError:
            raise UsageError(f"cannot parse angle {value!r}") from None
    factor = float(head.rstrip("*")) if head else 1.0
    if tail and not tail.startswith("/"):
        raise UsageError(f"cannot parse angle {value!r}")
    denominator = float(tail[1:]) if tail else 1.0
    if denominator == 0.0:
        raise UsageError(f"angle {value!r} divides by zero")
    return factor / denominator * math.pi


def _parse_scheme(value: str | dict) -> scheme.FTScheme:
    """The scheme of a canonical scheme argument: its counts or a preset name."""
    return scheme.make_scheme(**value) if isinstance(value, dict) else scheme.get_scheme(value)


def _scheme_config(value: str) -> str | dict:
    """Canonical config form of the scheme argument: a preset name as given,
    or the counts of A,A_prime,B,D,M."""
    if "," not in value:
        return value
    parts = [int(p) for p in value.split(",")]
    if len(parts) != 5:
        raise UsageError("explicit scheme needs 5 integers: A,A_prime,B,D,M")
    return scheme.make_scheme(*parts).to_dict()


def _floats(value: str) -> list[float]:
    """'1,300,9e4'."""
    return [float(v) for v in value.split(",")]


def _samples(value: str) -> list[list[float]]:
    """'k:eta,k:eta,...'."""
    pairs = [chunk.partition(":")[::2] for chunk in value.split(",")]
    if not all(eta for _, eta in pairs):
        raise UsageError("samples format is k:eta,k:eta,...")
    return [[float(k), float(eta)] for k, eta in pairs]


def _axis(value: str) -> dict:
    """An --axis text 'param:min:max:count[:spacing]' as the config axis
    object it must match."""
    parts = value.split(":")
    if len(parts) not in (4, 5):
        raise UsageError("axis format is param:min:max:count[:spacing]")
    axis = {"param": parts[0]}
    for field, convert, part in zip(("min", "max", "count"), (float, float, int), parts[1:4]):
        axis[field] = _read(f"--axis {value}: {field}", convert, part)
    axis["spacing"] = parts[4] if len(parts) == 5 else _SPACING["default"]
    # Typed as above, only count and spacing can break the schema, whose walk
    # words the refusal.
    if not (axis["count"] >= 1 and axis["spacing"] in _SPACING["enum"]):
        try:
            _read_json(axis, _AXIS_JSON)
        except UsageError as exc:
            raise UsageError(f"--axis {value}: {exc}") from None
    return axis


def _scheme_growth(cfg: dict) -> float:
    """Default per-level gate growth of the photon law: the scheme's D."""
    return float(_parse_scheme(cfg["scheme"]).D)


REQUIRED = object()  # status of a parameter the command cannot run without


class Param(NamedTuple):
    """One parameter.  status maps each command that takes it to its
    default, REQUIRED, or None (optional, emitted as null when unset); a
    callable default is computed from the parameters resolved before it."""

    key: str
    flag: str
    type: Callable[[str], Any]  # reads the flag's text
    json: dict
    status: dict[str, Any]
    help: str | None = None
    action: str | None = None


NUMBER = {"type": "number"}
INTEGER = {"type": "integer"}
_SCAN = ("optimize", "sweep")  # the commands that scan a noise law

# A preset name or the constants; the object keywords pass a string.
_SCHEME_JSON = {
    "type": ["string", "object"],
    "properties": {name: INTEGER for name in ("A", "A_prime", "B", "D", "M")},
    "required": ["A", "A_prime", "B", "D", "M"],
    "additionalProperties": False,
}
_SPACING = {"enum": ["linear", "log"], "default": "linear"}
_AXIS_JSON = {
    "type": "object",
    "properties": {
        "param": {"type": "string"},
        "min": NUMBER,
        "max": NUMBER,
        "count": {"type": "integer", "minimum": 1},
        "spacing": _SPACING,
    },
    "required": ["param", "min", "max", "count"],
    "additionalProperties": False,
}
_PAIR_JSON = {"type": "array", "items": NUMBER, "minItems": 2, "maxItems": 2}

PARAMS = (
    Param("scheme", "--scheme", _scheme_config, _SCHEME_JSON,
          {c: "aliferis2006" for c in (*_SCAN, "shor")}, "preset name or A,A_prime,B,D,M"),
    Param("model", "--model", str, {"enum": list(scheme.MODEL_FIELDS)},
          {"optimize": REQUIRED}),
    Param("model", "--model", str, {"enum": ["affine", "exp", "shor"]}, {"sweep": REQUIRED}),
    Param("eta0", "--eta0", float, NUMBER, dict.fromkeys(_SCAN, REQUIRED)),
    Param("c", "--c", float, NUMBER, dict.fromkeys(_SCAN, 0.0)),
    Param("beta", "--beta", float, NUMBER, dict.fromkeys(_SCAN, REQUIRED)),
    Param("f_values", "--f-values", _floats, {"type": "array", "items": NUMBER},
          {"optimize": REQUIRED}),
    Param("nL", "--nL", float, NUMBER, {"optimize": REQUIRED, "shor": None},
          "photons per logical gate"),
    Param("A", "--A", float, NUMBER, {"optimize": _scheme_growth}),
    Param("kcap", "--kcap", int, INTEGER,
          dict.fromkeys(_SCAN, lambda cfg: optimizer.DEFAULT_K_CAP)),
    Param("axes", "--axis", _axis,
          {"type": "array", "items": _AXIS_JSON, "minItems": 1},
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
    Param("nlcap", "--nlcap", float, NUMBER, {"shor": lambda cfg: shor.N_L_SEARCH_CAP},
          "search cap on n_L"),
    Param("samples", "--samples", _samples, {"type": "array", "items": _PAIR_JSON},
          {"fit": REQUIRED}, "k:eta,k:eta,..."),
    Param("model", "--model", str, {"enum": ["affine", "exp"]}, {"fit": REQUIRED}),
    Param("D", "--D", float, NUMBER, {"fit": None}),
)

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


def _read_json(value: Any, schema: dict) -> Any:
    """value as schema reads it, or a UsageError that words the first way
    value breaks schema.

    Covers the keywords CONFIG_SCHEMA uses, with JSON Schema's meaning:
    type, const, enum, minimum, minItems, maxItems, items,
    required, properties, additionalProperties (false only) and default,
    which a missing property takes.  As in JSON Schema, a keyword about
    numbers, arrays or objects passes other values.  Where value's first
    listed type is "number" it reads as a float, and "integer" as an int.
    """
    read = value
    types = schema.get("type")
    if types is not None:
        types = [types] if isinstance(types, str) else types
        kind = next((t for t in types if _JSON_TYPES[t](value)), None)
        if kind is None:
            raise UsageError(f"{value!r} is not of type {', '.join(map(repr, types))}")
        if kind in ("number", "integer"):  # a number from its text, as a flag: +-inf past floats
            read = float(repr(value)) if kind == "number" else int(value)
    if "const" in schema and not _same(value, schema["const"]):
        raise UsageError(f"{schema['const']!r} was expected")
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        raise UsageError(f"{value!r} is not one of {schema['enum']!r}")
    if "minimum" in schema and _JSON_TYPES["number"](value) and value < schema["minimum"]:
        raise UsageError(f"{value!r} is less than the minimum of {schema['minimum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise UsageError(f"{value!r} is too short")
        if len(value) > schema.get("maxItems", len(value)):
            raise UsageError(f"{value!r} is too long")
        if "items" in schema:
            read = [_read_json(item, schema["items"]) for item in value]
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise UsageError(f"{key!r} is a required property")
        properties = schema.get("properties", {})
        read = {key: sub["default"] for key, sub in properties.items() if "default" in sub}
        for key, item in value.items():
            if key in properties:
                read[key] = _read_json(item, properties[key])
            elif schema.get("additionalProperties", True) is False:
                raise UsageError(f"additional property {key!r} is not allowed")
            else:
                read[key] = item
    return read


_STRING = json.encoder.encode_basestring_ascii
_TABLE = object()  # stands for a report's table in its payload (see _report)
# A container of these scalars goes whole to _FLAT's C encoder: a member a
# line, two spaces in.  ensure_ascii escapes every newline (and NUL) inside a
# string, so each newline it writes is a separator, which _json_text
# re-indents.  _ENCODE is built once; _FLAT.encode builds it on every call.
_SCALARS = frozenset((float, int, str, bool, type(None)))
_FLAT = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False,
                         separators=(",\n  ", ": "))
_ENCODE = json.encoder.c_make_encoder(
    None, _FLAT.default, _STRING, None, _FLAT.key_separator, _FLAT.item_separator,
    True, False, False) if json.encoder.c_make_encoder else lambda value, _: [_FLAT.encode(value)]


def _json_text(value: Any, depth: int) -> str:
    """value's JSON text at depth `depth`, as json.dumps(value, sort_keys=True,
    indent=2, allow_nan=False) writes it, or json's own error; _TABLE is
    written as its depth between two NULs, which no JSON text holds."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if kind is str:
        return _STRING(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if value is _TABLE:
        return f"\0{depth}\0"
    try:
        keyed = isinstance(value, dict)
        members = value.values() if keyed else value if isinstance(value, (list, tuple)) else ()
        if _SCALARS.issuperset(map(type, members)):  # a scalar has no members
            text = "".join(_ENCODE(value, 0))
            if not members:  # a scalar, or an empty container
                return text
            text = f"{text[0]}\n  {text[1:-1]}\n{text[-1]}"
            return text.replace("\n", "\n" + "  " * depth) if depth else text
        if keyed:  # json's order and key text
            texts = [f"{_STRING(key) if isinstance(key, str) else _json_text({key: 0}, 0)[4:-5]}"
                     f": {_json_text(item, depth + 1)}" for key, item in sorted(value.items())]
        else:
            texts = [_json_text(item, depth + 1) for item in value]
        inner = "\n" + "  " * (depth + 1)
        brackets = "{}" if keyed else "[]"
        return f"{brackets[0]}{inner}{f',{inner}'.join(texts)}{inner[:-2]}{brackets[1]}"
    except (TypeError, ValueError):
        json.dumps(value, sort_keys=True, indent=2, allow_nan=False)  # json's own error
        raise


def _json_cells(values: list) -> list[str]:
    """The JSON text of each scalar of a list, or json's error for the first bad one."""
    return _json_text(values, 0)[4:-2].split(",\n  ") if values else []  # in "[\n  ...\n]"


def _csv_cells(values: list) -> list[str]:
    """The CSV text of each value of a list: its str, and an empty cell for None."""
    return ["" if value is None else str(value) for value in values]


def _rows(prefixes: Sequence[str], columns: Sequence, close: str, cells: Callable) -> str:
    """The rows of columns: each cell after its column's prefix, then close.
    Finite number arrays are written by repr, as json does, and all else by
    cells; a coded column, (values, index), gives each of its values' text
    once, with its prefix (and close, if it is the last column) joined on
    before its rows gather them.  One row is one join of each prefix and cell."""
    first = columns[0]
    count = len(first[1] if isinstance(first, tuple) else first)
    if not count:
        return ""
    if count == 1:
        texts = cells([column[0] if type(column) is list else _one_value(column)
                       for column in columns])
        return "".join(map(str.__add__, prefixes, texts)) + close
    last = len(columns) - 1
    streams: list[Iterable[str]] = []
    for number, (prefix, column) in enumerate(zip(prefixes, columns)):
        values, index = column if isinstance(column, tuple) else (column, None)
        numbers = isinstance(values, np.ndarray) and values.dtype.kind in "fiu"
        if numbers and np.isfinite(values).all():
            texts = list(map(repr, values.tolist()))
        else:  # json raises for a non-finite float; CSV writes its str
            texts = cells(values.tolist() if isinstance(values, np.ndarray) else values)
        if index is None:
            streams += (itertools.repeat(prefix), texts)
        else:
            tail = close if number == last else ""
            texts = [f"{prefix}{text}{tail}" for text in texts]
            streams.append(operator.itemgetter(*index.tolist())(texts))
    if index is None:  # the last column has no close of its own
        streams.append(itertools.repeat(close))
    return "".join(itertools.chain.from_iterable(zip(*streams)))


def _one_value(column) -> Any:
    """The one value of a one-row column: an array's as a Python scalar."""
    values, at = (column[0], int(column[1][0])) if isinstance(column, tuple) else (column, 0)
    return values.item(at) if isinstance(values, np.ndarray) else values[at]


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
    text, *table = (_json_text(payload, 0) + "\n").split("\0")
    if not table:
        return iter((text,))
    depth, rest = table  # the text around the table, which streams its chunks
    return itertools.chain((text,), _json_table(blocks, int(depth)), (rest,))


def _csv_table(blocks: Iterable[dict[str, Any]]) -> Iterator[str]:
    """A header of the column keys, then a line per row, a chunk per block: the one CSV writer."""
    prefixes = None
    for block in blocks:
        if prefixes is None:
            yield ",".join(block) + "\n"
            prefixes = ["", *[","] * (len(block) - 1)]
        yield _rows(prefixes, list(block.values()), "\n", _csv_cells)


def _one_row(row: dict) -> Iterator[dict[str, list]]:
    """The table of the one row row, built only when _csv_table reads it."""
    yield {key: [value] for key, value in row.items()}


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
    # A ValueError is bad UTF-8, bad JSON or an integer literal too long to convert.
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    report = isinstance(data, dict) and "config" in data and "result" in data
    if report:
        data = data["config"]
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    try:
        return _read_json(data, CONFIG_SCHEMA[command]), report
    except UsageError as exc:
        raise UsageError(f"config does not match the {command} schema: {exc}") from None


def _reject_unread(args: SimpleNamespace, config: dict, cfg: dict) -> None:
    """A usage error for a parameter given by flag or config that the
    resolved cfg leaves out, i.e. that the handler does not read."""
    for key, param in _COMMAND_PARAMS[args.command].items():
        if key not in cfg and (getattr(args, key) is not None
                               or config.get(key) is not None):
            raise UsageError(f"{param.flag} is given but this {args.command} "
                             "does not read it")


def _read(flag: str, convert: Callable[[str], Any], text: str) -> Any:
    """text read by convert, a flag's type; a ValueError it raises is a
    UsageError that names the flag."""
    try:
        return convert(text)
    except UsageError:  # names what it refuses already
        raise
    except ValueError as exc:
        raise UsageError(f"{flag} needs {_ACCEPTS[convert]}, got {text!r}" if convert in _ACCEPTS
                         else f"{flag}: {exc}") from None


def _settings(args: SimpleNamespace, config: dict,
              keys: Sequence[str] | None = None, cfg: dict | None = None) -> dict:
    """Resolve keys (default: all of the command's parameters) into cfg:
    the flag, else the config value, else the default.  Only a config
    string (a scheme's A,A_prime,B,D,M) is read here, by its flag's type."""
    params = _COMMAND_PARAMS[args.command]
    cfg = {"command": args.command} if cfg is None else cfg
    for key in params if keys is None else keys:
        param = params[key]
        value = getattr(args, key)
        if value is None:
            value = config.get(key)
            if isinstance(value, str):
                value = _read(param.flag, param.type, value)
        if value is not None:
            cfg[key] = value
            continue
        status = param.status[args.command]
        if status is REQUIRED:
            raise UsageError(f"missing required parameter {param.flag}")
        cfg[key] = status(cfg) if callable(status) else status
    return cfg


# What a handler returns: the resolved config, the report's result and the
# table as blocks of columns, whose keys are the CSV header in order (None
# for a report that is JSON only).  main renders it: a result without _TABLE
# is written alone in JSON, and the CSV report is the table, every block of
# which has the same keys.  A handler that resolves only some of its
# parameters calls _reject_unread before it computes.
Report = tuple[dict, dict, Iterable[dict[str, Sequence]] | None]


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
    return cfg, report, [result.curve_columns()]


# The law's field each sweep axis sets; B_eta0 is eta0 in units of 1/B.
_AXIS_FIELDS = {"eta0": "eta0", "c": "c", "beta": "beta", "B_eta0": "eta0", "n_L": "nL"}


def _axis_values(axis: dict) -> np.ndarray:
    lo, hi, count, spacing = axis["min"], axis["max"], axis["count"], axis["spacing"]
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
    # The one bound on a sweep's size, by flag or config: each count is >= 1.
    if math.prod(axis["count"] for axis in axes) > MAX_SWEEP_POINTS:
        raise UsageError(f"a sweep takes at most {MAX_SWEEP_POINTS} grid points")
    if model == "shor":  # its one axis is n_L, and A is the scheme's D
        _settings(args, config, ("R",), cfg)
        scheme.check_key_length(cfg["R"])  # echoed in every report, so checked unused too
    else:
        _settings(args, config, [f for f in fields if f not in swept], cfg)
    _reject_unread(args, config, cfg)

    sch = _parse_scheme(cfg["scheme"])
    # model_from_dict reads only the model's fields of point.
    point = dict(cfg, A=float(sch.D))
    values = [_axis_values(axis) for axis in axes]
    grid = {_AXIS_FIELDS[axis["param"]]: vals / sch.B if axis["param"] == "B_eta0" else vals
            for axis, vals in zip(axes, values)}
    k_max, p_min = optimizer.sweep_minima(sch, point, grid, cfg["kcap"])
    # Before the first byte; no legal law reaches it (see scheme.NoiseModel).
    _json_cells(p_min[~np.isfinite(p_min)].tolist())  # json's error for a non-finite minimum
    return cfg, {"rows": _TABLE}, _sweep_rows(axes, values, k_max, p_min, cfg["kcap"])


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
            "rwa_margin": None if spec.omega0 is None else spec.rwa_margin,
            "Omega": omega,
            "tau": tau,
            "p_x": channel.chi_diag[1],
            "p_y": channel.chi_diag[2],
            "p_z": channel.chi_diag[3],
            "asymptotic": {"p_x": asym[0], "p_y": asym[1], "p_z": asym[2]},
            "rwa_marginal": spec.rwa_marginal,
        }
    )
    return cfg, result, None


def cmd_longrange(args: SimpleNamespace, config: dict) -> Report:
    cfg = _settings(args, config, ("lattice", "z", "N0", "compare"))
    if cfg["compare"]:
        _settings(args, config, ("kappa",), cfg)
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
    return cfg, result, _one_row({"N0": cfg["N0"], **result})


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
    p_err = shor.target_logical_error(problem, cfg["perr"])

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

    result = bill.to_dict()
    result.update(
        {
            "R": cfg["R"],
            "L": problem.L,
            "p_err_target": p_err,
            "log10_p_min": log10_p_min,
            "meets_target": log10_p_min <= math.log10(p_err),
            "rwa_margin": bill.pulse.rwa_margin,
            "rwa_marginal": bill.pulse.rwa_marginal,
        }
    )
    return cfg, result, _one_row({key: result[key] for key in
                                  ("R", "n_L", "k", "E_tot_J", "P_W", "T_tot_s", "tau_g_s")})


def _read_samples(path: str) -> list[list[float]]:
    """(k, eta) rows of a CSV file, with an optional 'k,...' header."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read samples {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read samples {path}: {exc}") from exc
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
    if args.infile is not None:  # --in stands for --samples
        if args.samples is not None:
            raise UsageError("--in and --samples both give the samples; give one")
        args.samples = _read_samples(args.infile)
    cfg = _settings(args, config, ("samples", "model"))
    if cfg["model"] == "exp":  # D turns the fitted slope into beta
        _settings(args, config, ("D",), cfg)
    _reject_unread(args, config, cfg)
    fit = scheme.fit_noise_model(cfg["samples"], cfg["model"], D=cfg.get("D"))
    result = {
        "model": scheme.model_to_dict(fit.model),
        "residual": fit.residual,
        "n_points": fit.n_points,
    }
    return cfg, result, None


class Command(NamedTuple):
    """A command: its help line, its handler, the report formats it writes
    and its --format offers, its default first (see main), and the library
    modules beside scheme that its handler calls, which main imports and
    binds as globals before it calls the handler."""

    about: str
    handler: Callable[[SimpleNamespace, dict], Report]
    formats: tuple[str, ...]
    modules: tuple[str, ...]


# The commands, one record each, in the order the help lists them.
_COMMANDS = {
    "optimize": Command("scan the logical-error curve", cmd_optimize, ("json", "csv"),
                        ("optimizer",)),
    "sweep": Command("grid sweep emitting one row per point", cmd_sweep, ("csv", "json"),
                     ("optimizer",)),
    "gatesim": Command("simulate the driven-qubit gate", cmd_gatesim, ("json",), ("gatesim",)),
    "longrange": Command("lattice crosstalk strength", cmd_longrange, ("json", "csv"),
                         ("crosstalk",)),
    "shor": Command("photon budget and energy bill", cmd_shor, ("json", "csv"), ("shor",)),
    "fit": Command("fit a noise law to (k, eta) samples", cmd_fit, ("json",), ()),
}
COMMANDS = tuple(_COMMANDS)

# The flags that name the report's format and files, not a computation
# parameter: the parser reads them, configs and resolution do not.  Each
# command's --format takes the formats of its record.
_IO_PARAMS = (
    *(Param("format", "--format", str, {"enum": list(record.formats)}, {command: None},
            "report format (default: json)" if record.formats[0] == "json" else
            "report format (default: csv, or json for a report fed back)")
      for command, record in _COMMANDS.items()),
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


_HELP_FLAGS = ("-h", "--help")


# What a number reader accepts, for its error message.
_ACCEPTS = {int: "an integer", float: "a number"}


def _help_text(usage: str, about: str, rows: list[tuple[str, str]], footer: str) -> str:
    width = max(len(name) for name, _ in rows) + 2
    lines = [f"usage: {usage}", "", about, ""]
    lines += [f"  {name:<{width}}{text}".rstrip() for name, text in rows]
    return "\n".join([*lines, "", footer, ""])


class Parser(NamedTuple):
    """Reads argv: the command first, then that command's flags by their
    exact names (no abbreviations).  A flag's value is the next token, or
    follows '=' in --flag=value; the last value given wins, except for a
    flag that appends (--axis).  Each value is read by its flag's type as
    it is parsed (see _read), so a malformed one is a one-line usage error
    here, before any config is read."""

    helps: dict[str | None, str]  # the top level's (None) and each command's
    # Per command: the blank namespace, and (key, reader, choices, action) by flag.
    plans: dict[str, tuple[dict[str, None], dict[str, tuple]]]

    def parse(self, argv: Sequence[str]) -> SimpleNamespace | str:
        """The namespace of argv (its command and one attribute per flag of
        that command, None where not given), or the help text that -h or
        --help asks for.  Anything else is a UsageError."""
        if not argv:
            raise UsageError(f"missing command; choose from {', '.join(COMMANDS)}")
        command = argv[0]
        if command in _HELP_FLAGS:
            return self.helps[None]
        if command not in self.plans:
            raise UsageError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
        blank, steps = self.plans[command]
        values = dict(blank)
        tokens = iter(argv[1:])
        for token in tokens:
            if token in _HELP_FLAGS:
                return self.helps[command]
            name, given, text = token.partition("=") if token.startswith("--") else (
                token, "", "")
            step = steps.get(name)
            if step is None:
                if not name.startswith("-"):
                    raise UsageError(f"unexpected argument {token!r}: {command} takes flags only")
                raise UsageError(f"{command} has no flag {name} (flags must match exactly; "
                                 f"see qecopt {command} --help)")
            key, convert, choices, action = step
            if action == "store_true":
                if given:
                    raise UsageError(f"{name} takes no value")
                values[key] = True
                continue
            if not given:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"{name} needs a value")
            value = _read(name, convert, text)
            if choices and value not in choices:
                raise UsageError(f"{name} must be one of {', '.join(choices)}, got {text!r}")
            values[key] = [*(values[key] or ()), value] if action == "append" else value
        return SimpleNamespace(command=command, **values)


@functools.cache
def build_parser() -> Parser:
    """The qecopt parser, built once per process from _IO_PARAMS and PARAMS.
    Parsing leaves it unchanged, so every call to main shares it."""
    plans = {}
    helps: dict[str | None, str] = {None: _help_text(
        f"qecopt {{{','.join(COMMANDS)}}} [flags]",
        "Optimal error correction under scale-dependent noise",
        [(command, record.about) for command, record in _COMMANDS.items()],
        "'qecopt COMMAND --help' lists the flags of a command.")}
    for command, record in _COMMANDS.items():
        params = [p for p in (*_IO_PARAMS, *PARAMS) if command in p.status]
        plans[command] = ({param.key: None for param in params}, {
            param.flag: (param.key, param.type, param.json.get("enum"), param.action)
            for param in params})
        rows = [("-h, --help", "show this help and exit")]
        for param in params:
            name = param.flag
            if "enum" in param.json:
                name += " {" + ",".join(param.json["enum"]) + "}"
            elif param.action != "store_true":
                name += " " + param.key.upper()
            rows.append((name, param.help or ""))
        helps[command] = _help_text(
            f"qecopt {command} [flags]", record.about, rows,
            "Flags must match exactly; a value is the next token or follows "
            "'=' (--flag=value).")
    return Parser(helps, plans)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help text -h or --help asked for
            sys.stdout.write(args)
            return 0
        record = _COMMANDS[args.command]
        config, from_report = _load_config(args.config, args.command)
        # The one format default: JSON for a report fed back, else the command's.
        fmt = args.format or ("json" if from_report else record.formats[0])
        for name in record.modules:  # bound here, once a process, for the handler
            if name not in globals():
                globals()[name] = importlib.import_module(f"{__package__}.{name}")
        cfg, result, table = record.handler(args, config)
        if fmt == "json":
            _emit(_report({"config": cfg, "result": result}, table), args.out)
        else:
            _emit(_csv_table(table), args.out)
        return 0
    except scheme.InputError as exc:
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
