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

Exit codes: 0 success, 1 computational infeasibility, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import crosstalk, gatesim, optimizer, scheme, shor

COMMANDS = ("optimize", "sweep", "gatesim", "longrange", "shor", "fit")

# Most grid points one sweep may take, per axis and in total.
MAX_SWEEP_POINTS = 10 ** 6
# Curve values a sweep evaluates at once (points x levels): 1 MB of floats.
SWEEP_BLOCK = 1 << 17


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
    Param("L", "--L", int, INTEGER, {"optimize": REQUIRED}),
    Param("ntot", "--ntot", float, NUMBER, {"optimize": REQUIRED}),
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
    Param("nL", "--nL", float, NUMBER, {"shor": None}),
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


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from exc


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    import jsonschema  # only a run with --config pays for the import

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "result" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    try:
        jsonschema.validate(data, CONFIG_SCHEMA[command])
    except jsonschema.ValidationError as exc:
        raise UsageError(
            f"config does not match the {command} schema: {exc.message}"
        ) from exc
    return data


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


def cmd_optimize(args: argparse.Namespace, config: dict) -> int:
    cfg = _settings(args, config, ("scheme", "model", "kcap"))
    _settings(args, config, scheme.MODEL_FIELDS[cfg["model"]], cfg)
    sch = _parse_scheme(cfg["scheme"])
    model = scheme.model_from_dict(cfg)
    result = optimizer.find_kmax(sch, model, k_cap=cfg["kcap"])
    if args.format == "csv":
        _emit(optimizer.curve_to_csv(result), args.out)
        return 0
    report: dict[str, Any] = result.to_dict()
    if isinstance(model, scheme.ExponentialNoise):
        report["bounds"] = optimizer.exp_model_bounds(
            sch, model.eta0, model.beta
        ).to_dict() if model.beta > 0 else None
    if isinstance(model, scheme.AffineNoise):
        c_star = optimizer.affine_usefulness_threshold(sch.B, model.eta0)
        report["usefulness_c_star"] = c_star
        report["no_c_helps"] = c_star == 0.0
    _emit(_dump_json({"config": cfg, "result": report}), args.out)
    return 0


_SWEEPABLE = ("eta0", "c", "beta", "B_eta0", "n_L")


def _axis_values(axis: dict) -> list[float]:
    lo, hi, count = float(axis["min"]), float(axis["max"]), int(axis["count"])
    spacing = axis.get("spacing", "linear")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("axis min and max must be finite")
    if hi < lo:
        raise UsageError("axis max must be >= min")
    if count == 1:
        return [lo]
    if spacing == "log":
        if lo <= 0:
            raise UsageError("log axis needs min > 0")
        ratio = (hi / lo) ** (1.0 / (count - 1))
        values = [lo * ratio ** i for i in range(count)]
    else:
        step = (hi - lo) / (count - 1)
        values = [lo + step * i for i in range(count)]
    # The grid is monotone, so its last value overflows first (to inf or NaN).
    if not math.isfinite(values[-1]):
        raise UsageError("axis spacing overflows float range")
    return values


def _sweep_minima(sch: scheme.FTScheme, point: dict, axes: list[dict],
                  values: list[list[float]], kcap: int) -> tuple[list, list]:
    """k_max and log10 p_min at every grid point, outer axis slowest.

    point holds the law's fixed fields; the grid is evaluated in blocks of at
    most SWEEP_BLOCK curve values, and in each block every swept field of
    point is an array along its own axis, so the law family takes each
    logarithm once per distinct value.
    """
    ks = optimizer.levels(kcap)
    shape = [len(v) for v in values]
    inner = min(shape[-1], max(1, SWEEP_BLOCK // ks.size))
    chunks = [max(1, SWEEP_BLOCK // (inner * ks.size))] * (len(shape) - 1) + [inner]
    k_max, p_min = np.empty(shape, dtype=int), np.empty(shape)
    for starts in itertools.product(*(range(0, n, c) for n, c in zip(shape, chunks))):
        block = tuple(slice(s, s + c) for s, c in zip(starts, chunks))
        for i, (axis, vals) in enumerate(zip(axes, values)):
            # A later axis on the same field overrides an earlier one.
            field = np.asarray(vals[block[i]]).reshape(
                [-1 if d == i else 1 for d in range(len(shape))] + [1])
            if axis["param"] == "B_eta0":
                point["eta0"] = field / sch.B
            elif axis["param"] == "n_L":
                point["ntot"] = field * point["L"]
            else:
                point[axis["param"]] = field
        k_max[block], p_min[block] = optimizer.first_minima(
            optimizer.log10_curve(sch, scheme.model_from_dict(point), ks))
    return k_max.ravel().tolist(), p_min.ravel().tolist()


def cmd_sweep(args: argparse.Namespace, config: dict) -> int:
    cfg = _settings(args, config, ("scheme", "model", "kcap", "axes"))
    axes, model = cfg["axes"], cfg["model"]
    if not axes:
        raise UsageError("sweep needs at least one axis (--axis or config)")
    if len(axes) > 2:
        raise UsageError("at most 2 sweep axes are supported")
    for axis in axes:
        if axis["param"] not in _SWEEPABLE:
            raise UsageError(
                f"cannot sweep {axis['param']!r}; choose from {_SWEEPABLE}"
            )
        if not 1 <= int(axis["count"]) <= MAX_SWEEP_POINTS:
            raise UsageError(f"axis count must lie in [1, {MAX_SWEEP_POINTS}]")
    if math.prod(int(axis["count"]) for axis in axes) > MAX_SWEEP_POINTS:
        raise UsageError(f"a sweep takes at most {MAX_SWEEP_POINTS} grid points")
    # B_eta0 sets eta0; n_L sets the photon law's ntot.
    swept = {"eta0" if a["param"] == "B_eta0" else a["param"] for a in axes}
    if model == "table":
        raise UsageError("sweep does not support --model table")
    if "n_L" in swept and model != "shor":
        raise UsageError("only --model shor sweeps n_L")
    if model == "shor":
        if "n_L" not in swept:
            raise UsageError("shor sweeps vary n_L")
        _settings(args, config, ("R",), cfg)
    else:
        fixed = [key for key in scheme.MODEL_FIELDS[model] if key not in swept]
        _settings(args, config, fixed, cfg)

    sch = _parse_scheme(cfg["scheme"])
    point = dict(cfg)  # model_from_dict reads only the model's fields
    if model == "shor":
        point.update(L=shor.ShorProblem(R=cfg["R"]).L, A=float(sch.D))
    values = [_axis_values(axis) for axis in axes]
    k_max, p_min = _sweep_minima(sch, point, axes, values, cfg["kcap"])
    status = [optimizer.scan_status(k, cfg["kcap"]) for k in k_max]
    names = [axis["param"] for axis in axes]

    if args.format == "csv" or args.format is None:
        texts = itertools.product(*([repr(v) for v in vals] for vals in values))
        lines = [",".join(names + ["k_max", "log10_p_min", "status"])]
        for cells, k, p, s in zip(texts, k_max, p_min, status):
            row = dict(zip(names, cells))  # a repeated axis shows its later values
            lines.append(",".join([*(row[n] for n in names), str(k), repr(p), s]))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        rows = [dict(zip(names, assignment), k_max=k, log10_p_min=p, status=s)
                for assignment, k, p, s
                in zip(itertools.product(*values), k_max, p_min, status)]
        _emit(_dump_json({"config": cfg, "result": {"rows": rows}}), args.out)
    return 0


def cmd_gatesim(args: argparse.Namespace, config: dict) -> int:
    if args.format == "csv":
        raise UsageError("gatesim reports are JSON only")
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
            "rwa_marginal": spec.rwa_margin <= shor.RWA_MARGINAL_RATIO,
        }
    )
    _emit(_dump_json({"config": cfg, "result": result}), args.out)
    return 0


def cmd_longrange(args: argparse.Namespace, config: dict) -> int:
    cfg = _settings(args, config)
    spec = crosstalk.LatticeSpec(
        d=1 if cfg["lattice"] == "chain" else 2,
        z=cfg["z"],
        N0=cfg["N0"],
        aspect=cfg["lattice"],
    )
    oracle = crosstalk.delta_lattice_oracle(spec)
    result: dict[str, Any] = {"oracle": oracle}
    if cfg["compare"]:
        asym = crosstalk.delta0_asymptotic(spec, kappa=cfg["kappa"])
        result["asymptotic"] = asym
        result["rel_err"] = abs(asym - oracle) / oracle
    if args.format == "csv":
        if not cfg["compare"]:
            raise UsageError("csv output requires --compare")
        _emit(
            crosstalk.compare_to_csv([(cfg["N0"], oracle, result["asymptotic"])]),
            args.out,
        )
    else:
        _emit(_dump_json({"config": cfg, "result": result}), args.out)
    return 0


def cmd_shor(args: argparse.Namespace, config: dict) -> int:
    cfg = _settings(args, config)
    sch = _parse_scheme(cfg["scheme"])
    problem = shor.ShorProblem(R=cfg["R"], P_target=cfg["ptarget"])
    p_err = shor.error_target(problem, cfg["perr"])
    shor.search_cap(cfg["nlcap"])  # echoed in every report, so checked on both paths

    if cfg["nL"] is None:
        budget = shor.min_photon_budget(
            problem, sch, p_err=cfg["perr"], n_L_cap=cfg["nlcap"]
        )
        if not budget.feasible:
            sys.stderr.write(
                f"shor: target error {p_err:.3e} unreachable within "
                f"n_L <= {cfg['nlcap']:.0e}\n"
            )
            return 1
        n_L, k, log10_p_min = budget.n_L, budget.k, budget.log10_p_min
    else:
        n_L = cfg["nL"]
        opt = shor.optimize_photon_budget(problem, n_L, sch)
        k, log10_p_min = opt.k_max, opt.log10_p_min
    bill = shor.energy_bill(problem, n_L, k, cfg["gamma"], cfg["omega0"], sch)
    margin = shor.rwa_margin(n_L, k, cfg["gamma"], cfg["omega0"], sch)

    if args.format == "csv":
        _emit(
            shor.bill_csv_header() + "\n" + shor.bill_to_csv_row(cfg["R"], bill) + "\n",
            args.out,
        )
        return 0
    result = bill.to_dict()
    result.update(
        {
            "R": cfg["R"],
            "L": problem.L,
            "p_err_target": p_err,
            "log10_p_min": log10_p_min.log10_value,
            "meets_target": log10_p_min.log10_value <= math.log10(p_err),
            "rwa_margin": margin,
            "rwa_marginal": margin <= shor.RWA_MARGINAL_RATIO,
        }
    )
    _emit(_dump_json({"config": cfg, "result": result}), args.out)
    return 0


def _read_samples(path: str) -> list[list[float]]:
    """(k, eta) rows of a CSV file, with an optional 'k,...' header."""
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read samples {path}: {exc.strerror}") from exc
    if lines and lines[0].lower().startswith("k,"):
        lines = lines[1:]
    return [[float(a) for a in line.split(",")] for line in lines]


def cmd_fit(args: argparse.Namespace, config: dict) -> int:
    if args.format == "csv":
        raise UsageError("fit reports are JSON only")
    if args.samples is None and args.infile is not None:
        args.samples = _read_samples(args.infile)  # --in stands for --samples
    cfg = _settings(args, config)
    fit = scheme.fit_noise_model(
        [tuple(s) for s in cfg["samples"]], cfg["model"], D=cfg["D"]
    )
    result = {
        "model": scheme.model_to_dict(fit.model),
        "residual": fit.residual,
        "n_points": fit.n_points,
    }
    _emit(_dump_json({"config": cfg, "result": result}), args.out)
    return 0


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
        return args.func(args, _load_config(args.config, args.command))
    except (UsageError, ValueError, TypeError) as exc:
        sys.stderr.write(f"qecopt: {exc}\n")
        return 2
    except RuntimeError as exc:
        sys.stderr.write(f"qecopt: {exc}\n")
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
