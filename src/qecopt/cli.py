"""Command-line front end.

Subcommands: optimize, sweep, gatesim, longrange, shor, fit.  Every report
embeds the fully resolved computation parameters under "config", so a report
can be fed back via --config and reproduces itself; identical invocations
produce byte-identical files.  Probability-like columns are emitted as log10
values (``_log10`` suffix); linear values appear only where representable.

Exit codes: 0 success, 1 computational infeasibility, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import Any, Sequence

import jsonschema

from . import crosstalk, gatesim, optimizer, scheme, shor

COMMANDS = ("optimize", "sweep", "gatesim", "longrange", "shor", "fit")

_AXIS_SCHEMA = {
    "type": "object",
    "properties": {
        "param": {"type": "string"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "count": {"type": "integer", "minimum": 1},
        "spacing": {"enum": ["linear", "log"]},
    },
    "required": ["param", "min", "max", "count"],
    "additionalProperties": False,
}

# Published schema for --config files (also accepts a full report, whose
# "config" member is then used).
CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "scheme": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "properties": {
                        "A": {"type": "integer"},
                        "A_prime": {"type": "integer"},
                        "B": {"type": "integer"},
                        "D": {"type": "integer"},
                        "M": {"type": "integer"},
                    },
                    "required": ["A", "A_prime", "B", "D", "M"],
                    "additionalProperties": False,
                },
            ]
        },
        "model": {"enum": ["affine", "exp", "table", "shor"]},
        "eta0": {"type": "number"},
        "c": {"type": "number"},
        "beta": {"type": "number"},
        "f_values": {"type": "array", "items": {"type": "number"}},
        "L": {"type": "integer"},
        "ntot": {"type": "number"},
        "A": {"type": "number"},
        "kcap": {"type": "integer", "minimum": 1},
        "axes": {"type": "array", "items": _AXIS_SCHEMA, "maxItems": 2},
        "theta": {"type": "number"},
        "gamma": {"type": "number"},
        "ng": {"type": "number"},
        "omega0": {"type": ["number", "null"]},
        "lattice": {"enum": ["chain", "square"]},
        "z": {"type": "number"},
        "N0": {"type": "integer"},
        "kappa": {"type": "number"},
        "compare": {"type": "boolean"},
        "R": {"type": "integer"},
        "nL": {"type": ["number", "null"]},
        "ptarget": {"type": "number"},
        "perr": {"type": ["number", "null"]},
        "nlcap": {"type": "number"},
        "samples": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
        },
        "variant": {"enum": ["affine", "exponential"]},
        "D": {"type": ["number", "null"]},
    },
    "additionalProperties": False,
}


class UsageError(ValueError):
    """Bad arguments or configuration (exit code 2)."""


def _parse_theta(text: str) -> float:
    """Angles as plain floats or simple pi expressions: 'pi', 'pi/2', '2pi'."""
    cleaned = text.strip().lower().replace(" ", "")
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
                raise UsageError(f"cannot parse angle {text!r}")
            denominator = float(tail[1:])
            if denominator == 0.0:
                raise UsageError(f"angle {text!r} divides by zero")
            factor /= denominator
        return factor * math.pi
    raise UsageError(f"cannot parse angle {text!r}")


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


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, dict) and "config" in data and "result" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    try:
        jsonschema.validate(data, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise UsageError(f"config does not match the schema: {exc.message}") from exc
    return data


def _resolve(args: argparse.Namespace, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"missing required parameter {flag}")
    return value


def _build_model(cfg: dict) -> scheme.NoiseModel:
    kind = cfg["model"]
    if kind == "affine":
        return scheme.AffineNoise(eta0=cfg["eta0"], c=cfg.get("c", 0.0))
    if kind == "exp":
        return scheme.ExponentialNoise(eta0=cfg["eta0"], beta=cfg["beta"])
    if kind == "table":
        return scheme.TabulatedNoise(eta0=cfg["eta0"],
                                     f_values=tuple(cfg["f_values"]))
    if kind == "shor":
        return scheme.ShorPhotonNoise(L=cfg["L"], n_tot=cfg["ntot"], A=cfg["A"])
    raise UsageError(f"unknown model kind {kind!r}")


def _optimize_config(args: argparse.Namespace, config: dict) -> dict:
    model = _resolve(args, config, "model")
    model = _require(model, "--model")
    cfg: dict[str, Any] = {
        "command": "optimize",
        "scheme": _scheme_config(_resolve(args, config, "scheme", "aliferis2006")),
        "model": model,
        "kcap": int(_resolve(args, config, "kcap", optimizer.DEFAULT_K_CAP)),
    }
    if model in ("affine", "exp", "table"):
        cfg["eta0"] = float(_require(_resolve(args, config, "eta0"), "--eta0"))
    if model == "affine":
        cfg["c"] = float(_resolve(args, config, "c", 0.0))
    elif model == "exp":
        cfg["beta"] = float(_require(_resolve(args, config, "beta"), "--beta"))
    elif model == "table":
        f_values = _resolve(args, config, "f_values")
        if isinstance(f_values, str):
            f_values = [float(v) for v in f_values.split(",")]
        cfg["f_values"] = _require(f_values, "--f-values")
    elif model == "shor":
        cfg["L"] = int(_require(_resolve(args, config, "L"), "--L"))
        cfg["ntot"] = float(_require(_resolve(args, config, "ntot"), "--ntot"))
        sch = _parse_scheme(cfg["scheme"])
        a = _resolve(args, config, "A")
        cfg["A"] = float(a) if a is not None else float(sch.D)
    return cfg


def _run_optimize_core(cfg: dict) -> tuple[optimizer.OptResult, dict]:
    """The k-scan of one optimize configuration and its full report."""
    sch = _parse_scheme(cfg["scheme"])
    model = _build_model(cfg)
    result = optimizer.find_kmax(sch, model, k_cap=cfg["kcap"])
    report: dict[str, Any] = result.to_dict()
    if isinstance(model, scheme.ExponentialNoise):
        report["bounds"] = optimizer.exp_model_bounds(
            sch, model.eta0, model.beta
        ).to_dict() if model.beta > 0 else None
    if isinstance(model, scheme.AffineNoise):
        c_star = optimizer.affine_usefulness_threshold(sch.B, model.eta0)
        report["usefulness_c_star"] = c_star
        report["no_c_helps"] = c_star == 0.0
    return result, report


def cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _optimize_config(args, _load_config(args.config))
    result, report = _run_optimize_core(cfg)
    if args.format == "csv":
        _emit(optimizer.curve_to_csv(result), args.out)
    else:
        _emit(_dump_json({"config": cfg, "result": report}), args.out)
    return 0


_SWEEPABLE = ("eta0", "c", "beta", "B_eta0", "n_L")


def _axis_values(axis: dict) -> list[float]:
    lo, hi, count = float(axis["min"]), float(axis["max"]), int(axis["count"])
    spacing = axis.get("spacing", "linear")
    if count < 1:
        raise UsageError("axis count must be >= 1")
    if hi < lo:
        raise UsageError("axis max must be >= min")
    if count == 1:
        return [lo]
    if spacing == "log":
        if lo <= 0:
            raise UsageError("log axis needs min > 0")
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return [lo * ratio ** i for i in range(count)]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _sweep_config(args: argparse.Namespace, config: dict) -> dict:
    axes = _resolve(args, config, "axes")
    if axes is None and getattr(args, "axis", None):
        axes = []
        for text in args.axis:
            parts = text.split(":")
            if len(parts) not in (4, 5):
                raise UsageError("axis format is param:min:max:count[:spacing]")
            axes.append(
                {
                    "param": parts[0],
                    "min": float(parts[1]),
                    "max": float(parts[2]),
                    "count": int(parts[3]),
                    "spacing": parts[4] if len(parts) == 5 else "linear",
                }
            )
    if not axes:
        raise UsageError("sweep needs at least one axis (--axis or config)")
    if len(axes) > 2:
        raise UsageError("at most 2 sweep axes are supported")
    for axis in axes:
        if axis["param"] not in _SWEEPABLE:
            raise UsageError(
                f"cannot sweep {axis['param']!r}; choose from {_SWEEPABLE}"
            )

    model = _resolve(args, config, "model")
    cfg: dict[str, Any] = {
        "command": "sweep",
        "scheme": _scheme_config(_resolve(args, config, "scheme", "aliferis2006")),
        "model": _require(model, "--model"),
        "kcap": int(_resolve(args, config, "kcap", optimizer.DEFAULT_K_CAP)),
        "axes": axes,
    }
    swept = {axis["param"] for axis in axes}
    if cfg["model"] == "table":
        raise UsageError("sweep does not support --model table")
    if "n_L" in swept and cfg["model"] != "shor":
        raise UsageError("only --model shor sweeps n_L")
    if cfg["model"] == "shor":
        cfg["R"] = int(_require(_resolve(args, config, "R"), "--R"))
        if "n_L" not in swept:
            raise UsageError("shor sweeps vary n_L")
    else:
        if "eta0" not in swept and "B_eta0" not in swept:
            cfg["eta0"] = float(_require(_resolve(args, config, "eta0"), "--eta0"))
        if cfg["model"] == "affine" and "c" not in swept:
            cfg["c"] = float(_resolve(args, config, "c", 0.0))
        if cfg["model"] == "exp" and "beta" not in swept:
            cfg["beta"] = float(_require(_resolve(args, config, "beta"), "--beta"))
    return cfg


def _sweep_point(cfg: dict, assignment: dict[str, float]) -> dict:
    sch = _parse_scheme(cfg["scheme"])
    point = {k: v for k, v in cfg.items() if k not in ("axes", "command")}
    for param, value in assignment.items():
        if param == "B_eta0":
            point["eta0"] = value / sch.B
        elif param == "n_L":
            problem = shor.ShorProblem(R=point["R"])
            point["L"] = problem.L
            point["ntot"] = value * problem.L
            point["A"] = float(sch.D)
        else:
            point[param] = value
    return _run_optimize_core(point)[1]


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _sweep_config(args, _load_config(args.config))
    axes = cfg["axes"]
    grids = [_axis_values(axis) for axis in axes]
    names = [axis["param"] for axis in axes]

    rows: list[dict[str, Any]] = []
    if len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:  # outer (first) axis slowest
        points = [(u, v) for u in grids[0] for v in grids[1]]
    for values in points:
        assignment = dict(zip(names, values))
        result = _sweep_point(cfg, assignment)
        row: dict[str, Any] = dict(assignment)
        row["k_max"] = result["k_max"]
        row["log10_p_min"] = result["log10_p_min"]
        row["status"] = result["status"]
        rows.append(row)

    if args.format == "csv" or args.format is None:
        header = ",".join(names + ["k_max", "log10_p_min", "status"])
        lines = [header]
        for row in rows:
            cells = [repr(float(row[n])) for n in names]
            cells += [str(row["k_max"]), repr(row["log10_p_min"]), row["status"]]
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_dump_json({"config": cfg, "result": {"rows": rows}}), args.out)
    return 0


def cmd_gatesim(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise UsageError("gatesim reports are JSON only")
    config = _load_config(args.config)
    theta = _resolve(args, config, "theta")
    theta = _parse_theta(theta) if isinstance(theta, str) else theta
    cfg = {
        "command": "gatesim",
        "theta": float(_require(theta, "--theta")),
        "gamma": float(_require(_resolve(args, config, "gamma"), "--gamma")),
        "ng": float(_require(_resolve(args, config, "ng"), "--ng")),
        "omega0": _resolve(args, config, "omega0"),
    }
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


def cmd_longrange(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    cfg = {
        "command": "longrange",
        "lattice": _require(_resolve(args, config, "lattice"), "--lattice"),
        "z": float(_require(_resolve(args, config, "z"), "--z")),
        "N0": int(_require(_resolve(args, config, "N0"), "--N0")),
        "kappa": float(_resolve(args, config, "kappa", 1.0)),
        "compare": bool(_resolve(args, config, "compare", False)),
    }
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


def cmd_shor(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    cfg = {
        "command": "shor",
        "scheme": _scheme_config(_resolve(args, config, "scheme", "aliferis2006")),
        "R": int(_require(_resolve(args, config, "R"), "--R")),
        "gamma": float(_require(_resolve(args, config, "gamma"), "--gamma")),
        "omega0": float(_require(_resolve(args, config, "omega0"), "--omega0")),
        "nL": _resolve(args, config, "nL"),
        "ptarget": float(_resolve(args, config, "ptarget", 2.0 / 3.0)),
        "perr": _resolve(args, config, "perr"),
        "nlcap": float(_resolve(args, config, "nlcap", shor.N_L_SEARCH_CAP)),
    }
    sch = _parse_scheme(cfg["scheme"])
    problem = shor.ShorProblem(R=cfg["R"], P_target=cfg["ptarget"])
    p_err = cfg["perr"] if cfg["perr"] is not None else shor.target_logical_error(problem)

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
        n_L = budget.n_L
    else:
        n_L = float(cfg["nL"])
    opt = shor.optimize_photon_budget(problem, n_L, sch)
    k = opt.k_max
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
            "log10_p_min": opt.log10_p_min.log10_value,
            "meets_target": opt.log10_p_min.log10_value <= math.log10(p_err),
            "rwa_margin": margin,
            "rwa_marginal": margin <= shor.RWA_MARGINAL_RATIO,
        }
    )
    _emit(_dump_json({"config": cfg, "result": result}), args.out)
    return 0


def _parse_samples(text: str) -> list[list[float]]:
    samples = []
    for chunk in text.split(","):
        k, _, eta = chunk.partition(":")
        if not eta:
            raise UsageError("samples format is k:eta,k:eta,...")
        samples.append([float(k), float(eta)])
    return samples


def cmd_fit(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise UsageError("fit reports are JSON only")
    config = _load_config(args.config)
    samples = _resolve(args, config, "samples")
    if isinstance(samples, str):
        samples = _parse_samples(samples)
    if samples is None and getattr(args, "infile", None):
        lines = Path(args.infile).read_text(encoding="utf-8").strip().splitlines()
        if lines and lines[0].lower().startswith("k,"):
            lines = lines[1:]
        samples = [[float(a) for a in line.split(",")] for line in lines]
    cfg = {
        "command": "fit",
        "samples": _require(samples, "--samples"),
        "variant": _require(_resolve(args, config, "variant"), "--variant"),
        "D": _resolve(args, config, "D"),
    }
    fit = scheme.fit_noise_model(
        [tuple(s) for s in cfg["samples"]], cfg["variant"], D=cfg["D"]
    )
    result = {
        "model": scheme.model_to_dict(fit.model),
        "residual": fit.residual,
        "n_points": fit.n_points,
    }
    _emit(_dump_json({"config": cfg, "result": result}), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qecopt parser, built once per process.  Parsing leaves it
    unchanged, so every call to main shares it."""
    parser = argparse.ArgumentParser(
        prog="qecopt",
        description="Optimal error correction under scale-dependent noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_format: str | None = "json"):
        p.add_argument("--scheme", help="preset name or A,A_prime,B,D,M")
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--config", help="JSON config file (or a prior report)")

    p_opt = sub.add_parser("optimize", help="scan the logical-error curve")
    common(p_opt)
    p_opt.add_argument("--model", choices=("affine", "exp", "table", "shor"))
    p_opt.add_argument("--eta0", type=float)
    p_opt.add_argument("--c", type=float)
    p_opt.add_argument("--beta", type=float)
    p_opt.add_argument("--f-values", dest="f_values")
    p_opt.add_argument("--L", type=int)
    p_opt.add_argument("--ntot", type=float)
    p_opt.add_argument("--A", type=float)
    p_opt.add_argument("--kcap", type=int)
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="grid sweep emitting one row per point")
    common(p_sweep, default_format=None)
    p_sweep.add_argument("--model", choices=("affine", "exp", "table", "shor"))
    p_sweep.add_argument("--eta0", type=float)
    p_sweep.add_argument("--c", type=float)
    p_sweep.add_argument("--beta", type=float)
    p_sweep.add_argument("--R", type=int)
    p_sweep.add_argument("--kcap", type=int)
    p_sweep.add_argument(
        "--axis", action="append", help="param:min:max:count[:spacing], up to twice"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_gate = sub.add_parser("gatesim", help="simulate the driven-qubit gate")
    common(p_gate)
    p_gate.add_argument("--theta", help="radians, or pi / pi/2 / 2pi")
    p_gate.add_argument("--gamma", type=float)
    p_gate.add_argument("--ng", type=float)
    p_gate.add_argument("--omega0", type=float)
    p_gate.set_defaults(func=cmd_gatesim)

    p_lr = sub.add_parser("longrange", help="lattice crosstalk strength")
    common(p_lr)
    p_lr.add_argument("--lattice", choices=("chain", "square"))
    p_lr.add_argument("--z", type=float)
    p_lr.add_argument("--N0", type=int)
    p_lr.add_argument("--kappa", type=float)
    p_lr.add_argument("--compare", action="store_true", default=None)
    p_lr.set_defaults(func=cmd_longrange)

    p_shor = sub.add_parser("shor", help="photon budget and energy bill")
    common(p_shor)
    p_shor.add_argument("--R", type=int)
    p_shor.add_argument("--gamma", type=float)
    p_shor.add_argument("--omega0", type=float)
    p_shor.add_argument("--nL", type=float)
    p_shor.add_argument("--ptarget", type=float)
    p_shor.add_argument("--perr", type=float, help="explicit per-gate error target")
    p_shor.add_argument("--nlcap", type=float, help="search cap on n_L")
    p_shor.set_defaults(func=cmd_shor)

    p_fit = sub.add_parser("fit", help="fit a noise law to (k, eta) samples")
    common(p_fit)
    p_fit.add_argument("--samples", help="k:eta,k:eta,...")
    p_fit.add_argument("--in", dest="infile", help="CSV file with k,eta rows")
    p_fit.add_argument("--variant", choices=("affine", "exponential"))
    p_fit.add_argument("--D", type=float)
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
