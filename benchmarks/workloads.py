"""Seeded op lists for the four benchmark workloads.

An op is one ``qecopt`` CLI invocation, given as its argv list.  ``build``
returns one round: the fixed-size list a run replays, in the same order,
round after round.  The seed draws only parameter values whose choice does
not change an op's cost (axis ranges, noise parameters, key lengths, decay
exponents); the make-up of a round (op kinds, grid sizes, ``--kcap``,
lattice sizes) is the same for every seed, so rounds from different seeds
cost the same and the medians and tail percentiles land inside the same
class of ops.  The make-up is documented in README.md.
"""

from __future__ import annotations

import math
import random

# The three spellings of a scheme used by the sweeps: the preset name, the
# same constants as an explicit tuple, and a second, smaller scheme.
SCHEMES = ("aliferis2006", "575,291,10000,291,3", "100,50,1000,30,2")


def _g(value: float) -> str:
    """Render a drawn value with all the digits the CLI will parse back."""
    return repr(float(value))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _affine_grid(rng: random.Random, kcap: int, scheme: str, fmt: str) -> list[str]:
    c_max = rng.uniform(2.0, 20.0)
    lo, hi = rng.uniform(0.005, 0.05), rng.uniform(0.5, 0.99)
    return ["sweep", "--scheme", scheme, "--model", "affine",
            "--axis", f"c:0:{_g(c_max)}:20",
            "--axis", f"B_eta0:{_g(lo)}:{_g(hi)}:15",
            "--kcap", str(kcap), "--format", fmt]


def _exp_grid(rng: random.Random, kcap: int, scheme: str, fmt: str) -> list[str]:
    b_lo, b_hi = rng.uniform(0.05, 0.3), rng.uniform(1.0, 3.0)
    e_lo, e_hi = _log_uniform(rng, 1e-14, 1e-11), _log_uniform(rng, 1e-7, 1e-5)
    return ["sweep", "--scheme", scheme, "--model", "exp",
            "--axis", f"beta:{_g(b_lo)}:{_g(b_hi)}:20",
            "--axis", f"eta0:{_g(e_lo)}:{_g(e_hi)}:15:log",
            "--kcap", str(kcap), "--format", fmt]


def _sweeps(rng: random.Random) -> list[list[str]]:
    # 96 ops: 8 single curves at kcap 1000, 8 photon staircases and 80
    # 300-point grids whose cost grows with kcap.  The class sizes put the
    # median inside the kcap-32 class and the tail rank (86 of 96) inside
    # the kcap-64 class, away from the edges between classes.
    ops: list[list[str]] = []
    grid_classes = ((16, 16), (32, 32), (48, 12), (64, 20))
    for kcap, count in grid_classes:
        for i in range(count):
            scheme = SCHEMES[i % 3]
            fmt = ("csv", "json")[(i // 2) % 2]
            grid = _affine_grid if i % 2 == 0 else _exp_grid
            ops.append(grid(rng, kcap, scheme, fmt))
    for i in range(8):
        fmt = ("csv", "json")[i % 2]
        R = round(2.0 ** rng.uniform(6.0, 14.0))
        lo, hi = _log_uniform(rng, 1e3, 1e5), _log_uniform(rng, 1e12, 1e15)
        ops.append(["sweep", "--model", "shor", "--R", str(R),
                    "--axis", f"n_L:{_g(lo)}:{_g(hi)}:40:log",
                    "--kcap", "64", "--format", fmt])
    for i in range(8):
        fmt = ("csv", "json")[(i // 2) % 2]
        if i % 2 == 0:
            model = ["--model", "affine", "--eta0", _g(_log_uniform(rng, 1e-8, 1e-5)),
                     "--c", _g(rng.uniform(0.0, 3.0))]
        else:
            # beta <= 1 keeps 2^1000 * log10 eta(1000) inside float range.
            model = ["--model", "exp", "--eta0", _g(_log_uniform(rng, 1e-12, 1e-6)),
                     "--beta", _g(rng.uniform(0.05, 1.0))]
        ops.append(["optimize", *model, "--kcap", "1000", "--format", fmt])
    rng.shuffle(ops)
    # The first op is the warm-up and the cold-start op: always a kcap-32 grid.
    first = next(i for i, op in enumerate(ops) if op[-3] == "32")
    ops[0], ops[first] = ops[first], ops[0]
    return ops


def _budgets(rng: random.Random) -> list[list[str]]:
    # 240 shor queries, one budget inversion each.  Every fourth sets an
    # explicit --perr, every fourth (offset) an explicit --ptarget, and every
    # fourth (offset) asks for CSV; the rest are default JSON queries.
    ops: list[list[str]] = []
    for i in range(240):
        R = round(2.0 ** rng.uniform(6.0, 14.0))
        op = ["shor", "--R", str(R),
              "--gamma", _g(_log_uniform(rng, 0.1, 100.0)),
              "--omega0", _g(_log_uniform(rng, 1e9, 1e12))]
        if i % 4 == 1:
            op += ["--perr", _g(_log_uniform(rng, 1e-15, 1e-5))]
        elif i % 4 == 2:
            op += ["--ptarget", _g(rng.uniform(0.6, 0.95))]
        elif i % 4 == 3:
            op += ["--format", "csv"]
        ops.append(op)
    rng.shuffle(ops)
    first = next(i for i, op in enumerate(ops) if len(op) == 7)
    ops[0], ops[first] = ops[first], ops[0]
    return ops


def _gates(rng: random.Random) -> list[list[str]]:
    # Four gate channels per round, one per angle class.  Every op costs the
    # same fixed step count, whatever gamma and n_g are drawn.  omega0 is set
    # far above the rotating-wave limit, so no op warns.
    ops = []
    for theta in ("pi", "pi/2", "2pi", _g(rng.uniform(0.3, 6.0))):
        gamma = _log_uniform(rng, 0.1, 10.0)
        # The pi pulse takes large n_g, where p_x * n_g approaches pi^2/16.
        ng = _log_uniform(rng, 1e4, 1e6) if theta == "pi" else _log_uniform(rng, 1e2, 1e6)
        op = ["gatesim", "--theta", theta, "--gamma", _g(gamma), "--ng", _g(ng)]
        if theta in ("pi/2", "2pi"):
            op += ["--omega0", _g(gamma * ng * _log_uniform(rng, 1e3, 1e6))]
        ops.append(op)
    return ops


def _lattice(rng: random.Random) -> list[list[str]]:
    # 96 ops: 12 chain ladders (N0 = 1e4, 1e5, 1e6 at one drawn z), 12 large
    # square ladders (side 500, 1000, 2000 at one drawn z <= 2, centre-site
    # path plus the C_z quadrature), all with --compare; and 24 full-scan
    # squares (side 24, 32, 48, 64; six each).  Side 2000 keeps the oracle's
    # side^2 temporaries near 32 MB each.
    ops: list[list[str]] = []
    for i in range(12):
        z = _g(rng.uniform(0.1, 0.9))
        fmt = ("json", "csv")[i % 2]
        for n0 in (10 ** 4, 10 ** 5, 10 ** 6):
            ops.append(["longrange", "--lattice", "chain", "--z", z,
                        "--N0", str(n0), "--compare", "--format", fmt])
    for i in range(12):
        z = _g(rng.uniform(0.2, 1.8))
        fmt = ("json", "csv")[i % 2]
        for side in (500, 1000, 2000):
            ops.append(["longrange", "--lattice", "square", "--z", z,
                        "--N0", str(side * side), "--compare", "--format", fmt])
    for i in range(24):
        side = (24, 32, 48, 64)[i % 4]
        ops.append(["longrange", "--lattice", "square",
                    "--z", _g(rng.uniform(0.5, 4.0)), "--N0", str(side * side)])
    rng.shuffle(ops)
    first = next(i for i, op in enumerate(ops) if op[6] == str(1000 * 1000))
    ops[0], ops[first] = ops[first], ops[0]
    return ops


_OP_LISTS = {"sweeps": _sweeps, "budgets": _budgets, "gates": _gates,
             "lattice": _lattice}
WORKLOADS = tuple(_OP_LISTS)


def build(workload: str, seed: int) -> list[list[str]]:
    """One round of ``workload``'s ops; the same seed gives the same list."""
    if workload not in _OP_LISTS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _OP_LISTS[workload](random.Random(f"{workload}:{seed}"))
