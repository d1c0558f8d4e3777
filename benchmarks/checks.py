"""Output checks made apart from the program.

Each workload's checker takes the round's ops and the report each op
printed, and returns a list of failure messages (empty when every output
holds).  The references are the benchmark's own evaluations of the paper's
formulas and of the physics, written without calling into ``qecopt``; the
one exception is the budget re-scan, which by design asks the program's own
``optimize_photon_budget`` whether the returned budget is the minimum.
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

HBAR = 1.054571817e-34  # J*s (CODATA 2018)
PI_SQ_OVER_16 = math.pi ** 2 / 16.0
# (A, A_prime, B, D, M) of the concatenated 7-qubit code, Aliferis et al. 2006.
ALIFERIS2006 = (575, 291, 10_000, 291, 3)

# Relative agreement asked of log-space curve values, measured against the
# size of the terms that enter them, so that the test is tight where the
# value is large and does not fail on the cancellation near B*eta = 1.
CURVE_REL = 1e-10
EXACT_REL = 1e-12   # identities that hold by construction
PTM_ABS = 1e-9      # gate channel against the exact propagator
LATTICE_REL = 1e-9  # lattice sums against the benchmark's own sums


def flags(argv: list[str]) -> dict:
    """``--name value`` pairs of an op; a flag with no value maps to True and
    a repeated flag (``--axis``) to the list of its values."""
    out: dict = {"command": argv[0]}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value, i = argv[i + 1], i + 2
        else:
            value, i = True, i + 1
        if name == "axis":
            out.setdefault("axis", []).append(value)
        else:
            out[name] = value
    return out


def scheme_constants(text: str) -> tuple[int, int, int, int, int]:
    if text == "aliferis2006":
        return ALIFERIS2006
    A, A_prime, B, D, M = (int(v) for v in text.split(","))
    return A, A_prime, B, D, M


def rel_close(a: float, b: float, rel: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


# ---------------------------------------------------------------- sweeps


def reference_curve(log_b: float, log_eta, kcap: int) -> list[tuple[float, float]]:
    """(log10 p(k), term scale) for k = 0..kcap, where
    p(k) = (1/B)(B eta(k))^(2^k), i.e. log10 p = (2^k - 1) log10 B + 2^k log10 eta(k)."""
    out = []
    for k in range(kcap + 1):
        le = log_eta(k)
        if k == 0:
            out.append((le, abs(le)))
        else:
            two_k = 2.0 ** k
            out.append(((two_k - 1.0) * log_b + two_k * le,
                        two_k * (abs(log_b) + abs(le))))
    return out


def first_argmin(values: list[float]) -> int:
    best = 0
    for i, v in enumerate(values):
        if v < values[best]:
            best = i
    return best


def check_scan(curve, kcap: int, k_max: int, log10_p_min: float,
               status: str | None, where: str) -> list[str]:
    """The program's optimum against the reference curve's first argmin."""
    values = [v for v, _ in curve]
    k_ref = first_argmin(values)
    errors = []
    if not 0 <= k_max <= kcap:
        return [f"{where}: k_max {k_max} outside 0..{kcap}"]
    if k_max != k_ref and not rel_close(values[k_max], values[k_ref], CURVE_REL,
                                        max(curve[k_max][1], curve[k_ref][1])):
        errors.append(f"{where}: k_max {k_max}, reference argmin {k_ref}")
    if not rel_close(log10_p_min, values[k_max], CURVE_REL, curve[k_max][1]):
        errors.append(f"{where}: log10_p_min {log10_p_min!r}, reference {values[k_max]!r}")
    if status is not None:
        want = ("unbounded-improvement" if k_max == kcap
                else "no-encoding-best" if k_max == 0 else "optimum-found")
        if status != want:
            errors.append(f"{where}: status {status!r} at k_max={k_max}, kcap={kcap}")
    return errors


def exp_bounds(B: float, D: float, eta0: float, beta: float) -> dict:
    """The paper's closed forms for eta(k) = eta0 D^(beta k)."""
    ln_b_eta0 = math.log(B) + math.log(eta0)
    g2 = math.log(2.0) / math.log(D)
    g1 = math.log(D) / 2.0
    ln_lower = -math.log(B) - (beta / g2) * math.exp(-1.0 - g2 * ln_b_eta0 / beta)
    ln_upper = -math.log(B) - g1 * beta * math.exp(-g2 * ln_b_eta0 / beta)
    return {
        "k_st": -1.0 / math.log(2.0) - ln_b_eta0 / (beta * math.log(D)),
        "k_tilde": -ln_b_eta0 / (beta * math.log(D)) - 1.0,
        "log10_p_lower": ln_lower / math.log(10.0),
        "log10_p_upper": ln_upper / math.log(10.0),
        "useful": eta0 < math.exp(-math.log(B) - 2.0 * beta * math.log(D)),
    }


def affine_c_star(B: float, eta0: float) -> float:
    b_eta = B * eta0
    return 0.0 if b_eta >= 1.0 else 1.0 / math.sqrt(b_eta) - 1.0


def _axis_grid(text: str) -> tuple[str, list[float]]:
    parts = text.split(":")
    lo, hi, count = float(parts[1]), float(parts[2]), int(parts[3])
    if len(parts) == 5 and parts[4] == "log":
        values = np.geomspace(lo, hi, count)
    else:
        values = np.linspace(lo, hi, count)
    return parts[0], [float(v) for v in values]


def _sweep_rows(f: dict, text: str) -> list[dict]:
    names = [a.split(":")[0] for a in f["axis"]]
    if f.get("format") == "json":
        return json.loads(text)["result"]["rows"]
    lines = text.strip().split("\n")
    if lines[0] != ",".join(names + ["k_max", "log10_p_min", "status"]):
        raise ValueError(f"unexpected sweep header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        row = {n: float(c) for n, c in zip(names, cells)}
        row.update(k_max=int(cells[-3]), log10_p_min=float(cells[-2]), status=cells[-1])
        rows.append(row)
    return rows


def _point_model(f: dict, row: dict, B: float, D: float, growth: float):
    """Noise parameters of one grid point and its log10 eta(k)."""
    p = {k: float(f[k]) for k in ("eta0", "c", "beta") if k in f}
    p.update({k: v for k, v in row.items() if k in ("eta0", "c", "beta", "n_L")})
    if "B_eta0" in row:
        p["eta0"] = row["B_eta0"] / B
    model = f["model"]
    if model == "affine":
        p.setdefault("c", 0.0)
        return p, lambda k: math.log10(p["eta0"]) + math.log10(1.0 + p["c"] * k)
    if model == "exp":
        return p, lambda k: math.log10(p["eta0"]) + p["beta"] * k * math.log10(D)
    # Photon budget: n_L photons per logical gate spread over growth^k
    # physical gates, each failing with pi^2/16 per photon.
    return p, lambda k: (math.log10(PI_SQ_OVER_16) + k * math.log10(growth)
                         - math.log10(p["n_L"]))


def check_sweep(op: list[str], text: str, growth: float) -> list[str]:
    f = flags(op)
    _, _, B, D, _ = scheme_constants(f.get("scheme", "aliferis2006"))
    kcap = int(f["kcap"])
    where = " ".join(op[:5])
    rows = _sweep_rows(f, text)
    grids = [_axis_grid(a) for a in f["axis"]]
    points = list(itertools.product(*[values for _, values in grids]))
    if len(rows) != len(points):
        return [f"{where}: {len(rows)} rows, expected {len(points)}"]
    errors: list[str] = []
    for row, point in zip(rows, points):
        for (name, _), value in zip(grids, point):
            if not rel_close(row[name], value, 1e-9):
                errors.append(f"{where}: axis {name} = {row[name]!r}, expected {value!r}")
        p, log_eta = _point_model(f, row, B, D, growth)
        curve = reference_curve(math.log10(B), log_eta, kcap)
        k_max = row["k_max"]
        errors += check_scan(curve, kcap, k_max, row["log10_p_min"], row["status"], where)
        if f["model"] == "exp" and p["beta"] > 0:
            bounds = exp_bounds(B, D, p["eta0"], p["beta"])
            if bounds["useful"] and bounds["k_tilde"] < kcap:
                errors += _check_sandwich(bounds, k_max, row["log10_p_min"], where)
        if f["model"] == "affine" and p["c"] < affine_c_star(B, p["eta0"]) and k_max < 1:
            errors.append(f"{where}: c={p['c']!r} below c* but k_max = 0")
    return errors


def _check_sandwich(bounds: dict, k_max: int, log10_p_min: float, where: str) -> list[str]:
    errors = []
    lo, hi = bounds["log10_p_lower"], bounds["log10_p_upper"]
    slack = 1e-9 * max(abs(lo), abs(hi))
    if not lo - slack <= log10_p_min <= hi + slack:
        errors.append(f"{where}: log10_p_min {log10_p_min!r} outside [{lo!r}, {hi!r}]")
    kt = bounds["k_tilde"]
    if not kt - 1.0 - 1e-9 <= k_max <= kt + 1e-9:
        errors.append(f"{where}: k_max {k_max} outside [k_tilde-1, k_tilde], k_tilde={kt!r}")
    return errors


def check_optimize(op: list[str], text: str) -> list[str]:
    f = flags(op)
    _, _, B, D, _ = scheme_constants(f.get("scheme", "aliferis2006"))
    kcap = int(f["kcap"])
    where = " ".join(op)
    p, log_eta = _point_model(f, {}, B, D, growth=0.0)
    curve = reference_curve(math.log10(B), log_eta, kcap)
    if f.get("format") == "csv":
        lines = text.strip().split("\n")
        if lines[0] != "k,log10_p":
            return [f"{where}: unexpected header {lines[0]!r}"]
        got = [(int(k), float(v)) for k, v in (line.split(",") for line in lines[1:])]
        values = [v for _, v in got]
        k_max = first_argmin(values)
        report = {"k_max": k_max, "log10_p_min": values[k_max], "status": None}
    else:
        report = json.loads(text)["result"]
        got = [(pt["k"], pt["log10_p"]) for pt in report["curve"]]
    errors = []
    if [k for k, _ in got] != list(range(kcap + 1)):
        return [f"{where}: curve levels are not 0..{kcap}"]
    for (k, v), (ref, scale) in zip(got, curve):
        if not rel_close(v, ref, CURVE_REL, scale):
            errors.append(f"{where}: log10 p({k}) = {v!r}, reference {ref!r}")
            break
    errors += check_scan(curve, kcap, report["k_max"], report["log10_p_min"],
                         report["status"], where)
    if f.get("format") != "csv" and f["model"] == "exp":
        ref = exp_bounds(B, D, p["eta0"], p["beta"])
        for key, value in report["bounds"].items():
            if not (value == ref[key] if key == "useful"
                    else rel_close(value, ref[key], 1e-9)):
                errors.append(f"{where}: bounds {key} = {value!r}, reference {ref[key]!r}")
    if f.get("format") != "csv" and f["model"] == "affine":
        if not rel_close(report["usefulness_c_star"], affine_c_star(B, p["eta0"]), 1e-12):
            errors.append(f"{where}: usefulness_c_star {report['usefulness_c_star']!r}")
    return errors


def check_sweeps_op(op: list[str], text: str) -> list[str]:
    if op[0] == "optimize":
        return check_optimize(op, text)
    f = flags(op)
    growth = 0.0
    if f["model"] == "shor":
        from qecopt import scheme, shor

        # Which per-level factor spreads the budget is the program's own
        # definition; take it from the law it builds, evaluate apart.
        sch = scheme.make_scheme(*scheme_constants(f.get("scheme", "aliferis2006")))
        growth = shor.photon_noise_model(shor.ShorProblem(R=int(f["R"])), 1.0, sch).A
    return check_sweep(op, text, growth)


# ---------------------------------------------------------------- budgets


def _bill(f: dict, text: str) -> dict:
    if f.get("format") == "csv":
        lines = text.strip().split("\n")
        if lines[0] != "R,n_L,k,E_tot_J,P_W,T_tot_s,tau_g_s":
            raise ValueError(f"unexpected shor header {lines[0]!r}")
        cells = lines[1].split(",")
        return {"R": int(cells[0]), "n_L": float(cells[1]), "k": int(cells[2]),
                "E_tot_J": float(cells[3]), "P_W": float(cells[4]),
                "T_tot_s": float(cells[5]), "tau_g_s": float(cells[6])}
    return json.loads(text)["result"]


def check_budget(op: list[str], text: str) -> list[str]:
    from qecopt import scheme, shor

    f = flags(op)
    where = " ".join(op)
    constants = scheme_constants(f.get("scheme", "aliferis2006"))
    M = constants[4]
    R, omega0 = int(f["R"]), float(f["omega0"])
    L = R * R
    bill = _bill(f, text)
    n_L, k = bill["n_L"], bill["k"]
    errors = []
    # The bill's identities.  n_g = n_L / A^k is deliberately not pinned:
    # photons per physical gate is a contested definition.
    identities = [
        ("R", bill["R"], R),
        ("E_tot = hbar omega0 L n_L", bill["E_tot_J"], HBAR * omega0 * L * n_L),
        ("E_tot = P_avg T_tot", bill["E_tot_J"], bill["P_W"] * bill["T_tot_s"]),
        ("T_tot = L M^k tau_g", bill["T_tot_s"], L * M ** k * bill["tau_g_s"]),
    ]
    if "tau_L_s" in bill:
        identities += [("L", bill["L"], L),
                       ("tau_L = M^k tau_g", bill["tau_L_s"], M ** k * bill["tau_g_s"])]
    for name, got, want in identities:
        if not rel_close(got, want, EXACT_REL):
            errors.append(f"{where}: {name}: {got!r} vs {want!r}")

    # The budget is the minimum: it meets the target and 1% less does not.
    sch = scheme.make_scheme(*constants)
    problem = shor.ShorProblem(R=R, P_target=float(f.get("ptarget", 2.0 / 3.0)))
    if "perr" in f:
        target = float(f["perr"])
    else:
        target = shor.target_logical_error(problem)
        if "ptarget" not in f and not rel_close(target, 1.0 / (3.0 * L), EXACT_REL):
            errors.append(f"{where}: default target {target!r} is not 1/(3L)")
    at = shor.optimize_photon_budget(problem, n_L, sch)
    below = shor.optimize_photon_budget(problem, n_L / 1.01, sch)
    log_target = math.log10(target)
    if not at.log10_p_min.log10_value <= log_target:
        errors.append(f"{where}: n_L={n_L!r} misses the target")
    if not below.log10_p_min.log10_value > log_target:
        errors.append(f"{where}: n_L/1.01 already meets the target; n_L is not minimal")
    if k != at.k_max:
        errors.append(f"{where}: k={k}, re-scan picks {at.k_max}")
    if "p_err_target" in bill:
        if not rel_close(bill["p_err_target"], target, EXACT_REL):
            errors.append(f"{where}: p_err_target {bill['p_err_target']!r}, expected {target!r}")
        if bill["meets_target"] is not True:
            errors.append(f"{where}: meets_target is {bill['meets_target']!r}")
        if not rel_close(bill["log10_p_min"], at.log10_p_min.log10_value, EXACT_REL):
            errors.append(f"{where}: log10_p_min {bill['log10_p_min']!r} disagrees with the re-scan")
    return errors


# ---------------------------------------------------------------- gates

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def parse_theta(text: str) -> float:
    named = {"pi": math.pi, "pi/2": math.pi / 2.0, "2pi": 2.0 * math.pi}
    return named[text] if text in named else float(text)


def rotation_ptm(theta: float) -> np.ndarray:
    """Transfer matrix of the rotation by theta about x, basis (1, x, y, z)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, -s], [0, 0, s, c]], float)


def bloch_generator(omega: float, gamma: float) -> np.ndarray:
    """Generator of the Bloch equations in the (1, x, y, z) basis for the
    drive (Omega/2) sigma_x and decay at rate gamma into |0> (z = +1):
    dx/dt = -gamma x/2, dy/dt = -gamma y/2 - Omega z, dz/dt = Omega y - gamma (z - 1)."""
    return np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -gamma / 2.0, 0.0, 0.0],
        [0.0, 0.0, -gamma / 2.0, -omega],
        [gamma, 0.0, omega, -gamma],
    ])


def reference_noise_ptm(theta: float, gamma: float, ng: float) -> np.ndarray:
    """Exact noise map R(-theta) expm(tau G) of the square pulse."""
    from scipy.linalg import expm

    omega = 4.0 * gamma * ng / theta
    tau = theta ** 2 / (4.0 * gamma * ng)
    return rotation_ptm(-theta) @ expm(tau * bloch_generator(omega, gamma))


def choi_eigenvalues(ptm: np.ndarray) -> np.ndarray:
    choi = sum(ptm[i, j] * np.kron(_PAULIS[i], _PAULIS[j].T)
               for i in range(4) for j in range(4)) / 4.0
    return np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))


def check_gate(op: list[str], text: str) -> list[str]:
    f = flags(op)
    where = " ".join(op)
    theta, gamma, ng = parse_theta(f["theta"]), float(f["gamma"]), float(f["ng"])
    result = json.loads(text)["result"]
    ptm = np.array(result["ptm"], dtype=float)
    errors = []
    for name, want in (("Omega", 4.0 * gamma * ng / theta),
                       ("tau", theta ** 2 / (4.0 * gamma * ng))):
        if not rel_close(result[name], want, EXACT_REL):
            errors.append(f"{where}: {name} {result[name]!r}, expected {want!r}")
    gap = float(np.max(np.abs(ptm - reference_noise_ptm(theta, gamma, ng))))
    if not gap <= PTM_ABS:
        errors.append(f"{where}: PTM differs from the exact propagator by {gap:.3e}")
    if not np.max(np.abs(ptm[0] - [1.0, 0.0, 0.0, 0.0])) <= PTM_ABS:
        errors.append(f"{where}: channel is not trace preserving: {ptm[0].tolist()}")
    eig_min = float(np.min(choi_eigenvalues(ptm)))
    if not eig_min >= -PTM_ABS:
        errors.append(f"{where}: Choi spectrum has {eig_min:.3e} < 0")
    # chi diagonal from the PTM diagonal: p_a = (1 + s_a - s_b - s_c)/4.
    s = np.diag(ptm)
    chi = [(s[0] + s[1] + s[2] + s[3]) / 4.0,
           (s[0] + s[1] - s[2] - s[3]) / 4.0,
           (s[0] - s[1] + s[2] - s[3]) / 4.0,
           (s[0] - s[1] - s[2] + s[3]) / 4.0]
    for i, name in enumerate(("chi00", "p_x", "p_y", "p_z")):
        got = result["chi_diag"][i]
        if abs(got - chi[i]) > 1e-12:
            errors.append(f"{where}: {name} {got!r}, from the PTM {chi[i]!r}")
        if i and result[name] != got:
            errors.append(f"{where}: {name} {result[name]!r} differs from chi_diag")
    if theta == math.pi and ng >= 1e3:
        # p_x = (pi^2/16)/n_g + O(1/n_g^2).
        ratio = result["p_x"] * ng / PI_SQ_OVER_16
        if not abs(ratio - 1.0) <= 10.0 / ng:
            errors.append(f"{where}: p_x n_g / (pi^2/16) = {ratio!r}")
    return errors


# ---------------------------------------------------------------- lattice


def chain_max_row_sum(n: int, z: float) -> float:
    """max_i sum_{j != i} |i - j|^(-z) over every site; the row sums are
    accumulated in extended precision."""
    weights = np.arange(1, n, dtype=float) ** -z
    prefix = np.concatenate([[np.longdouble(0)], np.cumsum(weights, dtype=np.longdouble)])
    sites = np.arange(n)
    return float(np.max(prefix[sites] + prefix[n - 1 - sites]))


def square_max_row_sum(side: int, z: float) -> float:
    """Literal maximum over every site of a side x side lattice: each site's
    row sum is a window of one table of r^(-z) over all offsets."""
    offsets = np.arange(-(side - 1), side, dtype=float)
    r2 = offsets[:, None] ** 2 + offsets[None, :] ** 2
    r2[side - 1, side - 1] = np.inf
    table = r2 ** (-z / 2.0)
    best = 0.0
    for i in range(side):
        for j in range(side):
            window = table[side - 1 - i:2 * side - 1 - i, side - 1 - j:2 * side - 1 - j]
            best = max(best, float(window.sum()))
    return best


def square_centre_row_sum(side: int, z: float) -> float:
    """Exactly rounded (math.fsum) row sum of the centre site, which attains
    the maximum by symmetry."""
    c = (side - 1) // 2
    d2 = (np.arange(side, dtype=float) - c) ** 2

    def rows():
        for row in range(side):
            r2 = d2[row] + d2
            if row == c:
                r2 = np.delete(r2, c)
            yield (r2 ** (-z / 2.0)).tolist()

    return math.fsum(itertools.chain.from_iterable(rows()))


def c_z(z: float) -> float:
    """C_z = integral_0^{pi/4} cos(t)^(z-2) dt by 64-point Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = (nodes + 1.0) * math.pi / 8.0
    return float(np.sum(weights * np.cos(t) ** (z - 2.0)) * math.pi / 8.0)


def lattice_asymptotic(lattice: str, z: float, n0: int) -> float:
    """Large-N0 closed forms for z <= d (kappa = 1)."""
    if lattice == "chain":
        if z == 1.0:
            return 2.0 * math.log(n0 / 2.0)
        return 2.0 ** z * n0 ** (1.0 - z) / (1.0 - z)
    if z == 2.0:
        return math.pi * math.log(n0 / 4.0)
    return 2.0 ** (z + 1.0) * n0 ** (1.0 - z / 2.0) * c_z(z) / (2.0 - z)


def _lattice_result(f: dict, text: str) -> dict:
    if f.get("format") == "csv":
        lines = text.strip().split("\n")
        if lines[0] != "N0,oracle,asymptotic,rel_err":
            raise ValueError(f"unexpected longrange header {lines[0]!r}")
        n0, oracle, asym, rel = lines[1].split(",")
        return {"N0": int(n0), "oracle": float(oracle), "asymptotic": float(asym),
                "rel_err": float(rel)}
    return json.loads(text)["result"]


# Squares up to this side get the literal all-sites maximum; larger ones the
# centre-site sum (the literal maximum would cost side^4 terms).
LITERAL_SQUARE_SIDE = 64


def check_longrange(op: list[str], text: str) -> list[str]:
    f = flags(op)
    where = " ".join(op)
    lattice, z, n0 = f["lattice"], float(f["z"]), int(f["N0"])
    result = _lattice_result(f, text)
    errors = []
    if lattice == "chain":
        want = chain_max_row_sum(n0, z)
    else:
        side = math.isqrt(n0)
        want = (square_max_row_sum(side, z) if side <= LITERAL_SQUARE_SIDE
                else square_centre_row_sum(side, z))
    if not rel_close(result["oracle"], want, LATTICE_REL):
        errors.append(f"{where}: oracle {result['oracle']!r}, reference {want!r}")
    if "compare" in f:
        asym = lattice_asymptotic(lattice, z, n0)
        if not rel_close(result["asymptotic"], asym, 1e-10):
            errors.append(f"{where}: asymptotic {result['asymptotic']!r}, reference {asym!r}")
        rel = abs(result["asymptotic"] - result["oracle"]) / result["oracle"]
        if not rel_close(result["rel_err"], rel, EXACT_REL):
            errors.append(f"{where}: rel_err {result['rel_err']!r}, expected {rel!r}")
    return errors


def check_rel_err_falls(ops: list[list[str]], outputs: list[str | None]) -> list[str]:
    """At a fixed lattice and z, rel_err against the closed form falls as N0 grows."""
    groups: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for op, text in zip(ops, outputs):
        f = flags(op)
        if text is None or "compare" not in f:
            continue
        groups.setdefault((f["lattice"], f["z"]), []).append(
            (int(f["N0"]), _lattice_result(f, text)["rel_err"]))
    errors = []
    for (lattice, z), points in groups.items():
        rels = [rel for _, rel in sorted(points)]
        if any(b >= a for a, b in zip(rels, rels[1:])):
            errors.append(f"{lattice} z={z}: rel_err does not fall with N0: {sorted(points)}")
    return errors


CHECKERS = {"sweeps": check_sweeps_op, "budgets": check_budget,
            "gates": check_gate, "lattice": check_longrange}

# A report that cannot be parsed, or lacks a field, fails its check instead
# of stopping the benchmark.
_UNREADABLE = (ValueError, KeyError, IndexError, TypeError)


def check_round(workload: str, ops: list[list[str]], outputs: list[str | None]) -> list[str]:
    """Check every report of one round; ops that failed (None) are skipped."""
    errors: list[str] = []
    for op, text in zip(ops, outputs):
        if text is None:
            continue
        try:
            errors += CHECKERS[workload](op, text)
        except _UNREADABLE as exc:
            errors.append(f"{' '.join(op)}: unreadable report ({exc!r})")
    if workload == "lattice":
        try:
            errors += check_rel_err_falls(ops, outputs)
        except _UNREADABLE as exc:
            errors.append(f"lattice: unreadable report ({exc!r})")
    return errors


def check_repeats(first: list[str | None], again: list[str | None], label: str) -> list[str]:
    """Identical invocations must print byte-identical reports."""
    return [f"op {i}: {label} report differs from round 0"
            for i, (a, b) in enumerate(zip(first, again))
            if a is not None and b is not None and a != b]
