"""Each output check passes a real report and rejects a corrupted one."""

import contextlib
import io
import json

import pytest

import checks
from qecopt import cli


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def edit_json(text, change):
    data = json.loads(text)
    change(data["result"])
    return json.dumps(data)


AFFINE_GRID = ["sweep", "--model", "affine", "--axis", "c:0:6:4",
               "--axis", "B_eta0:0.02:0.9:3", "--kcap", "16", "--format", "csv"]
EXP_GRID = ["sweep", "--scheme", "100,50,1000,30,2", "--model", "exp",
            "--axis", "beta:0.2:2:3", "--axis", "eta0:1e-12:1e-6:3:log",
            "--kcap", "32", "--format", "json"]
STAIRCASE = ["sweep", "--model", "shor", "--R", "1000",
             "--axis", "n_L:1e4:1e13:5:log", "--kcap", "64", "--format", "json"]


@pytest.mark.parametrize("op", [AFFINE_GRID, EXP_GRID, STAIRCASE])
def test_sweep_check_passes_real_report(op):
    assert checks.check_round("sweeps", [op], [report(op)]) == []


def _csv_cell(text, row, col, value):
    lines = text.strip().split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_check_rejects_wrong_k_max_and_value_and_status():
    text = report(AFFINE_GRID)
    k = int(text.split("\n")[1].split(",")[-3])
    assert checks.check_round("sweeps", [AFFINE_GRID], [_csv_cell(text, 1, -3, str(k + 1))])
    p = float(text.split("\n")[1].split(",")[-2])
    assert checks.check_round("sweeps", [AFFINE_GRID], [_csv_cell(text, 1, -2, repr(p * (1 + 1e-8)))])
    assert checks.check_round("sweeps", [AFFINE_GRID], [_csv_cell(text, 1, -1, "optimum-found"
                                                         if k == 0 else "no-encoding-best")])
    assert checks.check_round("sweeps", [AFFINE_GRID], [text.rsplit("\n", 2)[0] + "\n"])


def test_sweep_check_rejects_shifted_axis():
    text = report(EXP_GRID)
    bad = edit_json(text, lambda r: r["rows"][1].update(eta0=r["rows"][1]["eta0"] * 1.01))
    assert checks.check_round("sweeps", [EXP_GRID], [bad])


def test_staircase_check_rejects_wrong_minimum():
    text = report(STAIRCASE)
    bad = edit_json(text, lambda r: r["rows"][-1].update(log10_p_min=r["rows"][-1]["log10_p_min"] + 1e-6))
    assert checks.check_round("sweeps", [STAIRCASE], [bad])


def test_sandwich_rejects_points_outside_the_bounds():
    bounds = checks.exp_bounds(1e4, 291, 1e-12, 1.0)
    assert bounds["useful"]
    k = round(bounds["k_tilde"])
    assert not checks._check_sandwich(bounds, k, bounds["log10_p_upper"], "x")
    assert checks._check_sandwich(bounds, k, bounds["log10_p_lower"] * 1.01, "x")
    assert checks._check_sandwich(bounds, k, bounds["log10_p_upper"] * 0.99, "x")
    assert checks._check_sandwich(bounds, k + 2, bounds["log10_p_upper"], "x")


def test_affine_usefulness_rejects_k_zero_below_c_star():
    op = ["sweep", "--model", "affine", "--axis", "c:0:1:2", "--eta0", "1e-5",
          "--kcap", "16", "--format", "csv"]
    text = report(op)
    lines = text.strip().split("\n")
    # Force row 0 (c = 0, far below c*) to claim no encoding, consistently.
    ref = checks.reference_curve(4.0, lambda k: -5.0, 16)
    bad = _csv_cell(text, 1, -3, "0")
    bad = _csv_cell(bad, 1, -2, repr(ref[0][0]))
    bad = _csv_cell(bad, 1, -1, "no-encoding-best")
    assert len(lines) == 3
    assert any("below c*" in e for e in checks.check_round("sweeps", [op], [bad]))


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_optimize_check(fmt):
    op = ["optimize", "--model", "exp", "--eta0", "1e-10", "--beta", "0.5",
          "--kcap", "1000", "--format", fmt]
    text = report(op)
    assert checks.check_round("sweeps", [op], [text]) == []
    if fmt == "json":
        bad = edit_json(text, lambda r: r["curve"][500].update(log10_p=r["curve"][500]["log10_p"] * 1.001))
        assert checks.check_round("sweeps", [op], [bad])
        bad = edit_json(text, lambda r: r["bounds"].update(k_tilde=r["bounds"]["k_tilde"] + 0.01))
        assert checks.check_round("sweeps", [op], [bad])
    else:
        assert checks.check_round("sweeps", [op], [_csv_cell(text, 3, 1, "-1e300")])


BUDGET = ["shor", "--R", "1000", "--gamma", "10", "--omega0", "1e10"]
BUDGET_CSV = ["shor", "--R", "300", "--gamma", "2", "--omega0", "3e11",
              "--perr", "1e-12", "--format", "csv"]


@pytest.mark.parametrize("op", [BUDGET, BUDGET_CSV,
                                ["shor", "--R", "5000", "--gamma", "0.5",
                                 "--omega0", "1e9", "--ptarget", "0.9"]])
def test_budget_check_passes_real_report(op):
    assert checks.check_round("budgets", [op], [report(op)]) == []


@pytest.mark.parametrize("field, factor", [("E_tot_J", 1.000001), ("T_tot_s", 0.99999),
                                           ("P_W", 1.01), ("tau_L_s", 1.001)])
def test_budget_check_rejects_broken_identities(field, factor):
    text = report(BUDGET)
    bad = edit_json(text, lambda r: r.update({field: r[field] * factor}))
    assert checks.check_round("budgets", [BUDGET], [bad])


def _scale_budget(r, factor):
    r["n_L"] *= factor
    r["E_tot_J"] *= factor   # keep the bill's identities, move only the budget
    r["P_W"] *= factor


@pytest.mark.parametrize("factor, message", [(1.05, "not minimal"), (0.97, "misses")])
def test_budget_check_rejects_non_minimal_budgets(factor, message):
    text = report(BUDGET)
    bad = edit_json(text, lambda r: _scale_budget(r, factor))
    assert any(message in e for e in checks.check_round("budgets", [BUDGET], [bad]))


def test_budget_check_rejects_wrong_target_and_csv_level():
    text = report(BUDGET)
    bad = edit_json(text, lambda r: r.update(p_err_target=r["p_err_target"] * 1.1))
    assert checks.check_round("budgets", [BUDGET], [bad])
    text = report(BUDGET_CSV)
    k = int(text.split("\n")[1].split(",")[2])
    assert checks.check_round("budgets", [BUDGET_CSV], [_csv_cell(text, 1, 2, str(k + 1))])


GATE = ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "1e4"]


@pytest.fixture(scope="module")
def gate_report():
    return report(GATE)


def test_gate_check_passes_real_report(gate_report):
    assert checks.check_round("gates", [GATE], [gate_report]) == []


@pytest.mark.parametrize("change", [
    lambda r: r["ptm"][2].__setitem__(2, r["ptm"][2][2] + 1e-7),
    lambda r: r["ptm"][0].__setitem__(3, 1e-6),
    lambda r: r.update(p_x=r["p_x"] * 1.01),
    lambda r: r["chi_diag"].__setitem__(2, r["chi_diag"][2] + 1e-9),
    lambda r: r.update(tau=r["tau"] * 1.0001),
])
def test_gate_check_rejects_corrupted_channel(gate_report, change):
    assert checks.check_round("gates", [GATE], [edit_json(gate_report, change)])


def test_gate_check_rejects_wrong_asymptote(gate_report):
    # A channel that is exact for another n_g fails p_x n_g -> pi^2/16 here.
    op = ["gatesim", "--theta", "pi", "--gamma", "1", "--ng", "2e4"]
    assert any("pi^2/16" in e for e in checks.check_gate(op, gate_report))


CHAIN = ["longrange", "--lattice", "chain", "--z", "0.5", "--N0", "10000",
         "--compare", "--format", "csv"]
SQUARE = ["longrange", "--lattice", "square", "--z", "1.2", "--N0", "250000", "--compare"]
SMALL = ["longrange", "--lattice", "square", "--z", "3.0", "--N0", "576"]


@pytest.mark.parametrize("op", [CHAIN, SQUARE, SMALL])
def test_lattice_check_passes_real_report(op):
    assert checks.check_round("lattice", [op], [report(op)]) == []


def test_lattice_check_rejects_corrupted_values():
    text = report(SQUARE)
    for field in ("oracle", "asymptotic", "rel_err"):
        bad = edit_json(text, lambda r: r.update({field: r[field] * (1 + 1e-6)}))
        assert checks.check_round("lattice", [SQUARE], [bad]), field
    text = report(CHAIN)
    assert checks.check_round("lattice", [CHAIN], [_csv_cell(text, 1, 1, "1.0")])
    text = report(SMALL)
    assert checks.check_round("lattice", [SMALL], [edit_json(text, lambda r: r.update(oracle=r["oracle"] * 0.999))])


def test_rel_err_must_fall_with_n0():
    ops = [["longrange", "--lattice", "chain", "--z", "0.5", "--N0", str(n), "--compare"]
           for n in (10 ** 3, 10 ** 4)]
    texts = [report(op) for op in ops]
    assert checks.check_rel_err_falls(ops, texts) == []
    assert checks.check_rel_err_falls(ops[::-1], texts)


def test_unreadable_report_fails_its_check():
    errors = checks.check_round("budgets", [BUDGET], ["not a report"])
    assert errors and "unreadable" in errors[0]
    errors = checks.check_round("lattice", [SMALL], ['{"result": {}}'])
    assert errors and "unreadable" in errors[0]


def test_repeats_must_be_byte_identical():
    assert checks.check_repeats(["a", "b"], ["a", "b"], "round 1") == []
    assert checks.check_repeats(["a", "b"], ["a", "b "], "round 1")
    assert checks.check_repeats(["a", None], ["a", "x"], "round 1") == []
