"""The array curve kernel against a per-point scalar reference, bit for bit.

The reference below is the concatenation recursion written out with Python
floats and math.log10, one grid point and one level at a time:
log10 p(0) = log10 eta_0 and log10 p(k) = -lb + 2.0**k * (lb + le_k).  The
kernel (`optimizer.log10_curve`, behind `find_kmax` and `qecopt sweep`) must
give the same bits, the same first argmin and the same status, and it must
rank a level whose value overflows the float range below every finite one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecopt import cli, optimizer
from qecopt.optimizer import find_kmax, first_minima, levels, log10_logical_error
from qecopt.scheme import (
    AffineNoise,
    ExponentialNoise,
    ShorPhotonNoise,
    TabulatedNoise,
    get_scheme,
    make_scheme,
)

from conftest import clear_caches

# The three scheme spellings of the benchmark sweeps, with their (B, D).
SCHEMES = {
    "aliferis2006": (10_000, 291),
    "575,291,10000,291,3": (10_000, 291),
    "100,50,1000,30,2": (1000, 30),
}
KCAPS = [1, 16, 64, 1000]


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def reference_curve(B: int, log_eta, kcap: int) -> list[float]:
    lb = math.log10(B)
    return [log_eta(0)] + [-lb + 2.0 ** k * (lb + log_eta(k)) for k in range(1, kcap + 1)]


def reference_scan(values: list[float]) -> tuple[int, float, str]:
    kcap = len(values) - 1
    k = values.index(min(values))
    if k == kcap and kcap >= 1:
        status = "unbounded-improvement"
    elif k == 0:
        status = "no-encoding-best"
    else:
        status = "optimum-found"
    return k, values[k], status


def affine_log_eta(eta0, c):
    return lambda k: math.log10(eta0) + math.log10(1.0 + c * k)


def exp_log_eta(eta0, beta, D):
    return lambda k: math.log10(eta0) + beta * k * math.log10(D)


def table_log_eta(eta0, f_values):
    return lambda k: math.log10(eta0) + math.log10(f_values[k])


def shor_log_eta(n_L, A):
    return lambda k: (math.log10(math.pi ** 2 / 16.0) + k * math.log10(A)
                      - math.log10(n_L))


def _value(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def sweeps(draw):
    """A two-axis grid (one axis for the photon staircase), as (argv, B,
    kcap, log_eta), where log_eta(row) is the law at one report row."""
    kind = draw(st.sampled_from(["affine", "exp", "shor"]))
    name = draw(st.sampled_from(sorted(SCHEMES)))
    B, D = SCHEMES[name]
    kcap = draw(st.sampled_from(KCAPS))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    argv = ["sweep", "--scheme", name, "--model", kind, "--kcap", kcap]
    if kind == "affine":
        c_lo = draw(_value(0.0, 5.0))
        b_lo = draw(_value(0.005, 0.5))
        argv += ["--axis", f"c:{c_lo!r}:{c_lo + draw(_value(0.0, 15.0))!r}:{n}",
                 "--axis", f"B_eta0:{b_lo!r}:{draw(_value(b_lo, 0.99))!r}:{m}"]

        def log_eta(row):
            return affine_log_eta(row["B_eta0"] / B, row["c"])
    elif kind == "exp":
        beta_lo = draw(_value(0.0, 1.0))
        e_lo = 10.0 ** draw(_value(-14.0, -8.0))
        argv += ["--axis", f"beta:{beta_lo!r}:{beta_lo + draw(_value(0.0, 2.0))!r}:{n}",
                 "--axis", f"eta0:{e_lo!r}:{e_lo * 10.0 ** draw(_value(0.0, 3.0))!r}:{m}:log"]

        def log_eta(row):
            return exp_log_eta(row["eta0"], row["beta"], D)
    else:
        R = draw(st.integers(2, 20_000))
        n_lo = 10.0 ** draw(_value(3.0, 6.0))
        argv += ["--R", R, "--axis",
                 f"n_L:{n_lo!r}:{n_lo * 10.0 ** draw(_value(0.0, 9.0))!r}:{n * m}:log"]

        def log_eta(row):
            return shor_log_eta(row["n_L"], float(D))
    return argv, B, kcap, log_eta


@settings(max_examples=60, deadline=None)
@given(sweep=sweeps(), fmt=st.sampled_from(["csv", "json"]))
def test_sweep_rows_match_the_scalar_reference(sweep, fmt):
    argv, B, kcap, log_eta = sweep
    code, out, err = invoke(*argv, "--format", fmt)
    assert code == 0, err
    if fmt == "json":
        rows = strict_json(out)["result"]["rows"]
    else:
        header, *lines = out.strip().split("\n")
        names = header.split(",")
        rows = []
        for line in lines:
            row = dict(zip(names, line.split(",")))
            for key in names[:-3]:
                row[key] = float(row[key])
            row["k_max"], row["log10_p_min"] = int(row["k_max"]), float(row["log10_p_min"])
            rows.append(row)
    for row in rows:
        k, p, status = reference_scan(reference_curve(B, log_eta(row), kcap))
        assert (row["k_max"], repr(row["log10_p_min"]), row["status"]) == (k, repr(p), status)


@st.composite
def laws(draw):
    """A law of each of the four kinds, with a scheme and a scan cap, as
    (law, scheme, kcap, log_eta)."""
    kind = draw(st.sampled_from(["affine", "exp", "table", "shor"]))
    B, D = SCHEMES[draw(st.sampled_from(sorted(SCHEMES)))]
    sch = make_scheme(575, 291, B, D, 3)
    kcap = draw(st.sampled_from(KCAPS))
    eta0 = 10.0 ** draw(_value(-14.0, -0.01))
    if kind == "affine":
        c = draw(_value(0.0, 20.0))
        return AffineNoise(eta0, c=c), sch, kcap, affine_log_eta(eta0, c)
    if kind == "exp":
        beta = draw(_value(0.0, 3.0))
        return ExponentialNoise(eta0, beta=beta), sch, kcap, exp_log_eta(eta0, beta, D)
    if kind == "table":
        f = [1.0]
        for step in draw(st.lists(_value(0.0, 1e3), max_size=20)):
            f.append(f[-1] * (1.0 + step))
        return TabulatedNoise(eta0, tuple(f)), sch, kcap, table_log_eta(eta0, f)
    n_L = 10.0 ** draw(_value(0.0, 15.0))
    A = draw(_value(1.0, 1e4))
    return ShorPhotonNoise(n_L, A), sch, kcap, shor_log_eta(n_L, A)


@settings(max_examples=80, deadline=None)
@given(case=laws())
def test_find_kmax_curve_matches_the_scalar_reference(case):
    law, sch, kcap, log_eta = case
    top = min(kcap, len(law.f_values) - 1) if isinstance(law, TabulatedNoise) else kcap
    values = reference_curve(sch.B, log_eta, top)
    result = find_kmax(sch, law, k_cap=kcap)
    got = [(k, None if v is None else repr(v.log10_value)) for k, v in result.curve]
    assert got == [(k, None if v == math.inf else repr(v)) for k, v in enumerate(values)]
    assert list(map(repr, result.log10_curve)) == list(map(repr, values))
    k, p, status = reference_scan(values)
    assert (result.k_max, repr(result.log10_p_min.log10_value), result.status) == (
        k, repr(p), status)


class NanAtLevel:
    """A law with log10 eta = -6 at every level but one, where it is NaN:
    under B = 10^4 its curve falls at every level, so its minimum is the top."""

    def __init__(self, level: int):
        self.level = level

    def log10_eta(self, ks, D=None):
        values = np.full(ks.shape, -6.0)
        values[ks == self.level] = math.nan
        return values


UNDEFINED = (r"^the noise law gives an undefined curve \(NaN\): "
             r"a parameter leaves the float range$")


class TestUndefinedCurve:
    # The scans read only each curve's argmin value: argmin takes a curve's
    # first NaN as its minimum, so a NaN anywhere is found, not only one at
    # the level the curve would otherwise take as its minimum.

    @pytest.mark.parametrize("level", range(9))
    def test_a_nan_at_any_level_is_rejected(self, level):
        with pytest.raises(ValueError, match=UNDEFINED):
            find_kmax(get_scheme("aliferis2006"), NanAtLevel(level), k_cap=8)

    def test_a_nan_above_the_minimum_is_rejected(self):
        # D = 1: beta * k overflows from k = 2 on, and inf * log10 D is NaN;
        # levels 0 and 1 read -1 and -2.
        law = ExponentialNoise(0.1, beta=1e308)
        with pytest.raises(ValueError, match=UNDEFINED):
            find_kmax(make_scheme(1, 1, 1, 1, 1), law, k_cap=2)

    def test_one_undefined_curve_among_many_is_rejected(self):
        values = np.tile(np.linspace(0.0, -8.0, 9), (5, 1))
        k_max, p_min = first_minima(values)
        assert k_max.tolist() == [8] * 5 and p_min.tolist() == [-8.0] * 5
        values[3, 6] = math.nan
        with pytest.raises(ValueError, match=UNDEFINED):
            first_minima(values)


class TestLevelTable:
    # One read-only table of levels, 2^k and the level-0 mask per level
    # count, kept in a bounded cache: the scans and the sweep read it.

    @pytest.mark.parametrize("kcap", [1, 64, 1000])
    def test_table_holds_the_levels(self, kcap):
        table = levels(kcap)
        assert table.ks.tolist() == list(range(kcap + 1))
        assert table.two_k.tolist() == [2.0 ** k for k in range(kcap + 1)]
        assert table.level0.tolist() == [True] + [False] * kcap

    def test_report_levels_are_the_table(self):
        result = find_kmax(get_scheme("aliferis2006"), AffineNoise(5e-6, c=1.0), k_cap=30)
        ks = result.curve_columns()["k"]
        assert ks is levels(30).ks and not ks.flags.writeable

    @settings(max_examples=30, deadline=None)
    @given(cases=st.lists(laws(), min_size=2, max_size=6),
           shuffle=st.randoms(use_true_random=False))
    def test_warm_cold_and_reordered_scans_agree(self, cases, shuffle):
        def scan(case):
            law, sch, kcap, _ = case
            result = find_kmax(sch, law, k_cap=kcap)
            return result.k_max, result.status, list(map(repr, result.log10_curve))

        cold = []
        for case in cases:
            clear_caches()
            cold.append(scan(case))
        warm = [scan(case) for case in cases]
        order = list(range(len(cases)))
        shuffle.shuffle(order)
        shuffled = {i: scan(cases[i]) for i in order}
        assert warm == cold == [shuffled[i] for i in range(len(cases))]


def test_ties_break_toward_the_smaller_level():
    # B eta0 = 1 and c = 0: every level's value is exactly -log10 B.
    code, out, _ = invoke("sweep", "--model", "affine", "--eta0", "1e-4",
                          "--axis", "c:0:1:2", "--kcap", "8")
    assert code == 0
    assert out.split("\n")[1] == "0.0,0,-4.0,no-encoding-best"
    result = find_kmax(get_scheme("aliferis2006"), AffineNoise(1e-4, c=0.0), k_cap=8)
    assert {v.log10_value for _, v in result.curve} == {-4.0}
    assert (result.k_max, result.status) == (0, "no-encoding-best")


def test_recursion_takes_real_levels():
    sch = get_scheme("aliferis2006")
    ks = np.array([0.0, 0.5, 1.75, 2.0])
    got = log10_logical_error(math.log10(sch.B),
                              ExponentialNoise(1e-12, beta=1.0).log10_eta(ks, sch.D), ks)
    want = reference_curve(sch.B, exp_log_eta(1e-12, 1.0, sch.D), 2)
    assert got[0] == want[0] and got[3] == want[2]
    lb, le = math.log10(sch.B), math.log10(1e-12) + 1.75 * math.log10(sch.D)
    assert got[2] == pytest.approx(-lb + 2.0 ** 1.75 * (lb + le), rel=1e-15)


class TestOverflow:
    ARGV = ("optimize", "--model", "exp", "--eta0", "0.5", "--beta", "10000",
            "--kcap", "1000")

    def test_overflowed_levels_rank_last_and_report_null(self):
        code, out, err = invoke(*self.ARGV)
        assert code == 0, err
        result = strict_json(out)["result"]
        assert result["k_max"] == 0 and result["status"] == "no-encoding-best"
        values = reference_curve(10_000, exp_log_eta(0.5, 10000.0, 291), 1000)
        assert math.inf in values
        assert [pt["log10_p"] for pt in result["curve"]] == [
            None if v == math.inf else v for v in values]

    def test_result_keeps_an_overflow_as_inf(self):
        sch, law = get_scheme("aliferis2006"), ExponentialNoise(0.5, beta=10000.0)
        result = find_kmax(sch, law, k_cap=1000)
        assert result.log10_curve[-1] == math.inf and result.curve[-1] == (1000, None)
        assert result.curve_columns()["log10_p"] == [
            None if v == math.inf else v for v in result.log10_curve]
        # Results compare by their floats: equal scans are equal, and == never raises.
        assert result == find_kmax(sch, law, k_cap=1000)
        assert result != find_kmax(sch, law, k_cap=999)

    def test_overflowed_levels_are_empty_csv_cells(self):
        code, out, _ = invoke(*self.ARGV, "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,log10_p" and lines[-1] == "1000,"
        assert all(line.split(",")[1] for line in lines[1:-1] if not line.endswith(","))

    def test_sweep_rows_stay_finite(self):
        code, out, err = invoke("sweep", "--model", "exp", "--eta0", "0.5",
                                "--axis", "beta:100:10000:4", "--kcap", "1000",
                                "--format", "json")
        assert code == 0, err
        rows = strict_json(out)["result"]["rows"]
        assert all(math.isfinite(r["log10_p_min"]) and r["k_max"] == 0 for r in rows)

    def test_undefined_curve_exits_2(self):
        # beta * k overflows, and log10 D = 0 turns it into NaN.
        code, out, err = invoke("optimize", "--model", "exp", "--scheme", "1,1,1,1,1",
                                "--eta0", "0.1", "--beta", "1e308", "--kcap", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "NaN" in err

    @pytest.mark.parametrize("law", [
        lambda: AffineNoise(1e-5, c=math.inf),
        lambda: AffineNoise(1e-5, c=math.nan),
        lambda: ExponentialNoise(1e-5, beta=math.inf),
        lambda: ExponentialNoise(1e-5, beta=math.nan),
        lambda: ShorPhotonNoise(1e9, math.inf),
        lambda: ShorPhotonNoise(math.inf, 291.0),
        lambda: TabulatedNoise(1e-5, (1.0, math.nan)),
        lambda: AffineNoise(np.array([1e-5, 1.0]), c=0.0),
        lambda: ShorPhotonNoise(np.array([1e9, -1.0]), 2.0),
    ])
    def test_laws_that_would_give_nan_are_rejected(self, law):
        with pytest.raises(ValueError):
            law()


class TestSweepSize:
    def test_huge_config_count_exits_2_promptly(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "command": "sweep", "model": "affine", "eta0": 1e-5,
            "axes": [{"param": "c", "min": 0, "max": 1, "count": 1e300}],
        }))
        start = time.perf_counter()
        code, out, err = invoke("sweep", "--config", config)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == "" and err.count("\n") == 1

    @pytest.mark.parametrize("axes", [
        ["c:0:1:1000000000"],
        ["c:0:1:1001", "B_eta0:0.1:0.5:1000"],
        ["c:0:1:0", "B_eta0:0.1:0.5:1000000000"],
    ])
    def test_oversized_grid_flags_exit_2_promptly(self, axes):
        argv = ["sweep", "--model", "affine", "--eta0", "1e-5"]
        for axis in axes:
            argv += ["--axis", axis]
        start = time.perf_counter()
        code, out, err = invoke(*argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("--model", "affine", "--axis", "c:0:10:7", "--axis", "B_eta0:0.01:0.99:5"),
        ("--model", "exp", "--eta0", "1e-9", "--axis", "beta:0:3:11"),
        ("--model", "shor", "--R", "1000", "--axis", "n_L:1e4:1e13:9:log"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_blocks_give_the_unblocked_bytes(self, monkeypatch, argv, fmt):
        whole = invoke("sweep", *argv, "--kcap", "16", "--format", fmt)
        assert whole[0] == 0
        for block in (1, 40, 100):  # one point, parts of rows, whole rows
            monkeypatch.setattr(optimizer, "SWEEP_BLOCK", block)
            assert invoke("sweep", *argv, "--kcap", "16", "--format", fmt) == whole

    @pytest.mark.parametrize("axes", [
        ["eta0:1e-6:1:3"],
        ["c:0:1:2", "B_eta0:0.5:20000:3"],
        ["c:-1:1:3"],
    ])
    def test_rejected_grid_points_exit_2(self, axes):
        argv = ["sweep", "--model", "affine", "--eta0", "1e-5"]
        for axis in axes:
            argv += ["--axis", axis]
        code, out, err = invoke(*argv)
        assert code == 2 and out == "" and err.count("\n") == 1

    def test_rejected_photon_budget_exits_2(self):
        code, out, err = invoke("sweep", "--model", "shor", "--R", "1000",
                                "--axis", "n_L:-1:1e4:3")
        assert code == 2 and out == "" and err.count("\n") == 1
