"""Logical-error curve, optimal level and the analytic bounds.

Frozen expected values come from independent oracles computed here: exact
Fraction arithmetic for small levels, and direct linear/log evaluation of the
defining formulas for everything else.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecopt import optimizer
from qecopt.cli import main
from qecopt.optimizer import (
    STATUS_NO_ENCODING,
    STATUS_OPTIMUM,
    STATUS_UNBOUNDED,
    affine_usefulness_threshold,
    exp_model_bounds,
    find_kmax,
    generic_kmax_bound,
    log10_logical_error,
    one_level_condition,
    scan_status,
    sweep_minima,
)
from qecopt.scheme import (
    AffineNoise,
    ExponentialNoise,
    TabulatedNoise,
    get_scheme,
    make_scheme,
    model_from_dict,
)

ALIFERIS = get_scheme("aliferis2006")


def exact_affine_curve(B: int, eta0: Fraction, c: Fraction, k_cap: int):
    """Brute-force p(k) = (1/B)(B eta0 (1+ck))^(2^k) in exact rationals."""
    curve = []
    for k in range(k_cap + 1):
        base = B * eta0 * (1 + c * k)
        curve.append(Fraction(1, B) * base ** (2 ** k))
    return curve


def log10_fraction(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator)


def logical_error_log10(scheme, model, k):
    """log10 p(k) at one level, or at an array of levels, through the
    package's recursion."""
    return log10_logical_error(math.log10(scheme.B), model.log10_eta(k, scheme.D), k)


class TestLogicalErrorLog10:
    def test_level_one_flat_noise(self):
        # (1/B)(B eta)^2 = 1e-4 * 0.05^2 = 2.5e-7.  Exact-arithmetic oracle:
        oracle = exact_affine_curve(10 ** 4, Fraction(5, 10 ** 6), Fraction(0), 1)[1]
        assert oracle == Fraction(25, 10 ** 8)
        got = logical_error_log10(ALIFERIS, AffineNoise(5e-6, c=0.0), 1)
        assert got == pytest.approx(log10_fraction(oracle), abs=1e-12)

    def test_level_zero_is_physical_error_exactly(self):
        for model in (AffineNoise(5e-6, c=1.0), ExponentialNoise(1e-9, beta=1.0)):
            got = logical_error_log10(ALIFERIS, model, 0)
            assert got == math.log10(model.eta0)  # bitwise

    def test_deep_concatenation_stays_in_log_space(self):
        # At k = 17 with eta(17) = 5e-6 * 18, B eta = 0.9:
        # log10 p = -4 + 2^17 log10(0.9); the linear value underflows floats.
        expected = -4.0 + 2.0 ** 17 * math.log10(0.9)
        got = logical_error_log10(ALIFERIS, AffineNoise(5e-6, c=1.0), 17)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(-6001.526, abs=1e-2)

    def test_matches_exact_rationals_through_level_six(self):
        cases = [
            (10 ** 4, Fraction(5, 10 ** 6), Fraction(0)),
            (10 ** 4, Fraction(5, 10 ** 6), Fraction(1)),
            (10 ** 4, Fraction(5, 10 ** 6), Fraction(1, 2)),
            (100, Fraction(3, 1000), Fraction(3)),
            (100, Fraction(9, 1000), Fraction(0)),
        ]
        for B, eta0, c in cases:
            scheme = make_scheme(575, 291, B, 291, 3)
            model = AffineNoise(float(eta0), c=float(c))
            oracle = exact_affine_curve(B, eta0, c, 6)
            for k in range(7):
                got = logical_error_log10(scheme, model, k)
                assert got == pytest.approx(log10_fraction(oracle[k]), abs=1e-9)


# eta0 spread evenly in log10 over both sides of ALIFERIS's threshold 1/B.
LOG_ETA0 = st.floats(-12.0, -2.0).map(lambda x: 10.0 ** x)


class TestFindKmax:
    def test_affine_turnaround(self):
        result = find_kmax(ALIFERIS, AffineNoise(5e-6, c=1.0), k_cap=64)
        assert result.k_max == 17
        assert result.status == STATUS_OPTIMUM
        assert len(result.curve) == 65

    def test_flat_below_threshold_never_turns_around(self):
        result = find_kmax(ALIFERIS, AffineNoise(5e-6, c=0.0), k_cap=64)
        assert result.status == STATUS_UNBOUNDED
        assert result.k_max == 64

    def test_at_threshold_no_encoding(self):
        # B eta0 = 1 and c = 5: p(1) = 1e-4 * 6^2 > p(0) = 1e-4.
        result = find_kmax(ALIFERIS, AffineNoise(1e-4, c=5.0))
        assert result.k_max == 0
        assert result.status == STATUS_NO_ENCODING
        assert result.log10_p_min.log10_value == math.log10(1e-4)

    def test_agrees_with_exact_argmin_through_level_six(self):
        grid = [
            (10 ** 4, Fraction(5, 10 ** 6), Fraction(1)),
            (10 ** 4, Fraction(8, 10 ** 5), Fraction(1, 10)),
            (10 ** 4, Fraction(8, 10 ** 5), Fraction(3)),
            (100, Fraction(1, 1000), Fraction(2)),
            (100, Fraction(9, 1000), Fraction(1, 2)),
            (2, Fraction(1, 10), Fraction(4)),
        ]
        for B, eta0, c in grid:
            scheme = make_scheme(575, 291, B, 291, 3)
            oracle = exact_affine_curve(B, eta0, c, 6)
            expected_k = oracle.index(min(oracle))
            result = find_kmax(scheme, AffineNoise(float(eta0), c=float(c)), k_cap=6)
            assert result.k_max == expected_k, (B, eta0, c)

    def test_min_and_argmin_consistent_with_curve(self):
        result = find_kmax(ALIFERIS, AffineNoise(5e-6, c=2.0))
        values = [v.log10_value for _, v in result.curve]
        assert result.log10_p_min.log10_value == min(values)
        assert result.k_max == values.index(min(values))

    def test_threshold_recovery_flat_noise(self):
        # Unbounded improvement iff eta0 < 1/B, for both flat laws.
        for eta0, expect_unbounded in ((9.9e-5, True), (1.01e-4, False)):
            for model in (AffineNoise(eta0, c=0.0), ExponentialNoise(eta0, beta=0.0)):
                result = find_kmax(ALIFERIS, model)
                assert (result.status == STATUS_UNBOUNDED) is expect_unbounded

    @settings(max_examples=300, deadline=None)
    @given(
        law=st.one_of(
            st.builds(AffineNoise, LOG_ETA0, c=st.floats(0.0, 10.0)),
            st.builds(ExponentialNoise, LOG_ETA0, beta=st.floats(0.0, 2.0)),
            st.builds(TabulatedNoise, LOG_ETA0,
                      st.lists(st.floats(1.0, 3.0), max_size=40).map(
                          lambda growth: tuple(itertools.accumulate([1.0, *growth],
                                                                    lambda a, b: a * b)))),
        ),
        k_cap=st.integers(1, 200),
    )
    def test_status_is_read_off_the_curve(self, law, k_cap):
        # status is scan_status of the scan's own levels, and it says what
        # the curve shows: no encoding at k_max = 0, unbounded where the last
        # level lies strictly below every earlier one, else an optimum.
        result = find_kmax(ALIFERIS, law, k_cap)
        curve = result.log10_curve
        k_last = len(curve) - 1
        if not isinstance(law, TabulatedNoise):
            assert k_last == k_cap
        assert result.status == scan_status(result.k_max, k_last)
        if k_last >= 1 and curve[-1] < min(curve[:-1]):
            expected = STATUS_UNBOUNDED
        elif result.k_max == 0:
            expected = STATUS_NO_ENCODING
        else:
            expected = STATUS_OPTIMUM
        assert result.status == expected
        assert result.to_dict()["status"] == expected

    def test_tabulated_scan_respects_table_length(self):
        model = TabulatedNoise(5e-6, tuple(float(1 + k) for k in range(9)))
        result = find_kmax(ALIFERIS, model, k_cap=64)
        assert len(result.curve) == 9

    def test_k_cap_validation(self):
        with pytest.raises(ValueError):
            find_kmax(ALIFERIS, AffineNoise(5e-6), k_cap=0)

    def test_double_exponential_decay_recursion(self):
        # For flat noise below threshold, log10 p(k+1) = 2 log10 p(k) + log10 B.
        model = AffineNoise(5e-6, c=0.0)
        log_b = math.log10(ALIFERIS.B)
        values = [
            logical_error_log10(ALIFERIS, model, k) for k in range(17)
        ]
        for k in range(16):
            assert values[k + 1] - 2.0 * values[k] - log_b == pytest.approx(
                0.0, abs=1e-9
            )


class TestAffineUsefulnessThreshold:
    def test_near_threshold_paper_anchor(self):
        # B eta0 = 0.8 requires a very weak slope, roughly c < 0.1.
        assert affine_usefulness_threshold(10 ** 4, 8e-5) == pytest.approx(
            1.0 / math.sqrt(0.8) - 1.0, abs=1e-12
        )
        assert affine_usefulness_threshold(10 ** 4, 8e-5) == pytest.approx(
            0.118034, abs=1e-6
        )

    def test_boundary_and_beyond(self):
        assert affine_usefulness_threshold(10 ** 4, 1e-4) == 0.0
        assert affine_usefulness_threshold(10 ** 4, 2e-4) == 0.0  # no c helps

    def test_far_below_threshold(self):
        assert affine_usefulness_threshold(10 ** 4, 5e-6) == pytest.approx(
            1.0 / math.sqrt(0.05) - 1.0, abs=1e-12
        )

    @given(
        eta0=st.floats(1e-8, 9.9e-5),
        offset=st.floats(-0.5, 0.5),
    )
    @settings(deadline=None, max_examples=200)
    def test_first_level_helps_iff_slope_below_critical(self, eta0, offset):
        c_star = affine_usefulness_threshold(ALIFERIS.B, eta0)
        c = max(0.0, c_star * (1.0 + offset))
        if abs(c - c_star) / max(c_star, 1e-12) < 1e-9:
            return  # too close to the boundary to resolve in floats
        model = AffineNoise(eta0, c=c)
        p0 = logical_error_log10(ALIFERIS, model, 0)
        p1 = logical_error_log10(ALIFERIS, model, 1)
        assert (p1 < p0) is (c < c_star)


class TestGenericKmaxBound:
    def test_affine_like_table(self):
        # f(k) = 1 + k, B eta0 = 0.05: bound = 1 + f^-1(20) = 20.
        model = TabulatedNoise(5e-6, tuple(float(1 + k) for k in range(25)))
        bound = generic_kmax_bound(ALIFERIS, model)
        assert bound == pytest.approx(20.0, abs=1e-9)
        result = find_kmax(ALIFERIS, model, k_cap=24)
        assert result.status == STATUS_OPTIMUM
        assert result.k_max < bound

    def test_constant_table_has_no_turnaround(self):
        model = TabulatedNoise(5e-6, (1.0, 1.0, 1.0, 1.0))
        assert generic_kmax_bound(ALIFERIS, model) == math.inf

    def test_geometric_table_matches_continuous_inverse(self):
        # f(k) = 291^k, B eta0 = 1e-8: bound = 1 + ln(1e8)/ln(291).
        model = TabulatedNoise(1e-12, tuple(291.0 ** k for k in range(6)))
        expected = 1.0 + math.log(1e8) / math.log(291)
        assert generic_kmax_bound(ALIFERIS, model) == pytest.approx(expected, rel=1e-9)
        assert generic_kmax_bound(ALIFERIS, model) == pytest.approx(4.2469, abs=1e-4)

    def test_above_threshold_degenerate(self):
        model = TabulatedNoise(2e-4, (1.0, 2.0, 3.0))  # B eta0 = 2 > 1
        assert generic_kmax_bound(ALIFERIS, model) == 1.0

    def test_bound_caps_the_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            growth = rng.uniform(1.05, 3.0)
            table = tuple(float(growth ** k) for k in range(30))
            eta0 = 10.0 ** rng.uniform(-9, -4.5)
            model = TabulatedNoise(eta0, table)
            bound = generic_kmax_bound(ALIFERIS, model)
            result = find_kmax(ALIFERIS, model, k_cap=29)
            if result.status == STATUS_OPTIMUM:
                assert result.k_max < bound


class TestOneLevelCondition:
    def test_standard_counting(self):
        got = one_level_condition(10 ** 4, 291, 1.0)
        assert got == pytest.approx(1.0 / (1e4 * 291 ** 2), rel=1e-12)
        assert got == pytest.approx(1.181e-9, rel=1e-3)

    def test_flat_reduces_to_threshold(self):
        assert one_level_condition(10 ** 4, 291, 0.0) == pytest.approx(1e-4, rel=1e-12)

    def test_quadratic_scaling(self):
        got = one_level_condition(10 ** 4, 291, 2.0)
        assert got == pytest.approx(1.0 / (1e4 * 291 ** 4), rel=1e-12)
        assert got == pytest.approx(1.394e-14, rel=1e-3)


class TestExpModelBounds:
    def test_reference_point(self):
        # Independent evaluation for B=1e4, D=291, beta=1, eta0=1e-12:
        # k_st = -1/ln2 - ln(B eta0)/(beta ln D), k~ the p(k)=p(k-1) crossing.
        report = exp_model_bounds(ALIFERIS, 1e-12, 1.0)
        ln_be = math.log(1e4 * 1e-12)
        ln_d = math.log(291)
        assert report.k_st == pytest.approx(-1 / math.log(2) - ln_be / ln_d, rel=1e-12)
        assert report.k_st == pytest.approx(1.804, abs=1e-3)
        assert report.k_tilde == pytest.approx(-(ln_be + ln_d) / ln_d, rel=1e-12)
        assert report.k_tilde == pytest.approx(2.247, abs=1e-3)
        assert report.log10_p_lower == pytest.approx(-16.414, abs=1e-3)
        assert report.log10_p_upper == pytest.approx(-15.695, abs=1e-3)
        assert report.useful

        # Cross-check the sandwich against the integer scan.
        result = find_kmax(ALIFERIS, ExponentialNoise(1e-12, beta=1.0))
        assert result.k_max == 2
        assert result.log10_p_min.log10_value == pytest.approx(-16.29, abs=1e-2)
        assert (
            report.log10_p_lower
            <= result.log10_p_min.log10_value
            <= report.log10_p_upper
        )

    def test_bound_values_match_continuous_curve(self):
        # log10 p at k_st and k_tilde evaluated through the recursion at
        # real levels must equal the closed forms.
        report = exp_model_bounds(ALIFERIS, 1e-12, 1.0)
        direct_lower, direct_upper = logical_error_log10(
            ALIFERIS, ExponentialNoise(1e-12, beta=1.0),
            np.array([report.k_st, report.k_tilde]),
        ).tolist()
        assert report.log10_p_lower == pytest.approx(direct_lower, rel=1e-9)
        assert report.log10_p_upper == pytest.approx(direct_upper, rel=1e-9)

    def test_usefulness_boundary(self):
        eta_star = one_level_condition(ALIFERIS.B, ALIFERIS.D, 1.0)
        assert exp_model_bounds(ALIFERIS, eta_star * 0.99, 1.0).useful
        assert not exp_model_bounds(ALIFERIS, eta_star * 1.01, 1.0).useful

    def test_vanishing_beta_pushes_crossing_out(self):
        # beta -> 0+ with B eta0 < 1 recovers the thresholded behavior.
        report = exp_model_bounds(ALIFERIS, 5e-6, 1e-9)
        assert report.k_tilde > 1e6
        assert report.k_st > 1e6

    def test_subnormal_beta_keeps_the_overflow_limit(self):
        # g1 * beta rounds to 0 while (B eta0)^(-g2/beta) overflows: the
        # upper bound is the limit p -> 0, not 0 * inf = nan.
        report = exp_model_bounds(make_scheme(1, 1, 1, 2, 1), 1e-9, 5e-324)
        assert report.log10_p_upper == -math.inf

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            exp_model_bounds(ALIFERIS, 1e-12, 0.0)
        with pytest.raises(ValueError):
            exp_model_bounds(ALIFERIS, 1.5, 1.0)

    def test_sandwich_and_bracket_random_sample(self):
        # Smaller cousin of the acceptance sweep, kept here as a unit guard.
        rng = np.random.default_rng(42)
        for _ in range(200):
            B = int(10 ** rng.uniform(2, 6))
            D = int(rng.integers(2, 1001))
            beta = rng.uniform(0.05, 3.0)
            scheme = make_scheme(575, 291, B, D, 3)
            eta_star = one_level_condition(B, D, beta)
            eta0 = eta_star * 10.0 ** (-rng.uniform(0.05, 4.0))
            report = exp_model_bounds(scheme, eta0, beta)
            assert report.useful
            k_cap = max(64, math.ceil(report.k_tilde) + 2)
            result = find_kmax(scheme, ExponentialNoise(eta0, beta=beta), k_cap=k_cap)
            p_min = result.log10_p_min.log10_value
            tol = 1e-9 * max(1.0, abs(p_min))
            assert report.log10_p_lower <= p_min + tol
            assert p_min <= report.log10_p_upper + tol
            assert report.k_tilde - 1.0 - 1e-9 <= result.k_max <= report.k_tilde + 1e-9

    def test_linear_probability_is_convex_in_continuous_level(self):
        # p(k), not log10 p(k), is convex in k; checked on a representable
        # window via non-decreasing second differences.
        for eta0, beta in ((1e-12, 1.0), (1e-7, 0.3), (1e-10, 2.0)):
            report = exp_model_bounds(ALIFERIS, eta0, beta)
            ks = np.linspace(0.0, report.k_tilde + 2.0, 200)
            logs = logical_error_log10(ALIFERIS, ExponentialNoise(eta0, beta=beta), ks)
            p = 10.0 ** np.clip(logs, -300, 300)
            second = np.diff(p, 2)
            assert np.all(second >= -1e-12 * np.max(p))


class TestSweepMinima:
    @pytest.mark.parametrize("law, grid", [
        ({"model": "affine", "eta0": 2e-6}, {"c": np.linspace(0.0, 6.0, 5)}),
        ({"model": "affine"}, {"c": np.linspace(0.0, 3.0, 3),
                               "eta0": np.geomspace(1e-9, 5e-5, 4)}),
        ({"model": "exp", "eta0": 1e-10}, {"beta": np.linspace(0.05, 2.5, 6)}),
        ({"model": "exp"}, {"beta": np.linspace(0.1, 1.5, 4),
                            "eta0": np.geomspace(1e-12, 1e-6, 3)}),
    ], ids=["affine-c", "affine-c-eta0", "exp-beta", "exp-beta-eta0"])
    @pytest.mark.parametrize("block", [optimizer.SWEEP_BLOCK, 7])
    def test_each_point_is_its_own_scan(self, monkeypatch, law, grid, block):
        # One block holds the whole grid, or 7 curve values split every curve
        # over blocks of a single point.
        monkeypatch.setattr(optimizer, "SWEEP_BLOCK", block)
        fixed = dict(law)
        k_max, p_min = sweep_minima(ALIFERIS, law, grid, 16)
        assert law == fixed
        points = list(itertools.product(*grid.values()))
        assert k_max.shape == p_min.shape == (len(points),)
        for i, values in enumerate(points):
            result = find_kmax(ALIFERIS, model_from_dict(dict(law, **dict(zip(grid, values)))), 16)
            assert k_max[i] == result.k_max
            assert p_min[i] == result.log10_curve[result.k_max]


class TestCurveCsv:
    def test_header_and_shape(self, capsys):
        assert main(["optimize", "--model", "affine", "--eta0", "5e-6", "--c", "1",
                     "--kcap", "3", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert lines[0] == "k,log10_p"
        assert len(lines) == 5
        assert lines[1].startswith("0,")
