"""Photon budgets and the energetic bill for Shor's algorithm."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecopt.gatesim import GateSpec, pulse_params
from qecopt.optimizer import DEFAULT_K_CAP
from qecopt.scheme import PI_SQ_OVER_16, get_scheme, make_scheme
from qecopt.shor import (
    HBAR,
    MinBudget,
    ShorProblem,
    energy_bill,
    error_target,
    min_photon_budget,
    optimize_photon_budget,
    photon_noise_model,
    rwa_margin,
    target_logical_error,
)

from conftest import clear_caches

ALIFERIS = get_scheme("aliferis2006")


class TestShorProblem:
    def test_gate_count_defaults_to_square(self):
        assert ShorProblem(R=2048).L == 2048 ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShorProblem(R=1)
        with pytest.raises(ValueError):
            ShorProblem(R=10, P_target=0.5)
        with pytest.raises(ValueError):
            ShorProblem(R=10, P_target=1.0)
        with pytest.raises(ValueError, match="float range"):
            ShorProblem(R=10 ** 200)  # L = R^2 has no float value


class TestTargetLogicalError:
    def test_standard_two_thirds(self):
        problem = ShorProblem(R=2048)
        assert target_logical_error(problem) == pytest.approx(
            1.0 / (3.0 * 2048 ** 2), rel=1e-12
        )
        assert target_logical_error(problem) == pytest.approx(7.95e-8, rel=1e-2)

    def test_smallest_key(self):
        assert target_logical_error(ShorProblem(R=2)) == pytest.approx(1.0 / 12.0)

    def test_thousand_bit_key(self):
        assert target_logical_error(ShorProblem(R=10 ** 3)) == pytest.approx(
            1.0 / 3e6, rel=1e-12
        )

    def test_general_target_uses_log_expansion(self):
        problem = ShorProblem(R=100, P_target=0.9)
        assert target_logical_error(problem) == pytest.approx(
            -math.log(0.9) / 100 ** 2, rel=1e-12
        )


class TestOptimizePhotonBudget:
    def test_model_construction(self):
        problem = ShorProblem(R=10 ** 3)
        model = photon_noise_model(problem, 1e6, ALIFERIS)
        assert model.n_L == 1e6  # L cancels: the law sees photons per logical gate
        assert model.A == ALIFERIS.D  # per-level gate growth
        assert model == photon_noise_model(ShorProblem(R=10 ** 7), 1e6, ALIFERIS)

    def test_small_key_needs_no_encoding(self):
        result = optimize_photon_budget(ShorProblem(R=10 ** 3), 1e6, ALIFERIS)
        assert result.k_max == 0
        # p(0) = (pi^2/16)/n_L
        assert result.log10_p_min.log10_value == pytest.approx(
            math.log10(PI_SQ_OVER_16 / 1e6), abs=1e-12
        )

    def test_medium_key_prefers_one_level(self):
        result = optimize_photon_budget(ShorProblem(R=10 ** 5), 1e9, ALIFERIS)
        assert result.k_max == 1

    def test_budget_just_above_second_level_crossing(self):
        # the level-1 -> level-2 crossing sits at B (pi^2/16) D^3 photons
        crossing = ALIFERIS.B * PI_SQ_OVER_16 * ALIFERIS.D ** 3
        result = optimize_photon_budget(ShorProblem(R=10 ** 7), crossing * 2, ALIFERIS)
        assert result.k_max == 2

    def test_more_photons_never_hurt(self):
        problem = ShorProblem(R=10 ** 5)
        values = [
            optimize_photon_budget(problem, n_L, ALIFERIS).log10_p_min.log10_value
            for n_L in np.logspace(4, 14, 40)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_k_staircase_is_non_decreasing(self):
        problem = ShorProblem(R=10 ** 3)
        ks = [
            optimize_photon_budget(problem, n_L, ALIFERIS).k_max
            for n_L in np.logspace(4, 14, 60)
        ]
        assert ks == sorted(ks)


class TestMinPhotonBudget:
    def test_thousand_bit_closed_form(self):
        # At level 0 the target is met at n_L = (pi^2/16)/p_err exactly.
        problem = ShorProblem(R=10 ** 3)
        budget = min_photon_budget(problem, ALIFERIS)
        expected = PI_SQ_OVER_16 / target_logical_error(problem)
        assert budget.feasible
        assert budget.k == 0
        assert expected <= budget.n_L <= expected * (1.0 + 1e-9)
        assert budget.n_L == pytest.approx(1.85e6, rel=0.02)

    def test_section_five_triple(self):
        # R = 1e3 / 1e5 / 1e7 need levels 0 / 1 / 2 at minimal budgets of
        # order 1e6 / 1e9 / 1e11 photons per logical gate.
        for R, expected_k, order in ((10 ** 3, 0, 1e6), (10 ** 5, 1, 1e9),
                                     (10 ** 7, 2, 1e11)):
            budget = min_photon_budget(ShorProblem(R=R), ALIFERIS)
            assert budget.feasible
            assert budget.k == expected_k
            assert order / 3.2 <= budget.n_L <= order * 3.2

    def test_trivial_target_needs_one_photon(self):
        # p(0) at a single photon equals pi^2/16 exactly in real arithmetic;
        # the no-slack log10 comparison may land one ulp either side, so the
        # answer is 1 up to rounding.
        budget = min_photon_budget(
            ShorProblem(R=10 ** 3), ALIFERIS, p_err=PI_SQ_OVER_16
        )
        assert 1.0 <= budget.n_L <= 1.0 + 1e-9
        assert budget.k == 0
        # A hair above the exact boundary the single photon suffices exactly.
        relaxed = min_photon_budget(
            ShorProblem(R=10 ** 3), ALIFERIS, p_err=PI_SQ_OVER_16 * 1.0001
        )
        assert relaxed.n_L == 1.0
        assert relaxed.k == 0

    def test_unreachable_target_is_explicit(self):
        budget = min_photon_budget(
            ShorProblem(R=10 ** 3), ALIFERIS, p_err=1e-300, n_L_cap=1e12
        )
        assert not budget.feasible
        assert budget.log10_p_min is None

    @pytest.mark.parametrize("p_err", [0.0, -1.0, math.nan, math.inf, 2.0])
    def test_p_err_must_lie_in_unit_interval(self, p_err):
        with pytest.raises(ValueError, match=r"perr must lie in \(0, 1\]"):
            min_photon_budget(ShorProblem(R=10 ** 3), ALIFERIS, p_err=p_err)
        with pytest.raises(ValueError, match="perr"):
            error_target(ShorProblem(R=10 ** 3), p_err)
        assert error_target(ShorProblem(R=10 ** 3), 1.0) == 1.0

    def test_consistency_with_the_optimizer(self):
        # The returned budget meets the target; half of it does not.
        problem = ShorProblem(R=10 ** 5)
        target = math.log10(target_logical_error(problem))
        budget = min_photon_budget(problem, ALIFERIS)
        at_budget = optimize_photon_budget(problem, budget.n_L, ALIFERIS)
        at_half = optimize_photon_budget(problem, 0.5 * budget.n_L, ALIFERIS)
        assert at_budget.log10_p_min.log10_value <= target
        assert at_half.log10_p_min.log10_value > target

    @pytest.mark.parametrize("cap", [0.0, -5.0, math.nan, math.inf])
    def test_cap_must_be_positive_and_finite(self, cap):
        with pytest.raises(ValueError, match="nlcap"):
            min_photon_budget(ShorProblem(R=10 ** 3), ALIFERIS, n_L_cap=cap)

    @settings(max_examples=300, deadline=None)
    @given(
        R=st.integers(2, 10 ** 7),
        log_p_err=st.floats(-30.0, -0.3),
        log_B=st.floats(0.0, 6.0),
        D=st.integers(2, 1000),
    )
    def test_budget_is_the_exact_minimum(self, R, log_p_err, log_B, D):
        # Meets the target, one part in 10^9 less does not (unless a single
        # photon already suffices), and its level is the re-scan's k_max.
        scheme = make_scheme(575, 291, max(1, round(10 ** log_B)), D, 3)
        problem = ShorProblem(R=R)
        p_err = 10.0 ** log_p_err
        budget = min_photon_budget(problem, scheme, p_err=p_err)
        if not budget.feasible:
            return
        target = math.log10(p_err)
        at = optimize_photon_budget(problem, budget.n_L, scheme)
        assert at.log10_p_min.log10_value <= target
        assert (budget.k, budget.log10_p_min) == (at.k_max, at.log10_curve[at.k_max])
        if budget.n_L > 1.0:
            below = optimize_photon_budget(problem, budget.n_L * (1 - 1e-9), scheme)
            assert below.log10_p_min.log10_value > target

    @settings(max_examples=500, deadline=None)
    @given(
        log_p_err=st.floats(-300.0, 0.0),
        B=st.integers(1, 10 ** 6),
        D=st.integers(1, 10 ** 4),
        log_cap=st.floats(0.0, 300.0),
    )
    def test_crossing_search_matches_the_scalar_minimum(self, log_p_err, B, D, log_cap):
        # The crossings are one array expression over the levels; the
        # level-by-level minimum it replaced, kept here as the reference,
        # gives the same float, so the budget is the same bits.
        p_err, cap = 10.0 ** log_p_err, 10.0 ** log_cap
        target, log_b = math.log10(p_err), math.log10(B)
        log_n = min(
            log_b + math.log10(PI_SQ_OVER_16) + k * math.log10(D)
            - (target + log_b) / 2.0 ** k
            for k in range(DEFAULT_K_CAP + 1)
        )
        budget = min_photon_budget(ShorProblem(R=1000), make_scheme(575, 291, B, D, 3),
                                   p_err=p_err, n_L_cap=cap)
        assert budget.feasible == (log_n <= math.log10(cap))
        if budget.feasible:
            assert budget.n_L == max(1.0, 10.0 ** log_n * (1.0 + 1e-12))

    @settings(max_examples=40, deadline=None)
    @given(queries=st.lists(st.tuples(st.integers(2, 10 ** 7), st.integers(1, 10 ** 6),
                                      st.integers(1, 10 ** 4),
                                      st.none() | st.floats(1e-30, 1.0)),
                            min_size=2, max_size=8),
           shuffle=st.randoms(use_true_random=False))
    def test_warm_cold_and_reordered_budgets_agree(self, queries, shuffle):
        def budget(query):
            R, B, D, p_err = query
            got = min_photon_budget(ShorProblem(R=R), make_scheme(1, 1, B, D, 1), p_err=p_err)
            return repr(got)

        cold = []
        for query in queries:
            clear_caches()
            cold.append(budget(query))
        warm = [budget(query) for query in queries]
        order = list(range(len(queries)))
        shuffle.shuffle(order)
        shuffled = {i: budget(queries[i]) for i in order}
        assert warm == cold == [shuffled[i] for i in range(len(queries))]

    def test_level_is_non_decreasing_in_key_length(self):
        ks = [
            min_photon_budget(ShorProblem(R=R), ALIFERIS).k
            for R in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7)
        ]
        assert ks == sorted(ks)


class TestEnergyBill:
    def test_thousand_bit_reference(self):
        problem = ShorProblem(R=10 ** 3)
        bill = energy_bill(problem, 1e6, 0, gamma=10.0, omega0=1e10, scheme=ALIFERIS)
        assert bill.n_g == pytest.approx(1e6)
        assert bill.E_tot == pytest.approx(HBAR * 1e10 * 1e6 * 1e6, rel=1e-12)
        assert bill.E_tot == pytest.approx(1.05e-12, rel=1e-2)  # ~1 pJ
        assert bill.tau_g == pytest.approx(2.467e-7, rel=1e-3)  # ~100 ns scale
        assert bill.T_tot == pytest.approx(0.2467, rel=1e-3)  # ~100 ms scale
        assert bill.P_avg == pytest.approx(4.274e-12, rel=1e-3)  # ~1 pW scale

    def test_hundred_thousand_bit_reference(self):
        problem = ShorProblem(R=10 ** 5)
        bill = energy_bill(problem, 1e9, 1, gamma=10.0, omega0=1e10, scheme=ALIFERIS)
        assert bill.n_g == pytest.approx(1e9 / 291.0, rel=1e-12)
        assert bill.E_tot == pytest.approx(1.05e-5, rel=1e-2)  # ~10 uJ
        assert bill.T_tot == pytest.approx(2.15e3, rel=1e-2)  # ~1000 s scale
        assert bill.P_avg == pytest.approx(4.90e-9, rel=1e-2)  # ~1 nW scale

    def test_no_concatenation_means_no_clock_slowdown(self):
        problem = ShorProblem(R=10 ** 3)
        bill = energy_bill(problem, 1e6, 0, gamma=10.0, omega0=1e10, scheme=ALIFERIS)
        assert bill.tau_L == bill.tau_g

    @pytest.mark.parametrize("n_L,k", [(1e6, 0), (1e9, 1), (1e11, 2), (3e12, 3)])
    def test_identities(self, n_L, k):
        problem = ShorProblem(R=10 ** 4)
        bill = energy_bill(problem, n_L, k, gamma=10.0, omega0=1e10, scheme=ALIFERIS)
        assert bill.n_g == pytest.approx(n_L / ALIFERIS.D ** k, rel=1e-12)
        assert bill.tau_L == pytest.approx(ALIFERIS.M ** k * bill.tau_g, rel=1e-12)
        assert bill.T_tot == pytest.approx(problem.L * bill.tau_L, rel=1e-12)
        assert bill.P_avg * bill.T_tot == pytest.approx(bill.E_tot, rel=1e-12)

    def test_validation(self):
        problem = ShorProblem(R=10 ** 3)
        with pytest.raises(ValueError):
            energy_bill(problem, 0.0, 0, 10.0, 1e10, ALIFERIS)
        with pytest.raises(ValueError):
            energy_bill(problem, 1e6, -1, 10.0, 1e10, ALIFERIS)

    @pytest.mark.parametrize("n_L,gamma,omega0", [
        (math.inf, 10.0, 1e10), (1e6, math.inf, 1e10), (1e6, 10.0, math.nan),
        (1e300, 1e300, 1e10), (1e300, 10.0, 1e300), (1e-300, 1e-300, 1e10),
    ])
    def test_figures_stay_finite(self, n_L, gamma, omega0):
        # Each case used to divide by zero or report an infinite figure; the
        # first three build no pulse, so no margin either.
        with pytest.raises(ValueError):
            energy_bill(ShorProblem(R=10 ** 3), n_L, 0, gamma, omega0, ALIFERIS)


def gate_pulse(n_L, k, gamma, omega0, scheme=ALIFERIS):
    """The physical pulse that a bill at (n_L, k) prices."""
    return energy_bill(ShorProblem(R=10 ** 3), n_L, k, gamma, omega0, scheme).pulse


class TestRwaMargin:
    def test_thousand_bit_operating_point(self):
        assert rwa_margin(gate_pulse(1e6, 0, gamma=10.0, omega0=1e10)) == (
            pytest.approx(1e3)
        )

    def test_boundary_value(self):
        # n_g = omega0/gamma sits exactly at the approximation boundary
        assert rwa_margin(gate_pulse(1e9, 0, gamma=1.0, omega0=1e9)) == (
            pytest.approx(1.0)
        )

    @pytest.mark.parametrize("gamma,omega0", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_margin_stays_finite(self, gamma, omega0):
        # omega0/gamma leaves the float range (inf, or 0) for a legal pulse.
        with pytest.raises(ValueError, match="rotating-wave margin"):
            rwa_margin(GateSpec(theta=math.pi, gamma=gamma, n_g=1.0, omega0=omega0))

    def test_concatenated_operating_point(self):
        got = rwa_margin(gate_pulse(1e11, 2, gamma=10.0, omega0=1e10))
        n_g = 1e11 / 291.0 ** 2
        assert n_g == pytest.approx(1.18e6, rel=1e-2)
        assert got == pytest.approx(1e9 / n_g, rel=1e-12)
        assert got == pytest.approx(8.47e2, rel=2e-2)


def _assert_bill_prices_the_law(problem, n_L, k, scheme):
    """The bill's n_g and the RWA margin use the photons per physical gate
    of the noise law the optimizer scans: eta(k) = (pi^2/16) / n_g."""
    law = photon_noise_model(problem, n_L, scheme)
    bill = energy_bill(problem, n_L, k, gamma=10.0, omega0=1e10, scheme=scheme)
    assert bill.n_g == pytest.approx(PI_SQ_OVER_16 / 10.0 ** law.log10_eta(k), rel=1e-12)
    assert rwa_margin(bill.pulse) == pytest.approx((1e10 / 10.0) / bill.n_g, rel=1e-12)


@pytest.mark.parametrize("n_L,k", [(1e6, 0), (1e9, 1), (1e11, 2), (3e12, 3)])
def test_bill_and_margin_are_the_gate_pulse(n_L, k):
    # One pulse formula and one margin, gatesim's, to the bit.
    bill = energy_bill(ShorProblem(R=10 ** 4), n_L, k, 10.0, 1e10, ALIFERIS)
    pulse = GateSpec(theta=math.pi, gamma=10.0, n_g=bill.n_g, omega0=1e10)
    assert bill.pulse == pulse
    assert bill.tau_g == pulse_params(pulse)[1] == math.pi ** 2 / (4.0 * 10.0 * bill.n_g)
    assert rwa_margin(bill.pulse) == pulse.rwa_margin


class TestOnePhotonLaw:
    @pytest.mark.parametrize("R, k", [(10 ** 3, 0), (10 ** 5, 1), (10 ** 7, 2)])
    def test_bill_at_the_minimum_budget(self, R, k):
        problem = ShorProblem(R=R)
        budget = min_photon_budget(problem, ALIFERIS)
        assert budget.k == k
        _assert_bill_prices_the_law(problem, budget.n_L, budget.k, ALIFERIS)

    @settings(max_examples=200, deadline=None)
    @given(log_n_L=st.floats(0.0, 20.0), k=st.integers(0, 12),
           D=st.integers(2, 1000), R=st.integers(2, 10 ** 6))
    def test_bill_over_a_grid(self, log_n_L, k, D, R):
        scheme = make_scheme(575, 291, 10_000, D, 3)
        _assert_bill_prices_the_law(ShorProblem(R=R), 10.0 ** log_n_L, k, scheme)
