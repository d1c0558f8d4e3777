"""Lattice crosstalk strength, asymptotics and the local-noise mapping."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qecopt.crosstalk import (
    B_AMPLIFICATION,
    LOCAL_NOISE_PREFACTOR,
    MAX_CHAIN_SITES,
    MAX_SQUARE_SIDE,
    LatticeSpec,
    amplified_fault_pairs,
    compare_to_csv,
    crosstalk_usefulness_threshold,
    delta0_asymptotic,
    delta_lattice_oracle,
    effective_local_error,
    logical_crosstalk_log10,
)
from qecopt.scheme import get_scheme, make_scheme

ALIFERIS = get_scheme("aliferis2006")


def literal_chain_max(n: int, z: float) -> float:
    """Direct double loop over all qubit pairs, for small chains."""
    best = 0.0
    for i in range(n):
        best = max(best, sum(abs(i - j) ** (-z) for j in range(n) if j != i))
    return best


def literal_square_max(side: int, z: float) -> float:
    sites = [(i, j) for i in range(side) for j in range(side)]
    best = 0.0
    for si, sj in sites:
        row = sum(
            math.hypot(si - i, sj - j) ** (-z)
            for i, j in sites
            if (i, j) != (si, sj)
        )
        best = max(best, row)
    return best


class TestLatticeSpec:
    def test_dimension_aspect_consistency(self):
        with pytest.raises(ValueError):
            LatticeSpec(d=1, z=0.5, N0=100, aspect="square")
        with pytest.raises(ValueError):
            LatticeSpec(d=2, z=0.5, N0=100, aspect="chain")

    def test_square_needs_square_count(self):
        LatticeSpec(d=2, z=1.0, N0=10 ** 6, aspect="square")
        with pytest.raises(ValueError):
            LatticeSpec(d=2, z=1.0, N0=10 ** 6 + 1, aspect="square")

    def test_basic_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(d=1, z=-0.5, N0=100)
        with pytest.raises(ValueError):
            LatticeSpec(d=1, z=0.5, N0=1)
        with pytest.raises(ValueError, match="z must be"):
            LatticeSpec(d=1, z=math.nan, N0=100)

    def test_json_round_trip_fields(self):
        spec = LatticeSpec(d=2, z=1.0, N0=10 ** 4, aspect="square")
        assert LatticeSpec(**spec.to_dict()) == spec


class TestDeltaLatticeOracle:
    def test_three_site_chain_by_hand(self):
        # center of a 3-chain couples to both neighbours at unit distance
        spec = LatticeSpec(d=1, z=0.5, N0=3)
        assert delta_lattice_oracle(spec) == pytest.approx(2.0, abs=1e-12)

    def test_z_zero_counts_pairs(self):
        for n in (2, 17, 1000):
            spec = LatticeSpec(d=1, z=0.0, N0=n)
            assert delta_lattice_oracle(spec) == pytest.approx(n - 1, abs=1e-9)

    def test_long_chain_matches_direct_summation(self):
        # 2 * sum_{m<=5000} m^{-1/2} at the center of a 10001-site chain
        spec = LatticeSpec(d=1, z=0.5, N0=10001)
        direct = 2.0 * float(np.sum(np.arange(1, 5001, dtype=float) ** -0.5))
        got = delta_lattice_oracle(spec)
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(279.94, abs=0.01)

    def test_matches_literal_double_loop_chains(self):
        for n in (2, 3, 4, 9, 10):
            for z in (0.0, 0.5, 1.0, 2.0):
                spec = LatticeSpec(d=1, z=z, N0=n)
                assert delta_lattice_oracle(spec) == pytest.approx(
                    literal_chain_max(n, z), rel=1e-12
                )

    def test_matches_literal_double_loop_squares(self):
        for side in (2, 3, 4, 5):
            for z in (0.0, 0.5, 1.0, 2.0):
                spec = LatticeSpec(d=2, z=z, N0=side * side, aspect="square")
                assert delta_lattice_oracle(spec) == pytest.approx(
                    literal_square_max(side, z), rel=1e-12
                )

    def test_center_site_shortcut_equals_full_scan(self):
        # The oracle sums the centre site only; the literal maximum over all
        # sites agrees on odd and even sides, z = 0 included.
        for side in range(2, 13):
            for z in (0.0, 0.5, 1.0, 2.0, 4.0):
                spec = LatticeSpec(d=2, z=z, N0=side * side, aspect="square")
                assert delta_lattice_oracle(spec) == pytest.approx(
                    literal_square_max(side, z), rel=1e-12
                ), (side, z)

    def test_size_caps(self):
        with pytest.raises(ValueError, match="capped"):
            delta_lattice_oracle(LatticeSpec(d=1, z=0.5, N0=10 ** 6 + 1))
        side = MAX_SQUARE_SIDE + 1
        with pytest.raises(ValueError, match="capped"):
            delta_lattice_oracle(LatticeSpec(d=2, z=0.5, N0=side * side, aspect="square"))

    @pytest.mark.parametrize("spec", [
        LatticeSpec(d=2, z=1.0, N0=MAX_SQUARE_SIDE ** 2, aspect="square"),
        LatticeSpec(d=1, z=0.5, N0=MAX_CHAIN_SITES),
    ], ids=["square", "chain"])
    def test_bounded_memory_at_the_caps(self, spec):
        tracemalloc.start()
        try:
            value = delta_lattice_oracle(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and value > 0
        assert peak <= 32 * 2 ** 20, peak


class TestDelta0Asymptotic:
    def test_chain_below_dimension(self):
        # 2^z N0^(1-z)/(1-z) vs the oracle, z = 0.5, N0 = 10001
        spec = LatticeSpec(d=1, z=0.5, N0=10001)
        asym = delta0_asymptotic(spec)
        assert asym == pytest.approx(2.0 ** 0.5 * 10001 ** 0.5 / 0.5, rel=1e-12)
        oracle = delta_lattice_oracle(spec)
        assert abs(asym - oracle) / oracle < 0.011

    def test_chain_z_zero_limit(self):
        spec = LatticeSpec(d=1, z=0.0, N0=10 ** 4)
        assert delta0_asymptotic(spec) == pytest.approx(10 ** 4, rel=1e-12)
        oracle = delta_lattice_oracle(spec)
        assert abs(delta0_asymptotic(spec) - oracle) / oracle == pytest.approx(
            1.0 / (10 ** 4 - 1), rel=1e-6
        )

    def test_square_coulomb_like(self):
        # 2^(z+1) N0^(1-z/2) C_z/(2-z) with C_1 = ln(1+sqrt(2))
        spec = LatticeSpec(d=2, z=1.0, N0=10 ** 6, aspect="square")
        asym = delta0_asymptotic(spec)
        expected = 4.0 * 1000.0 * math.log(1.0 + math.sqrt(2.0))
        assert asym == pytest.approx(expected, rel=1e-9)
        assert asym == pytest.approx(3525.5, abs=0.5)
        oracle = delta_lattice_oracle(spec)
        assert abs(asym - oracle) / oracle < 0.05

    def test_quadrature_constant_against_closed_form(self):
        from qecopt.crosstalk import _c_z_integral

        # z = 1: integral of sec(theta) over [0, pi/4] = ln(1 + sqrt(2))
        assert _c_z_integral(1.0) == pytest.approx(
            math.log(1.0 + math.sqrt(2.0)), abs=1e-10
        )
        # z = 2: integral of 1 = pi/4
        assert _c_z_integral(2.0) == pytest.approx(math.pi / 4.0, abs=1e-10)

    def test_marginal_decay_log_forms(self):
        chain = LatticeSpec(d=1, z=1.0, N0=10 ** 5)
        assert delta0_asymptotic(chain) == pytest.approx(
            2.0 * math.log(10 ** 5 / 2.0), rel=1e-12
        )
        assert delta0_asymptotic(chain, kappa=2.0) == pytest.approx(
            2.0 * math.log(10 ** 5), rel=1e-12
        )
        square = LatticeSpec(d=2, z=2.0, N0=10 ** 6, aspect="square")
        assert delta0_asymptotic(square) == pytest.approx(
            math.pi * math.log(10 ** 6 / 4.0), rel=1e-12
        )

    def test_out_of_regime_rejected(self):
        with pytest.raises(ValueError, match="z <= d"):
            delta0_asymptotic(LatticeSpec(d=1, z=1.5, N0=1000))

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_kappa_must_be_positive_and_finite(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            delta0_asymptotic(LatticeSpec(d=1, z=1.0, N0=1000), kappa=kappa)

    def test_small_lattice_warns(self):
        with pytest.warns(UserWarning, match="unreliable"):
            delta0_asymptotic(LatticeSpec(d=1, z=0.5, N0=50))

    def test_relative_deviation_shrinks_with_size(self):
        # power-law regime: <= 20% at N0 = 100, <= 5% at N0 = 1e4 (chain)
        # and N0 = 1e6 (square), probed at the acceptance exponents.
        for n0, tol in ((101, 0.20), (10 ** 4 + 1, 0.05)):
            spec = LatticeSpec(d=1, z=0.5, N0=n0)
            rel = abs(
                delta0_asymptotic(spec) - delta_lattice_oracle(spec)
            ) / delta_lattice_oracle(spec)
            assert rel <= tol, (n0, rel)
        for side, tol in ((10, 0.20), (1000, 0.05)):
            spec = LatticeSpec(d=2, z=1.0, N0=side * side, aspect="square")
            rel = abs(
                delta0_asymptotic(spec) - delta_lattice_oracle(spec)
            ) / delta_lattice_oracle(spec)
            assert rel <= tol, (side, rel)

    def test_power_law_scaling_stabilizes_under_doubling(self):
        # oracle / N0^(1-z) approaches a constant as N0 doubles
        z = 0.5
        ratios = []
        for n0 in (4000, 8000, 16000, 32000):
            oracle = delta_lattice_oracle(LatticeSpec(d=1, z=z, N0=n0))
            ratios.append(oracle / n0 ** (1.0 - z))
        diffs = [abs(b / a - 1.0) for a, b in zip(ratios, ratios[1:])]
        assert diffs[-1] < 0.005
        assert diffs == sorted(diffs, reverse=True)  # steadily converging

    def test_marginal_decay_grows_by_2ln2_per_doubling(self):
        z = 1.0
        for n0 in (2000, 16000, 128000):
            small = delta_lattice_oracle(LatticeSpec(d=1, z=z, N0=n0))
            large = delta_lattice_oracle(LatticeSpec(d=1, z=z, N0=2 * n0))
            assert large - small == pytest.approx(2.0 * math.log(2.0), rel=0.05)


class TestLocalNoiseMapping:
    def test_constants(self):
        assert B_AMPLIFICATION == pytest.approx(2.0 * math.exp(2.0 + 1.0 / math.e), rel=1e-15)
        assert B_AMPLIFICATION == pytest.approx(21.349, abs=1e-3)
        assert LOCAL_NOISE_PREFACTOR == pytest.approx(3.2672, abs=1e-4)

    def test_effective_local_error_zero(self):
        assert effective_local_error(0.0) == 0.0

    def test_effective_local_error_threshold_identity(self):
        # At t0 Delta = 1/(B_AMPLIFICATION B^2) the effective local noise is
        # exactly the threshold 1/B: (e^(1+1/2e))^2 * 2 = 2 e^(2+1/e).
        B = 10 ** 4
        t0_delta = 1.0 / (B_AMPLIFICATION * B * B)
        assert effective_local_error(t0_delta) == pytest.approx(1.0 / B, rel=1e-12)

    def test_effective_local_error_near_unity(self):
        assert effective_local_error(0.04683) == pytest.approx(1.000, abs=1e-3)

    def test_usefulness_threshold_values(self):
        got = crosstalk_usefulness_threshold(10 ** 4, 291, 0.0)
        assert got == pytest.approx(1.0 / (B_AMPLIFICATION * 1e8), rel=1e-12)
        assert got == pytest.approx(4.684e-10, rel=1e-3)
        assert crosstalk_usefulness_threshold(1, 1, 1.0) == pytest.approx(
            1.0 / B_AMPLIFICATION, rel=1e-12
        )
        assert crosstalk_usefulness_threshold(10 ** 4, 291, 1.0) == pytest.approx(
            5.531e-15, rel=1e-3
        )


class TestLogicalCrosstalk:
    def test_level_zero_exact(self):
        got = logical_crosstalk_log10(ALIFERIS, 1e-16, 1.0, 0)
        assert got.log10_value == math.log10(1e-16)

    def test_level_one_linear_space_oracle(self):
        # t0 DL(1) = (b' t0 D0)^2 / b' * D^(2 beta) with b' = B_AMP * B^2,
        # evaluated in plain floats (representable here).
        b_prime = B_AMPLIFICATION * 1e8
        expected = (b_prime * 1e-16) ** 2 / b_prime * 291.0 ** 2
        got = logical_crosstalk_log10(ALIFERIS, 1e-16, 1.0, 1)
        assert got.log10_value == pytest.approx(math.log10(expected), rel=1e-12)
        assert got.log10_value == pytest.approx(-17.743, abs=1e-3)

    def test_fixed_point_of_the_recursion(self):
        t0_delta = 1.0 / amplified_fault_pairs(ALIFERIS.B)
        reference = math.log10(t0_delta)
        for k in range(11):
            got = logical_crosstalk_log10(ALIFERIS, t0_delta, 0.0, k)
            assert got.log10_value == pytest.approx(reference, abs=1e-10)

    def test_reduction_identity_pointwise(self):
        # The crosstalk recursion is the logical-error recursion with the
        # amplified fault-pair count b' = B_AMPLIFICATION B^2, written out:
        # (2^k - 1) log b' + 2^k (log t0 Delta0 + beta k log D).
        rng = np.random.default_rng(3)
        for _ in range(300):
            B = int(10 ** rng.uniform(1, 5))
            D = int(rng.integers(2, 600))
            scheme = make_scheme(575, 291, B, D, 3)
            t0_delta = 10.0 ** rng.uniform(-18, -10)
            beta = rng.uniform(0.0, 2.0)
            k = int(rng.integers(0, 10))
            lhs = logical_crosstalk_log10(scheme, t0_delta, beta, k).log10_value
            log_bp = math.log10(B_AMPLIFICATION) + 2.0 * math.log10(B)
            rhs = (2 ** k - 1) * log_bp + 2 ** k * (
                math.log10(t0_delta) + beta * k * math.log10(D)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))

    def test_validation(self):
        with pytest.raises(ValueError):
            logical_crosstalk_log10(ALIFERIS, 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            logical_crosstalk_log10(ALIFERIS, 1e-16, -1.0, 1)
        with pytest.raises(ValueError):
            amplified_fault_pairs(0.5)
        with pytest.raises(ValueError):
            crosstalk_usefulness_threshold(0.5, 291, 0.0)


class TestCompareCsv:
    def test_header_and_row(self):
        text = compare_to_csv([(10001, 279.936, 282.857)])
        lines = text.strip().split("\n")
        assert lines[0] == "N0,oracle,asymptotic,rel_err"
        assert lines[1].startswith("10001,")
