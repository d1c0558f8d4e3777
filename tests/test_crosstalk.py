"""Lattice crosstalk strength, asymptotics and the local-noise mapping."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecopt import crosstalk
from qecopt.cli import main
from qecopt.crosstalk import (
    B_AMPLIFICATION,
    LOCAL_NOISE_PREFACTOR,
    MAX_CHAIN_SITES,
    MAX_SQUARE_SIDE,
    LatticeSpec,
    amplified_fault_pairs,
    crosstalk_usefulness_threshold,
    delta0_asymptotic,
    delta_lattice_oracle,
    effective_local_error,
    logical_crosstalk_log10,
)
from qecopt.scheme import get_scheme, make_scheme

from conftest import clear_caches

ALIFERIS = get_scheme("aliferis2006")
# The square oracle's stated bound, relative to the exactly rounded row sum
# of the same powers, for every side from 2 to the cap and every z >= 0.
SQUARE_REL_BOUND = 1e-15


def literal_chain_max(n: int, z: float) -> float:
    """Direct double loop over all qubit pairs, for small chains."""
    best = 0.0
    for i in range(n):
        best = max(best, sum(abs(i - j) ** (-z) for j in range(n) if j != i))
    return best


def direct_chain_sum(n0: int, z: float) -> float:
    """The centre row sum of an n0-site chain, each power exactly summed:
    2 H_c(z) plus the far edge (c+1)^-z of an even side, c = (n0-1)//2."""
    c = (n0 - 1) // 2
    edge = (c + 1) ** -z if n0 % 2 == 0 else 0.0
    return 2.0 * math.fsum(u ** -z for u in range(1, c + 1)) + edge


def exact_square_sum(side: int, z: float) -> float:
    """The centre row sum of a side x side square, exactly rounded: the
    math.fsum of every term, each folded offset pair (u, v) standing for its
    w_u w_v mirror images (w = 2 for 1 <= u <= c, 1 otherwise)."""
    c = (side - 1) // 2
    squares = np.arange(side - c, dtype=float) ** 2
    weights = np.full(side - c, 2.0)
    weights[0] = 1.0
    if side % 2 == 0:
        weights[-1] = 1.0

    def rows():
        for u, (square, weight) in enumerate(zip(squares, weights)):
            with np.errstate(divide="ignore"):
                terms = (square + squares) ** (-z / 2.0)
            if u == 0:
                terms[0] = 0.0
            yield (weight * weights * terms).tolist()

    return math.fsum(itertools.chain.from_iterable(rows()))


def exactly_rounded_sum(blocks) -> float:
    """The exactly rounded sum of the non-negative floats in ``blocks``.

    Each float is a 53-bit integer times 2^(e-53).  The integers' 26-bit
    halves are added per e as floats, which stays exact while a total is
    below 2^53 (up to 2^26 floats), and the totals are joined as Python
    integers, whose true division rounds correctly."""
    totals = np.zeros((2, 2100))
    for block in blocks:
        mantissa, exponent = np.frexp(block)
        digits = (mantissa * 2.0 ** 53).astype(np.int64)
        for row, part in enumerate((digits >> 26, digits & (2 ** 26 - 1))):
            totals[row] += np.bincount(exponent + 1074, weights=part, minlength=2100)
    numerator = sum((int(high) * 2 ** 26 + int(low)) << j
                    for j, (high, low) in enumerate(totals.T) if high or low)
    return numerator / 2 ** 1127


def exact_square_sum_by_symmetry(side: int, z: float) -> float:
    """exact_square_sum with each term v > u standing for itself and its
    mirror (v, u), summed by exactly_rounded_sum."""
    c = (side - 1) // 2
    squares = np.arange(side - c, dtype=float) ** 2
    weights = np.full(side - c, 2.0)
    weights[0] = 1.0
    if side % 2 == 0:
        weights[-1] = 1.0

    def rows():
        for u in range(side - c):
            with np.errstate(divide="ignore"):
                terms = (squares[u] + squares[u:]) ** (-z / 2.0)
            terms *= 2.0 * weights[u] * weights[u:]  # 2, 4 or 8: exact
            terms[0] = 0.0 if u == 0 else terms[0] / 2.0  # the diagonal has no mirror
            yield terms

    return exactly_rounded_sum(rows())


def square_oracle(side: int, z: float) -> float:
    return delta_lattice_oracle(LatticeSpec(d=2, z=z, N0=side * side, aspect="square"))


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
        for z in (math.nan, math.inf):
            with pytest.raises(ValueError, match="z must be"):
                LatticeSpec(d=1, z=z, N0=100)

    def test_json_round_trip_fields(self):
        spec = LatticeSpec(d=2, z=1.0, N0=10 ** 4, aspect="square")
        assert LatticeSpec(**spec.to_dict()) == spec


class TestDeltaLatticeOracle:
    def test_three_site_chain_by_hand(self):
        # center of a 3-chain couples to both neighbours at unit distance
        spec = LatticeSpec(d=1, z=0.5, N0=3)
        assert delta_lattice_oracle(spec) == pytest.approx(2.0, abs=1e-12)

    def test_z_zero_counts_pairs(self):
        for n in (2, 17, 127, 128, 129, 130, 1000, 1001, MAX_CHAIN_SITES):
            spec = LatticeSpec(d=1, z=0.0, N0=n)
            assert delta_lattice_oracle(spec) == n - 1, n

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

    @settings(max_examples=150, deadline=None)
    @given(n0=st.integers(2, 2 * 10 ** 5), z=st.floats(0.0, 60.0))
    def test_chain_matches_the_direct_sum(self, n0, z):
        got = delta_lattice_oracle(LatticeSpec(d=1, z=z, N0=n0))
        assert got == pytest.approx(direct_chain_sum(n0, z), rel=1e-15, abs=0.0)

    # c = 63, 64, 65 at the switch to Euler-Maclaurin, odd and even sides,
    # the cap, and the integral's three forms: expm1 within 1/8 of z = 1,
    # a log at z = 1, the difference of powers elsewhere.
    @pytest.mark.parametrize("n0", [127, 128, 129, 130, 131, 132, 1001, 1002,
                                    MAX_CHAIN_SITES])
    @pytest.mark.parametrize("z", [0.5, 0.875, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.125, 2.5])
    def test_chain_matches_the_direct_sum_at_the_seams(self, n0, z):
        got = delta_lattice_oracle(LatticeSpec(d=1, z=z, N0=n0))
        assert got == pytest.approx(direct_chain_sum(n0, z), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n0", [2, 129, 130, MAX_CHAIN_SITES])
    @pytest.mark.parametrize("z", [1e3, 1e160, 1e300])
    def test_chain_at_huge_z(self, n0, z):
        # (z)_m overflows where x^(-z-m) underflows; every term but u = 1 is 0.
        got = delta_lattice_oracle(LatticeSpec(d=1, z=z, N0=n0))
        assert got == direct_chain_sum(n0, z) == (1.0 if n0 == 2 else 2.0)

    def test_euler_maclaurin_remainder_bound(self):
        # 2 zeta(12)/(2 pi)^12 (z)_11 M^(-z-11), zeta(12) = 691 pi^12/638512875,
        # in logs so that no (z)_11 overflows.
        m = crosstalk._EM_START
        log_const = math.log(2.0 * 691.0 / (638512875.0 * 2.0 ** 12))
        worst = 0.0
        for z in [*np.linspace(1e-6, 60.0, 60001), 1e3, 1e160, 1e300]:
            log_rising = math.fsum(math.log(z + i) for i in range(11))
            worst = max(worst, math.exp(log_const + log_rising - (z + 11.0) * math.log(m)))
        assert 6.0e-24 < worst < 6.1e-24  # the docstring's maximum, near z = 0.55

    # Every square holds one bound, SQUARE_REL_BOUND, against the exactly
    # rounded sum.  Up to side 128 (c < 64) the square is the triangle u <= v
    # of its box alone (2.2e-16 seen over ~7000 squares); from side 129 on,
    # the 64^2 box's triangle and two product Euler-Maclaurin rectangles
    # (3.8e-16 seen over ~2000 squares up to side 2500).
    @settings(max_examples=150, deadline=None)
    @given(side=st.integers(2, 128) | st.sampled_from([64, 65, 127, 128, 129, 130]),
           z=st.floats(0.0, 60.0))
    def test_small_square_matches_the_exact_sum(self, side, z):
        assert square_oracle(side, z) == pytest.approx(
            exact_square_sum(side, z), rel=SQUARE_REL_BOUND, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(side=st.integers(129, 2500), z=st.floats(0.0, 60.0))
    def test_square_matches_the_exact_sum(self, side, z):
        assert square_oracle(side, z) == pytest.approx(
            exact_square_sum(side, z), rel=SQUARE_REL_BOUND, abs=0.0)

    # n = side - c = 64, 65, 65, 66, 66, 67: the last squares that are their
    # box alone, then c = 64 (strips one line wide, a one-site block) and
    # the first lines past the box.
    @pytest.mark.parametrize("side", [127, 128, 129, 130, 131, 132])
    @pytest.mark.parametrize("z", [0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 4.0])
    def test_square_matches_the_exact_sum_at_the_seams(self, side, z):
        assert square_oracle(side, z) == pytest.approx(
            exact_square_sum(side, z), rel=SQUARE_REL_BOUND, abs=0.0)

    # The side cap and the odd side below it, at z = 2's seams and away from
    # them; each reference sums about 1.25e7 powers exactly.  These hold to
    # 6e-16 (2.4e-16 seen).  At z = 0.6, 2 - z rounds by half an ulp, and
    # r^(2-z) taken as r2 ** ((2-z)/2) rather than r2 * r2 ** (-z/2) would
    # carry that times ln(r) ~ 9 into the sum: 1.0e-15.
    @pytest.mark.parametrize("side", [MAX_SQUARE_SIDE - 1, MAX_SQUARE_SIDE])
    @pytest.mark.parametrize("z", [0.05, 0.6, 1.875, 2.0 - 1e-9, 2.0, 2.125, 7.5])
    def test_square_matches_the_exact_sum_at_the_cap(self, side, z):
        assert square_oracle(side, z) == pytest.approx(
            exact_square_sum_by_symmetry(side, z), rel=6e-16, abs=0.0)

    def test_reference_by_symmetry_is_the_exact_sum(self):
        # Terms from 8 down to subnormals and zeros (z = 300).
        for side, z in ((129, 0.5), (130, 2.0), (301, 7.5), (300, 0.05), (12, 1.0),
                        (40, 300.0), (2, 1.0)):
            assert exact_square_sum_by_symmetry(side, z) == exact_square_sum(side, z)

    # Rectangles nearer the centre than any square's: a lower end at a
    # negative offset, a range through an axis, one line and one site.
    @pytest.mark.parametrize("rect", [(-30, 30, 20, 400), (25, 300, -40, 90),
                                      (20, 20, -90, 90), (70, 70, 70, 70), (21, 350, 33, 34)])
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 2.05, 3.5])
    def test_rectangle_sum(self, rect, z):
        ua, ub, va, vb = rect
        u, v = np.meshgrid(np.arange(ua, ub + 1.0), np.arange(va, vb + 1.0))
        exact = math.fsum(((u * u + v * v) ** (-z / 2.0)).ravel().tolist())
        parts = crosstalk._rectangle_parts(crosstalk._rectangle_geometry([rect]), z)
        assert parts.shape == (12, 1)
        assert math.fsum(parts.ravel().tolist()) == pytest.approx(exact, rel=1e-14, abs=0.0)

    # Every side up to 128 (the box's weights alone, odd and even far edges),
    # then the box with the rectangles.
    @pytest.mark.parametrize("side", [*range(2, 129), 130, 2000, 2001, MAX_SQUARE_SIDE])
    def test_square_z_zero_counts_sites(self, side):
        assert square_oracle(side, 0.0) == side * side - 1

    @pytest.mark.parametrize("side", [3, 4, 128, 129, 130, 2001, MAX_SQUARE_SIDE])
    @pytest.mark.parametrize("z", [1e3, 1e160, 1e300])
    def test_square_at_huge_z(self, side, z):
        # Four neighbours at distance 1; every other term is below half an
        # ulp of 4, and no inf * 0 forms a NaN (a RuntimeWarning fails here).
        assert square_oracle(side, z) == 4.0

    # Floats of the box's triangle, pinned: squares of side <= 128 keep them
    # bit for bit.  Each is the exactly rounded sum.
    @pytest.mark.parametrize("side, z, value", [
        (24, 0.5, 205.85054383242476), (24, 3.0, 8.56153637345826),
        (64, 0.5, 903.1212397164162), (64, 3.0, 8.856809031575738),
        (127, 0.5, 2528.1248881921165), (127, 3.0, 8.944539665342552),
        (128, 0.5, 2558.019311298939), (128, 3.0, 8.945228840072742),
    ])
    def test_small_squares_keep_their_floats(self, side, z, value):
        assert square_oracle(side, z) == value

    # Floats of the box with the rectangles, pinned: splitting the rectangle
    # kernel into a geometry kept per side and its z part moves no bit.
    @pytest.mark.parametrize("side, values", [
        (129, (2588.1239585095745, 32.538371035061914, 29.456324263009282, 8.94592071220124)),
        (130, (2618.252660454622, 32.59810126591751, 29.50453750759645, 8.946588865100974)),
        (1000, (55899.15550548576, 49.318376466255124, 42.3238224296369, 9.022307965173885)),
        (1001, (55983.04473768419, 49.32699955589437, 42.33010761361075, 9.022319281707983)),
        (MAX_SQUARE_SIDE, (1767745.7015915532, 70.35513099443467, 56.79139464791681,
                           9.032490312241624)),
    ])
    def test_large_squares_keep_their_floats(self, side, values):
        assert tuple(square_oracle(side, z) for z in (0.5, 1.95, 2.0, 3.0)) == values

    # A square's rectangles' geometry is kept per side (_far_geometry): a
    # warm call, a call after every cache is cleared and calls in shuffled z
    # order give the same floats, on both parities, at z = 0 and z = 2 and
    # within 1/8 of it, where the radial integral changes form.
    @settings(max_examples=40, deadline=None)
    @given(side=st.integers(129, MAX_SQUARE_SIDE) | st.sampled_from([129, 130, MAX_SQUARE_SIDE]),
           zs=st.lists(st.floats(0.0, 60.0) | st.floats(1.875, 2.125)
                       | st.sampled_from([0.0, 2.0, 2.0 - 1e-9, 2.0 + 1e-9]),
                       min_size=2, max_size=6),
           shuffle=st.randoms(use_true_random=False))
    def test_cached_geometry_keeps_the_floats(self, side, zs, shuffle):
        def parts_and_oracle(z):
            parts = crosstalk._rectangle_parts(crosstalk._far_geometry(side)[0], z)
            return parts.tobytes(), square_oracle(side, z)

        cold = []
        for z in zs:
            clear_caches()
            cold.append(parts_and_oracle(z))
        warm = [parts_and_oracle(z) for z in zs]
        order = list(range(len(zs)))
        shuffle.shuffle(order)
        shuffled = {i: parts_and_oracle(zs[i]) for i in order}
        assert warm == cold == [shuffled[i] for i in range(len(zs))]

    def test_geometry_cache_is_bounded(self):
        # Full of even sides, the largest entries, the cache holds under 1 MB.
        maxsize = crosstalk._far_geometry.cache_info().maxsize
        crosstalk._far_geometry.cache_clear()
        square_oracle(MAX_SQUARE_SIDE, 1.5)  # the module's other caches
        crosstalk._far_geometry.cache_clear()
        tracemalloc.start()
        try:
            for side in range(130, 130 + 2 * (maxsize + 5), 2):
                square_oracle(side, 1.5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 ** 20, held

    def test_gegenbauer_bound(self):
        # |C_m^(s)(x)| <= (2s)_m / m! on [-1, 1] for s > 0: the case b = 0 of
        # the derivative bound the square's remainder rests on.
        from scipy.special import eval_gegenbauer, poch

        x = np.linspace(-1.0, 1.0, 2001)
        for s in [*np.linspace(0.01, 30.0, 300), 1e3, 1e6]:
            for m in range(13):
                bound = poch(2.0 * s, m) / math.factorial(m)
                assert np.max(np.abs(eval_gegenbauer(m, s, x))) <= bound * (1.0 + 1e-12), (s, m)

    def test_derivative_table_is_the_gegenbauer_sum(self):
        # d^m f/dx^m = m! r^(-z-m) C_m^(z/2)(-x/r) for f = (x^2 + t^2)^(-z/2);
        # row m = 2j-1 of the table over B_2j/(2j)! gives it as
        # x^-m sum_n K[m, n] (z/2)_n p^n f, p = x^2/r^2.
        from scipy.special import eval_gegenbauer, poch

        table, hankel = crosstalk._EM_TABLE, crosstalk._EM_HANKEL
        assert not table[::2].any() and not table.flags.writeable
        assert (hankel == np.add.outer(np.arange(12), np.arange(12))).all()
        n = np.arange(12)
        rng = np.random.default_rng(5)
        for _ in range(300):
            x, t, z = rng.uniform(1.0, 100.0), rng.uniform(-100.0, 100.0), rng.uniform(0.01, 20.0)
            r2 = x * x + t * t
            for j, coeff in enumerate(crosstalk._EM_COEFFS, start=1):
                m = 2 * j - 1
                got = x ** -m * np.sum(table[m] / coeff * poch(z / 2.0, n) * (x * x / r2) ** n)
                want = math.factorial(m) * r2 ** (-m / 2.0) * eval_gegenbauer(m, z / 2.0, -x / r2 ** 0.5)
                scale = poch(z, m) * r2 ** (-m / 2.0)  # the bound on |want|
                assert got == pytest.approx(want, rel=0.0, abs=1e-11 * scale), (x, t, z, m)

    def test_mixed_derivative_bound(self):
        # With w = u + iv, f = (w wbar)^(-s), d/du = d/dw + d/dwbar and
        # d/dv = i (d/dw - d/dwbar), where d^p/dw^p d^q/dwbar^q f =
        # (-1)^(p+q) (s)_p (s)_q w^(-s-p) wbar^(-s-q).  Then
        # |d^a/du^a d^b/dv^b f| <= (z)_(a+b) r^(-z-a-b), which the square's
        # remainder bound rests on, and the corners' Taylor formula
        # u^-a v^-b sum K[a, n1] K[b, n2] (s)_(n1+n2) p^n1 q^n2 f agrees.
        from scipy.special import comb, poch

        def k_row(m):
            return np.array([(-1) ** n * 2.0 ** (2 * n - m) * math.factorial(m)
                             / (math.factorial(m - n) * math.factorial(2 * n - m))
                             if m <= 2 * n <= 2 * m else 0.0 for n in range(12)])

        rng = np.random.default_rng(9)
        n1, n2 = np.meshgrid(np.arange(12), np.arange(12), indexing="ij")
        for _ in range(8):
            u, v, z = rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0), rng.uniform(0.01, 12.0)
            s, w, r2 = z / 2.0, complex(u, v), u * u + v * v
            for a, b in itertools.product((0, 1, 2, 3, 6, 11, 12), repeat=2):
                wirtinger = sum(
                    comb(a, i) * comb(b, j) * 1j ** b * (-1) ** (b - j + a + b)
                    * poch(s, i + j) * poch(s, a + b - i - j)
                    * w ** (-s - i - j) * w.conjugate() ** (-s - a - b + i + j)
                    for i in range(a + 1) for j in range(b + 1))
                bound = poch(z, a + b) * r2 ** (-(z + a + b) / 2.0)
                assert abs(wirtinger.imag) <= 1e-9 * bound
                assert abs(wirtinger.real) <= bound * (1.0 + 1e-9), (u, v, z, a, b)
                if max(a, b) < 12:
                    taylor = u ** -a * v ** -b * r2 ** -s * np.sum(
                        np.outer(k_row(a), k_row(b)) * poch(s, n1 + n2)
                        * (u * u / r2) ** n1 * (v * v / r2) ** n2)
                    assert taylor == pytest.approx(wirtinger.real, rel=0.0, abs=1e-9 * bound)

    def test_product_remainder_bound(self):
        # delta_lattice_oracle's bound on the square's Euler-Maclaurin
        # remainder, with kappa = 2 zeta(12)/(2 pi)^12 and zeta(12) =
        # 691 pi^12/638512875, in logs so that no (z)_24 overflows.  At
        # z = 1e300 lgamma's rounding is far below (z + 22) ln M.
        m = crosstalk._EM_START
        log_kappa = math.log(2.0 * 691.0 / (638512875.0 * 2.0 ** 12))

        def bound(z):
            p = z + 12.0
            log_beta = 0.5 * math.log(math.pi) + math.lgamma((p - 1.0) / 2.0) - math.lgamma(p / 2.0)
            lines = log_kappa + math.lgamma(z + 12.0) - math.lgamma(z)  # kappa (z)_12
            area = 2.0 * log_kappa + math.lgamma(z + 24.0) - math.lgamma(z)
            return math.fsum(math.exp(term) for term in (
                lines + math.log(4.0) + log_beta + (2.0 - p) * math.log(m - 1) - math.log(p - 2.0),
                lines + math.log(4.0 * (2 * m - 1)) + (1.0 - p) * math.log(m) - math.log(p - 1.0),
                lines + math.log(2.0) + log_beta + (1.0 - p) * math.log(m + 1),
                area + math.log(2.0 * math.pi) - (z + 22.0) * math.log(m) - math.log(z + 22.0)))

        zs = [*np.linspace(1e-6, 60.0, 60001), 1e3, 1e160, 1e300]
        values = [bound(z) for z in zs]
        worst = max(values)
        assert 4.6e-21 < worst < 4.7e-21  # the docstring's maximum
        assert zs[values.index(worst)] == pytest.approx(0.54, abs=0.005)

    def test_edge_integral_bernstein_bound(self):
        # Each edge integral is a 32-point rule in y = asinh(t/x0), whose
        # integrand meets cosh's zero at y = i pi/2; its Bernstein parameter
        # bounds the rule's error by O(rho^-64).  Over the edges of every
        # square from side 129 to the cap, the least lies on the blocks'
        # near edge u = M at c = 4999.
        edges = []
        for side in range(129, MAX_SQUARE_SIDE + 1):
            for ua, ub, va, vb in crosstalk._far_rectangles(side)[0]:
                # The edges u = ua, u = ub, v = va, v = vb and their ranges.
                for fixed, lo, hi in ((ua, va, vb), (ub, va, vb), (va, ua, ub), (vb, ua, ub)):
                    if lo < hi:
                        edges.append((abs(fixed), lo, hi))
        x0, lo, hi = np.array(edges, dtype=float).T
        y_lo, y_hi = np.arcsinh(lo / x0), np.arcsinh(hi / x0)
        t = (0.5j * math.pi - (y_lo + y_hi) / 2.0) / ((y_hi - y_lo) / 2.0)
        root = np.sqrt(t * t - 1.0)
        rho = np.maximum(np.abs(t + root), np.abs(t - root))
        assert 3.0759 < rho.min() < 3.0760
        assert tuple(edges[np.argmin(rho)]) == (crosstalk._EM_START, crosstalk._EM_START,
                                                (MAX_SQUARE_SIDE - 1) // 2)

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
        assert peak <= 4 * 2 ** 20, peak


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
        assert oracle == 10 ** 4 - 1
        assert abs(delta0_asymptotic(spec) - oracle) / oracle == 1.0 / (10 ** 4 - 1)

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

        # C_0 = integral of sec^2 = tan(pi/4), C_1 = integral of sec =
        # ln(1 + sqrt(2)), C_2 = integral of 1 = pi/4
        for z, exact in ((0.0, 1.0), (1.0, math.log(1.0 + math.sqrt(2.0))),
                         (2.0, math.pi / 4.0)):
            assert _c_z_integral(z) == pytest.approx(exact, rel=1e-14, abs=0.0), z

    def test_quadrature_constant_against_adaptive_quadrature(self):
        from scipy.integrate import quad

        from qecopt.crosstalk import _c_z_integral

        # quad's error estimate is a loose bound here; its 21-point Kronrod
        # sums of this analytic integrand agree with the closed forms above
        # to a few ulps.
        for z in np.linspace(0.0, 2.0, 41):
            reference, err = quad(lambda t: math.cos(t) ** (z - 2.0), 0.0, math.pi / 4.0,
                                  epsabs=0.0, epsrel=1e-13)
            assert err < 1e-13
            assert _c_z_integral(z) == pytest.approx(reference, rel=1e-14, abs=0.0), z

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

    def test_small_lattice_warns(self, caplog):
        delta0_asymptotic(LatticeSpec(d=1, z=0.5, N0=50))
        [record] = caplog.records
        assert record.name == "qecopt" and record.levelname == "WARNING"
        assert "unreliable" in record.getMessage()

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
        assert got == math.log10(1e-16)

    def test_level_one_linear_space_oracle(self):
        # t0 DL(1) = (b' t0 D0)^2 / b' * D^(2 beta) with b' = B_AMP * B^2,
        # evaluated in plain floats (representable here).
        b_prime = B_AMPLIFICATION * 1e8
        expected = (b_prime * 1e-16) ** 2 / b_prime * 291.0 ** 2
        got = logical_crosstalk_log10(ALIFERIS, 1e-16, 1.0, 1)
        assert got == pytest.approx(math.log10(expected), rel=1e-12)
        assert got == pytest.approx(-17.743, abs=1e-3)

    def test_fixed_point_of_the_recursion(self):
        t0_delta = 1.0 / amplified_fault_pairs(ALIFERIS.B)
        reference = math.log10(t0_delta)
        for k in range(11):
            got = logical_crosstalk_log10(ALIFERIS, t0_delta, 0.0, k)
            assert got == pytest.approx(reference, abs=1e-10)

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
            lhs = logical_crosstalk_log10(scheme, t0_delta, beta, k)
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
    def test_header_and_row(self, capsys):
        assert main(["longrange", "--lattice", "chain", "--z", "0.5", "--N0", "10001",
                     "--compare", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert lines[0] == "N0,oracle,asymptotic,rel_err"
        assert lines[1].startswith("10001,")
