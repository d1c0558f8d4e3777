"""Driven-qubit gate channel, chi extraction and asymptotics.

The closed-form channel is checked against two independent oracles defined
here: scipy.linalg.expm of the Bloch generator, and a classical 4th-order
Runge-Kutta integration of the Lindblad equation for the density matrix.
Neither shares code with the propagator.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qecopt import InputError
from qecopt.gatesim import (
    _CHI_COEFF,
    CP_TOL,
    RWA_MARGINAL_RATIO,
    GateSpec,
    QubitChannel,
    asymptotic_pauli_errors,
    choi_from_ptm,
    evolve_noisy_gate,
    extract_chi_diag,
    ideal_rotation_ptm,
    pulse_params,
)

PI = math.pi

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_BASIS = (np.eye(2, dtype=complex), _SX, _SY, _SZ)
_SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |1> decays into |0>
_SP = _SM.conj().T


def expm_noise_ptm(theta, n_g):
    """R(-theta) expm(tau G) by scipy's Pade expm, with tau G built here for
    the Bloch equations dx/dt = -gamma x/2, dy/dt = -gamma y/2 - Omega z,
    dz/dt = Omega y - gamma (z - 1): Omega tau = theta, gamma tau = theta^2/(4 n_g)."""
    w, g = theta, theta ** 2 / (4.0 * n_g)
    generator = np.array(
        [[0.0, 0.0, 0.0, 0.0], [0.0, -g / 2.0, 0.0, 0.0],
         [0.0, 0.0, -g / 2.0, -w], [g, 0.0, w, -g]]
    )
    return ideal_rotation_ptm(-theta) @ expm(generator)


def _lindblad_rhs(rho, omega, gamma):
    h = 0.5 * omega * _SX
    return -1j * (h @ rho - rho @ h) + gamma * (
        _SM @ rho @ _SP - 0.5 * (_SP @ _SM @ rho + rho @ _SP @ _SM)
    )


def _rk4_step(rho, omega, gamma, h):
    k1 = _lindblad_rhs(rho, omega, gamma)
    k2 = _lindblad_rhs(rho + 0.5 * h * k1, omega, gamma)
    k3 = _lindblad_rhs(rho + 0.5 * h * k2, omega, gamma)
    k4 = _lindblad_rhs(rho + h * k3, omega, gamma)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_noise_ptm(spec, steps):
    """Noise-map transfer matrix after `steps` RK4 steps over the pulse.

    One RK4 step is linear in rho, so `steps` steps are the steps-th power of
    the one-step transfer matrix, entry (i, j) = Tr(P_i step(P_j)) / 2.
    """
    omega, tau = pulse_params(spec)
    h = tau / steps
    one_step = np.array(
        [
            [0.5 * np.trace(p @ _rk4_step(q, omega, spec.gamma, h)).real for q in _BASIS]
            for p in _BASIS
        ]
    )
    c, s = math.cos(spec.theta), math.sin(spec.theta)
    undo_rotation = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, c, s], [0, 0, -s, c]], dtype=float
    )
    return undo_rotation @ np.linalg.matrix_power(one_step, steps)


# theta x n_g, with the critically damped point n_g = theta/16 (Omega = gamma/4)
# and an overdamped one below it.
ORACLE_GRID = [
    (theta, n_g)
    for theta in (PI / 4, PI / 2, PI, 2.3, 2.0 * PI)
    for n_g in (theta / 64.0, theta / 16.0, 1.0, 30.0, 1e3, 1e6)
]
ORACLE_STEPS = 2 ** 14


def _critical_neighbours(theta):
    """n_g = theta/16 (critical damping) and the floats on either side."""
    n_g = theta / 16.0
    return (n_g, math.nextafter(n_g, 0.0), math.nextafter(n_g, math.inf),
            n_g * (1.0 - 1e-9), n_g * (1.0 + 1e-9))


# Down to n_g = 1e-30: scipy's expm overflows once gamma tau passes ~3e38
# (n_g ~ 1e-38); the sub-photon steady-state test covers the range below.
EXPM_GRID = [
    (theta, n_g)
    for theta in (PI, PI / 2, 2.0 * PI, 2.3, 0.3, 1e-3)
    for n_g in (theta / 64.0, *_critical_neighbours(theta), 1e-30, 1e-8,
                1e-2, 1.0, 30.0, 1e3, 1e6, 1e12)
]
PROPAGATOR_ABS = 1e-13


class TestGateSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GateSpec(theta=0.0, gamma=1.0, n_g=10.0)
        with pytest.raises(ValueError):
            GateSpec(theta=PI, gamma=0.0, n_g=10.0)
        with pytest.raises(ValueError):
            GateSpec(theta=PI, gamma=1.0, n_g=-1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        for field in ("theta", "gamma", "n_g", "omega0"):
            kwargs = {"theta": PI, "gamma": 1.0, "n_g": 10.0, "omega0": 1e9}
            kwargs[field] = bad
            with pytest.raises(ValueError, match=field):
                GateSpec(**kwargs)

    def test_rwa_margin(self):
        spec = GateSpec(theta=PI, gamma=10.0, n_g=1e6, omega0=1e10)
        assert spec.rwa_margin == pytest.approx(1e3)
        assert GateSpec(theta=PI, gamma=1.0, n_g=10.0).rwa_margin == math.inf

    @settings(max_examples=300)
    @given(
        log10_gamma=st.floats(-300.0, 300.0),
        log10_n_g=st.floats(-300.0, 300.0),
        log10_omega0=st.none() | st.floats(-300.0, 300.0),
    )
    def test_rwa_margin_is_refused_only_outside_float_range(
        self, log10_gamma, log10_n_g, log10_omega0
    ):
        # inf means "no omega0" and nothing else; a margin that overflows or
        # underflows is refused on read, by both properties alike.
        omega0 = None if log10_omega0 is None else 10.0 ** log10_omega0
        spec = GateSpec(theta=PI, gamma=10.0 ** log10_gamma, n_g=10.0 ** log10_n_g,
                        omega0=omega0)
        if omega0 is None:
            assert (spec.rwa_margin, spec.rwa_marginal) == (math.inf, False)
            return
        margin = (omega0 / spec.gamma) / spec.n_g
        if 0.0 < margin < math.inf:
            assert spec.rwa_margin == margin
            assert spec.rwa_marginal is (margin <= RWA_MARGINAL_RATIO)
            return
        message = f"rotating-wave margin is outside float range: {margin:g}"
        for name in ("rwa_margin", "rwa_marginal"):
            with pytest.raises(InputError) as refused:
                getattr(spec, name)
            assert str(refused.value) == message


class TestPulseParams:
    def test_closed_forms(self):
        omega, tau = pulse_params(GateSpec(theta=PI, gamma=1.0, n_g=100.0))
        assert omega == pytest.approx(400.0 / PI, rel=1e-12)
        assert tau == pytest.approx(PI ** 2 / 400.0, rel=1e-12)

    def test_rotation_angle_identity(self):
        for theta, gamma, n_g in ((PI, 1.0, 100.0), (PI / 2, 3.0, 7.5), (2.0, 0.1, 1e4)):
            omega, tau = pulse_params(GateSpec(theta=theta, gamma=gamma, n_g=n_g))
            assert omega * tau == pytest.approx(theta, rel=1e-12)

    def test_fast_gate_anchor(self):
        # gamma = 10/s and a million photons give a sub-microsecond pulse
        _, tau = pulse_params(GateSpec(theta=PI, gamma=10.0, n_g=1e6))
        assert tau == pytest.approx(PI ** 2 / 4e7, rel=1e-12)
        assert tau == pytest.approx(2.467e-7, rel=1e-3)


class TestExtractChiDiag:
    def test_identity_channel(self):
        assert extract_chi_diag(np.eye(4)) == pytest.approx((1.0, 0.0, 0.0, 0.0))

    def test_pure_x_flip(self):
        # E(rho) = 0.8 rho + 0.2 X rho X has transfer diag(1, 1, 0.6, 0.6)
        ptm = np.diag([1.0, 1.0, 0.6, 0.6])
        assert extract_chi_diag(ptm) == pytest.approx((0.8, 0.2, 0.0, 0.0))

    def test_depolarizing_round_trip(self):
        p = 0.03
        ptm = np.diag([1.0] + [1.0 - 4.0 * p / 3.0] * 3)
        chi = extract_chi_diag(ptm)
        assert chi == pytest.approx((0.97, 0.01, 0.01, 0.01))

    def test_rejects_non_trace_preserving(self):
        bad = np.diag([0.9, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="trace"):
            extract_chi_diag(bad)

    @pytest.mark.parametrize("ptm, shape", [(np.eye(3), (3, 3)), (np.eye(5), (5, 5)),
                                            (np.eye(4).ravel(), (16,))])
    def test_rejects_a_matrix_that_is_not_4x4(self, ptm, shape):
        with pytest.raises(ValueError, match=re.escape(f"transfer matrix must be 4x4, got {shape}")):
            extract_chi_diag(ptm)


class TestEvolveNoisyGate:
    def test_noiseless_limit_is_identity_channel(self):
        # gamma/Omega ~ 1e-12 by giving the pulse a huge photon number
        spec = GateSpec(theta=PI, gamma=1.0, n_g=PI / 4e-12)
        channel = evolve_noisy_gate(spec)
        assert np.max(np.abs(channel.ptm - np.eye(4))) < 1e-6
        assert channel.chi_diag[0] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n_g,tol", [(1e2, 0.05), (1e3, 0.02), (1e4, 0.01)])
    def test_pi_pulse_error_matches_asymptotics(self, n_g, tol):
        channel = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=n_g))
        p_x = channel.chi_diag[1]
        assert p_x == pytest.approx(PI ** 2 / (16.0 * n_g), rel=tol)

    def test_x_to_y_error_ratio(self):
        channel = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=1e3))
        assert channel.chi_diag[1] / channel.chi_diag[2] == pytest.approx(2.0, rel=0.05)

    def test_asymptotic_envelope_across_photon_range(self):
        # |p_x * 16 n_g / pi^2 - 1| <= 5/n_g + 0.02 over n_g in [1e2, 1e6]
        for n_g in (1e2, 1e3, 1e4, 1e5, 1e6):
            channel = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=n_g))
            deviation = abs(channel.chi_diag[1] * 16.0 * n_g / PI ** 2 - 1.0)
            assert deviation <= 5.0 / n_g + 0.02, (n_g, deviation)

    def test_gamma_invariance_at_fixed_photon_number(self):
        # gamma only sets the time scale; tau G depends on n_g and theta alone
        a = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=500.0))
        b = evolve_noisy_gate(GateSpec(theta=PI, gamma=7.3, n_g=500.0))
        assert np.max(np.abs(a.ptm - b.ptm)) < 1e-12

    def test_trace_preservation_and_positivity_grid(self):
        for theta in (PI / 4, PI / 2, PI, 1.8 * PI):
            for n_g in (3.0, 30.0, 3000.0):
                channel = evolve_noisy_gate(
                    GateSpec(theta=theta, gamma=1.0, n_g=n_g)
                )
                assert np.max(np.abs(channel.ptm[0] - [1, 0, 0, 0])) < 1e-9
                eigmin = np.min(np.linalg.eigvalsh(choi_from_ptm(channel.ptm)))
                assert eigmin > -1e-8
                assert sum(channel.chi_diag) <= 1.0 + 1e-9

    def test_bloch_ball_contraction(self):
        rng = np.random.default_rng(11)
        channel = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=5.0))
        for _ in range(200):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
            out = channel.ptm @ np.array([1.0, *v])
            assert out[0] == 1.0
            assert np.linalg.norm(out[1:]) <= 1.0 + 1e-9

    def test_fourth_order_convergence(self):
        # The oracle's error against the exact channel falls ~16x per halving.
        spec = GateSpec(theta=PI, gamma=1.0, n_g=10.0)
        exact = np.array(evolve_noisy_gate(spec).chi_diag)
        err = {
            steps: np.max(np.abs(np.array(extract_chi_diag(rk4_noise_ptm(spec, steps))) - exact))
            for steps in (40, 80, 160)
        }
        assert 10.0 < err[40] / err[80] < 24.0
        assert 10.0 < err[80] / err[160] < 24.0

    @pytest.mark.parametrize("theta,n_g", EXPM_GRID)
    def test_closed_form_matches_expm(self, theta, n_g):
        channel = evolve_noisy_gate(GateSpec(theta=theta, gamma=1.0, n_g=n_g))
        gap = np.max(np.abs(channel.ptm - expm_noise_ptm(theta, n_g)))
        assert gap <= PROPAGATOR_ABS, gap

    @settings(deadline=None, max_examples=300)
    @given(
        theta=st.floats(1e-3, 2.0 * PI),
        log10_n_g=st.floats(-30.0, 12.0),
        critical=st.sampled_from([None, 0, 1, 2, 3, 4]),
    )
    def test_closed_form_matches_expm_property(self, theta, log10_n_g, critical):
        n_g = 10.0 ** log10_n_g if critical is None else _critical_neighbours(theta)[critical]
        channel = evolve_noisy_gate(GateSpec(theta=theta, gamma=1.0, n_g=n_g))
        gap = np.max(np.abs(channel.ptm - expm_noise_ptm(theta, n_g)))
        assert gap <= PROPAGATOR_ABS, (theta, n_g, gap)

    def test_exact_channel_matches_rk4_oracle(self):
        for theta, n_g in ORACLE_GRID:
            spec = GateSpec(theta=theta, gamma=1.0, n_g=n_g)
            channel = evolve_noisy_gate(spec)
            oracle = rk4_noise_ptm(spec, ORACLE_STEPS)
            gap = np.max(np.abs(channel.ptm - oracle))
            assert gap < 1e-11, (theta, n_g, gap)
            chi_gap = np.max(np.abs(np.subtract(channel.chi_diag, extract_chi_diag(oracle))))
            assert chi_gap < 1e-11, (theta, n_g, chi_gap)

    @settings(deadline=None, max_examples=200)
    @given(
        theta=st.floats(0.0, 2.0 * PI, exclude_min=True),
        log10_gamma=st.floats(-3.0, 3.0),
        log10_n_g=st.floats(-20.0, 12.0),
    )
    def test_channel_is_valid_over_the_input_range(self, theta, log10_gamma, log10_n_g):
        spec = GateSpec(theta=theta, gamma=10.0 ** log10_gamma, n_g=10.0 ** log10_n_g)
        channel = evolve_noisy_gate(spec)
        assert np.max(np.abs(channel.ptm[0] - [1, 0, 0, 0])) <= 1e-9
        assert np.min(np.linalg.eigvalsh(choi_from_ptm(channel.ptm))) >= -1e-8
        assert sum(channel.chi_diag) <= 1.0 + 1e-9

    def test_sub_photon_pulses_reach_the_steady_state(self):
        # gamma tau = theta^2/(4 n_g) >> 1: every input relaxes to the
        # driven steady state y = -2 r z, z = 1/(1 + 2 r^2), r = Omega/gamma,
        # which the inverse pi rotation maps to (-y, -z).  Fixed-step
        # integration needed ~1e6 and ~1e10 steps for the first two pulses;
        # the closed form stays finite for every finite gamma tau.
        for n_g in (1e-4, 1e-8, 1e-100, 1e-300):
            channel = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=n_g))
            r = 4.0 * n_g / PI
            z = 1.0 / (1.0 + 2.0 * r * r)
            assert channel.ptm[2] == pytest.approx([2.0 * r * z, 0, 0, 0], abs=1e-12)
            assert channel.ptm[3] == pytest.approx([-z, 0, 0, 0], abs=1e-12)

    def test_overflowing_propagator_is_a_value_error(self):
        # gamma tau = pi^2 / (4e-320) is itself beyond float range.
        with pytest.raises(ValueError, match="propagator is not finite"):
            evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=1e-320))

    def test_composition_of_half_pulses(self):
        # Two pi/2 pulses sharing the photon budget compose to the pi-pulse
        # channel up to O(1/n_g) corrections.
        n_g = 1e3
        full = evolve_noisy_gate(GateSpec(theta=PI, gamma=1.0, n_g=n_g))
        half = evolve_noisy_gate(GateSpec(theta=PI / 2, gamma=1.0, n_g=n_g / 2))
        composed = extract_chi_diag(half.ptm @ half.ptm)
        diff = np.max(np.abs(np.array(composed) - np.array(full.chi_diag)))
        assert diff < 1.0 / n_g

    def test_rwa_warning(self, caplog):
        spec = GateSpec(theta=PI, gamma=1.0, n_g=1e8, omega0=1e9)
        evolve_noisy_gate(spec)
        [record] = caplog.records
        assert record.name == "qecopt" and record.levelname == "WARNING"
        assert "rotating-wave" in record.getMessage()

    @pytest.mark.parametrize("omega0,warned", [
        (1e9, True), (math.nextafter(1e9, math.inf), False), (None, False),
    ])
    def test_rwa_warning_threshold(self, caplog, omega0, warned):
        # The warning and the reports' rwa_marginal share one threshold:
        # a margin of exactly RWA_MARGINAL_RATIO is marginal.
        spec = GateSpec(theta=PI, gamma=1.0, n_g=1e7, omega0=omega0)
        assert spec.rwa_marginal is warned
        evolve_noisy_gate(spec)
        assert bool(caplog.records) is warned

    def test_channel_export_schema(self):
        spec = GateSpec(theta=PI, gamma=10.0, n_g=1e3, omega0=1e10)
        channel = evolve_noisy_gate(spec)
        payload = channel.to_dict()
        assert set(payload) == {"ptm", "chi_diag"}
        assert len(payload["ptm"]) == 4 and len(payload["ptm"][0]) == 4
        assert len(payload["chi_diag"]) == 4
        json.dumps(payload)  # JSON-serializable as-is


class TestAsymptoticPauliErrors:
    def test_closed_forms(self):
        p_x, p_y, p_z = asymptotic_pauli_errors(1e4)
        assert p_x == pytest.approx(PI ** 2 / 16.0e4, rel=1e-12)
        assert p_x == pytest.approx(6.169e-5, rel=1e-3)
        assert p_y == p_z == pytest.approx(PI ** 2 / 32.0e4, rel=1e-12)

    def test_reference_photon_number(self):
        assert asymptotic_pauli_errors(1e3) == pytest.approx(
            (6.169e-4, 3.084e-4, 3.084e-4), rel=1e-3
        )

    def test_vanishes_with_infinite_energy(self):
        p = asymptotic_pauli_errors(1e18)
        assert max(p) < 1e-17

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_pauli_errors(0.0)


# Each turns a 4x4 transfer matrix into an array that is not 4x4.
_RESHAPES = (lambda m: m[:3, :3], lambda m: np.pad(m, ((0, 0), (0, 1))), np.ravel)


@st.composite
def perturbed_gates(draw) -> np.ndarray:
    """A gate's noise map with up to three entries moved: by a hair either
    side of TP_TOL, anywhere in [-2, 2] or to a non-finite value; now and
    then reshaped so that it is not 4x4."""
    theta = draw(st.floats(1e-3, 2.0 * PI))
    ptm = evolve_noisy_gate(GateSpec(theta=theta, gamma=1.0,
                                     n_g=10.0 ** draw(st.floats(-3.0, 8.0)))).ptm.copy()
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        ptm[i, j] = draw(st.sampled_from([math.nan, math.inf, -math.inf])
                         | st.floats(-2e-9, 2e-9).map(lambda d, v=ptm[i, j]: v + d)
                         | st.floats(-2.0, 2.0))
    if draw(st.integers(0, 7)) == 0:
        ptm = draw(st.sampled_from(_RESHAPES))(ptm)
    return ptm


def _outcome(build):
    """What build returns, or the message of the InputError it raises."""
    try:
        return build()
    except InputError as exc:
        return str(exc)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestQubitChannelInvariants:
    def test_rejects_trace_violation(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match=re.escape("not trace preserving (1.00e-03)")):
            QubitChannel(ptm=bad)

    def test_rejects_non_cp_map(self):
        # transposition-like map: TP but not CP
        bad = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            QubitChannel(ptm=bad)

    def test_chi_diag_is_derived_not_given(self):
        with pytest.raises(TypeError, match="chi_diag"):
            QubitChannel(ptm=np.eye(4), chi_diag=(1.0, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("i,j", [(i, j) for i in range(4) for j in range(4)])
    def test_rejects_nan(self, i, j, bad):
        # Row 0 fails the trace check first; any other entry fails the
        # finiteness check.  A max() over the row would skip a NaN.
        ptm = np.eye(4)
        ptm[i, j] = bad
        message = "trace" if i == 0 else "not finite"
        with pytest.raises(ValueError, match=message):
            QubitChannel(ptm=ptm)
        with pytest.raises(ValueError, match=message):
            extract_chi_diag(ptm)

    @settings(deadline=None, max_examples=300)
    @given(
        theta=st.floats(0.0, 2.0 * PI, exclude_min=True),
        log10_n_g=st.floats(-20.0, 12.0),
    )
    def test_chi_diag_is_extract_chi_diag_bit_for_bit(self, theta, log10_n_g):
        channel = evolve_noisy_gate(GateSpec(theta=theta, gamma=1.0, n_g=10.0 ** log10_n_g))
        assert _bits(channel.chi_diag) == _bits(extract_chi_diag(channel.ptm))

    @settings(deadline=None, max_examples=400)
    @given(ptm=perturbed_gates())
    def test_refuses_what_extract_chi_diag_refuses_and_non_cp_maps(self, ptm):
        # The same message wherever extract_chi_diag refuses; past it, a
        # refusal exactly where the Choi matrix has an eigenvalue below CP_TOL.
        chi = _outcome(lambda: extract_chi_diag(ptm))
        channel = _outcome(lambda: QubitChannel(ptm=ptm))
        if isinstance(chi, str):
            assert channel == chi
        elif np.linalg.eigvalsh(choi_from_ptm(ptm)).min() < CP_TOL:
            assert isinstance(channel, str) and "completely positive" in channel
        else:
            assert _bits(channel.chi_diag) == _bits(chi)


class TestChoiMatrix:
    def test_matches_the_pauli_sum(self):
        # The Hermitian part of sum_ij ptm[i, j] sigma_i (x) sigma_j^T / 4.
        rng = np.random.default_rng(20)
        for _ in range(200):
            ptm = rng.uniform(-1.0, 1.0, size=(4, 4))
            choi = sum(
                ptm[i, j] * np.kron(_BASIS[i], _BASIS[j].T)
                for i in range(4) for j in range(4)
            ) / 4.0
            expected = 0.5 * (choi + choi.conj().T)
            assert np.max(np.abs(choi_from_ptm(ptm) - expected)) <= 1e-15

    def test_chi_coefficients_invert_themselves(self):
        # extract_chi_diag divides by 4 in place of an inverse.
        assert np.array_equal(_CHI_COEFF @ _CHI_COEFF, 4.0 * np.eye(4))
