"""The benchmark's own references agree with the program on a few points."""

import math

import numpy as np
import pytest

import checks
from qecopt import crosstalk, gatesim, optimizer, scheme, shor

SCH = scheme.get_scheme("aliferis2006")


def test_preset_constants_match_the_program():
    assert checks.ALIFERIS2006 == (SCH.A, SCH.A_prime, SCH.B, SCH.D, SCH.M)


@pytest.mark.parametrize("model, log_eta", [
    (scheme.AffineNoise(eta0=5e-6, c=1.0),
     lambda k: math.log10(5e-6) + math.log10(1.0 + k)),
    (scheme.ExponentialNoise(eta0=1e-10, beta=0.5),
     lambda k: math.log10(1e-10) + 0.5 * k * math.log10(291)),
    (shor.photon_noise_model(shor.ShorProblem(R=1000), 1e9, SCH),
     lambda k: math.log10(checks.PI_SQ_OVER_16) + k * math.log10(291) - 9.0),
])
def test_reference_curve_matches_find_kmax(model, log_eta):
    result = optimizer.find_kmax(SCH, model, k_cap=64)
    curve = checks.reference_curve(math.log10(SCH.B), log_eta, 64)
    for (k, value), (ref, scale) in zip(result.curve, curve):
        assert checks.rel_close(value.log10_value, ref, checks.CURVE_REL, scale), k
    assert not checks.check_scan(curve, 64, result.k_max,
                                 result.log10_p_min.log10_value, result.status, "x")


@pytest.mark.parametrize("eta0, beta", [(1e-12, 1.0), (1e-9, 0.3), (3e-6, 0.05)])
def test_exp_bounds_match_the_program(eta0, beta):
    ours = checks.exp_bounds(SCH.B, SCH.D, eta0, beta)
    theirs = optimizer.exp_model_bounds(SCH, eta0, beta).to_dict()
    for key, value in theirs.items():
        assert ours[key] == value if key == "useful" else math.isclose(ours[key], value,
                                                                       rel_tol=1e-12)


def test_affine_c_star_matches_the_program():
    for eta0 in (1e-6, 5e-5, 2e-4):
        assert math.isclose(checks.affine_c_star(SCH.B, eta0),
                            optimizer.affine_usefulness_threshold(SCH.B, eta0), rel_tol=1e-14)


def test_exact_propagator_matches_the_integrator():
    ch = gatesim.evolve_noisy_gate(gatesim.GateSpec(theta=math.pi, gamma=1.0, n_g=1e3))
    ref = checks.reference_noise_ptm(math.pi, 1.0, 1e3)
    assert np.max(np.abs(ch.ptm - ref)) < 1e-11


def test_choi_of_identity_channel():
    eig = checks.choi_eigenvalues(np.eye(4))
    assert np.allclose(sorted(eig), [0.0, 0.0, 0.0, 1.0])


@pytest.mark.parametrize("n0, z", [(101, 0.5), (1000, 1.0), (5000, 2.5)])
def test_chain_reference_matches_oracle(n0, z):
    spec = crosstalk.LatticeSpec(d=1, z=z, N0=n0)
    assert math.isclose(checks.chain_max_row_sum(n0, z),
                        crosstalk.delta_lattice_oracle(spec), rel_tol=1e-12)


@pytest.mark.parametrize("side, z", [(7, 0.5), (16, 3.0), (24, 1.5)])
def test_square_literal_maximum_matches_oracle(side, z):
    spec = crosstalk.LatticeSpec(d=2, z=z, N0=side * side, aspect="square")
    oracle = crosstalk.delta_lattice_oracle(spec)
    assert math.isclose(checks.square_max_row_sum(side, z), oracle, rel_tol=1e-12)
    assert math.isclose(checks.square_centre_row_sum(side, z), oracle, rel_tol=1e-12)


@pytest.mark.parametrize("lattice, z, n0", [("chain", 0.5, 10 ** 4), ("chain", 1.0, 10 ** 4),
                                            ("square", 1.3, 250_000),
                                            ("square", 2.0, 250_000)])
def test_closed_forms_match_the_program(lattice, z, n0):
    spec = crosstalk.LatticeSpec(d=1 if lattice == "chain" else 2, z=z, N0=n0, aspect=lattice)
    assert math.isclose(checks.lattice_asymptotic(lattice, z, n0),
                        crosstalk.delta0_asymptotic(spec), rel_tol=1e-12)
