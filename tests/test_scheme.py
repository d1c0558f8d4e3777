"""Scheme constants, noise laws, log-domain carrier and fitting."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qecopt.scheme import (
    AffineNoise,
    ExponentialNoise,
    FTScheme,
    LogProb,
    PI_SQ_OVER_16,
    SCHEME_PRESETS,
    ShorPhotonNoise,
    TabulatedNoise,
    eta_at_level,
    fit_noise_model,
    get_scheme,
    make_scheme,
    model_from_dict,
    model_to_dict,
)

ALIFERIS = get_scheme("aliferis2006")


class TestFTScheme:
    def test_standard_counting_preset(self):
        s = make_scheme(575, 291, 10_000, 291, 3)
        assert s == SCHEME_PRESETS["aliferis2006"]
        assert s.threshold == 1e-4

    def test_degenerate_but_valid(self):
        s = make_scheme(1, 1, 1, 1, 1)
        assert s.threshold == 1.0

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            make_scheme(575, 0, 10_000, 291, 3)
        with pytest.raises(ValueError):
            make_scheme(-575, 291, 10_000, 291, 3)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(TypeError):
            make_scheme(575.0, 291, 10_000, 291, 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scheme preset"):
            get_scheme("nosuchscheme")


class TestLogProb:
    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            LogProb(float("nan"))
        with pytest.raises(ValueError):
            LogProb(math.inf)

    def test_zero_sentinel(self):
        zero = LogProb.from_linear(0.0)
        assert zero.log10_value == -math.inf
        assert zero.linear == 0.0

    def test_linear_round_trip(self):
        assert LogProb.from_linear(2.5e-8).linear == pytest.approx(2.5e-8, rel=1e-15)

    def test_probability_saturates(self):
        assert LogProb(2.0).probability == 1.0
        assert LogProb(-1.0).probability == pytest.approx(0.1)

    def test_deep_underflow_representable(self):
        assert LogProb(-6001.5).linear == 0.0  # underflow, not an error
        assert LogProb(-6001.5).probability == 0.0

    def test_ordering(self):
        assert LogProb(-8.0) < LogProb(-7.0)


class TestEtaAtLevel:
    def test_affine_scale_independent(self):
        # c = 0 never grows: eta(7) = eta(0) = 5e-6
        got = eta_at_level(AffineNoise(5e-6, c=0.0), 7)
        assert got.log10_value == pytest.approx(math.log10(5e-6), abs=1e-12)

    def test_affine_growth(self):
        # eta0 (1 + c k) = 5e-6 * 4 = 2e-5
        got = eta_at_level(AffineNoise(5e-6, c=1.0), 3)
        assert got.log10_value == pytest.approx(math.log10(2e-5), abs=1e-12)

    def test_exponential_needs_growth_factor(self):
        model = ExponentialNoise(1e-6, beta=1.0)
        with pytest.raises(ValueError, match="needs the scheme's D"):
            eta_at_level(model, 2)
        got = eta_at_level(model, 2, D=291)
        assert got.log10_value == pytest.approx(-6 + 2 * math.log10(291), abs=1e-12)

    def test_tabulated_within_and_outside_table(self):
        model = TabulatedNoise(1e-5, (1.0, 2.0, 4.0))
        assert eta_at_level(model, 2).linear == pytest.approx(4e-5, rel=1e-12)
        with pytest.raises(ValueError, match="outside table"):
            eta_at_level(model, 3)

    def test_shor_photon_direct_evaluation(self):
        # (pi^2/16) * A^0 / n_L with n_L = 1e6
        model = ShorPhotonNoise(n_L=1e6, A=575)
        expected = math.log10(math.pi ** 2 / 16 * 1e6 / 1e12)
        got = eta_at_level(model, 0)
        assert got.log10_value == pytest.approx(expected, abs=1e-12)
        assert got.log10_value == pytest.approx(-6.2098, abs=1e-4)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            eta_at_level(AffineNoise(1e-5), -1)

    @given(
        eta0=st.floats(1e-12, 0.5),
        c=st.floats(0.0, 50.0),
        beta=st.floats(0.0, 3.0),
        k=st.integers(0, 40),
    )
    @settings(deadline=None)
    def test_monotone_noise_growth(self, eta0, c, beta, k):
        affine = AffineNoise(eta0, c=c)
        assert eta_at_level(affine, k + 1) >= eta_at_level(affine, k)
        exp = ExponentialNoise(eta0, beta=beta)
        assert eta_at_level(exp, k + 1, D=291) >= eta_at_level(exp, k, D=291)

    def test_monotone_growth_of_table_and_photon_models(self):
        table = TabulatedNoise(1e-6, (1.0, 1.0, 2.5, 2.5, 7.0))
        for k in range(4):
            assert eta_at_level(table, k + 1) >= eta_at_level(table, k)
        photon = ShorPhotonNoise(n_L=1e9, A=291)
        for k in range(12):
            assert eta_at_level(photon, k + 1) >= eta_at_level(photon, k)

    @given(eta0=st.floats(1e-12, 0.5), k=st.integers(0, 60))
    @settings(deadline=None)
    def test_flat_affine_equals_flat_exponential(self, eta0, k):
        flat_a = eta_at_level(AffineNoise(eta0, c=0.0), k)
        flat_e = eta_at_level(ExponentialNoise(eta0, beta=0.0), k, D=291)
        assert flat_a.log10_value == pytest.approx(math.log10(eta0), abs=1e-12)
        assert flat_e.log10_value == pytest.approx(math.log10(eta0), abs=1e-12)

    @given(
        eta0=st.floats(1e-8, 0.5),
        c=st.floats(0.0, 10.0),
        k=st.integers(0, 10),
    )
    @settings(deadline=None)
    def test_log_carrier_matches_linear_evaluation(self, eta0, c, k):
        # exp10 of the log-domain value vs the same product done in linear space
        linear = eta0 * (1.0 + c * k)
        got = eta_at_level(AffineNoise(eta0, c=c), k).linear
        assert got == pytest.approx(linear, rel=1e-12)


class TestNoiseModelValidation:
    def test_eta0_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                AffineNoise(bad)

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            AffineNoise(1e-5, c=-0.5)
        with pytest.raises(ValueError):
            ExponentialNoise(1e-5, beta=-0.5)

    def test_table_must_start_at_one_and_grow(self):
        with pytest.raises(ValueError):
            TabulatedNoise(1e-5, (2.0, 3.0))
        with pytest.raises(ValueError):
            TabulatedNoise(1e-5, (1.0, 3.0, 2.0))

    def test_shor_photon_validation(self):
        for n_L in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="n_L"):
                ShorPhotonNoise(n_L=n_L, A=575)
        with pytest.raises(ValueError, match="A must"):
            ShorPhotonNoise(n_L=1e6, A=0.5)

    def test_shor_photons_per_gate(self):
        # eta(k) = (pi^2/16) / photons_per_gate(k): one count of gates.
        model = ShorPhotonNoise(n_L=1e12, A=291.0)
        for k in range(6):
            n_g = model.photons_per_gate(k)
            assert n_g == pytest.approx(1e12 / 291.0 ** k, rel=1e-15)
            assert n_g == pytest.approx(
                PI_SQ_OVER_16 / 10.0 ** model.log10_eta(k), rel=1e-12)
        assert model.photons_per_gate(200) == 0.0  # 291^200 has no float value


class TestFitNoiseModel:
    def test_exact_affine_data(self):
        fit = fit_noise_model([(0, 1e-5), (1, 2e-5), (2, 3e-5)], "affine")
        assert isinstance(fit.model, AffineNoise)
        assert fit.model.eta0 == pytest.approx(1e-5, rel=1e-9)
        assert fit.model.c == pytest.approx(1.0, rel=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)
        assert fit.n_points == 3

    def test_exact_exponential_data(self):
        samples = [(0, 1e-6), (1, 291e-6), (2, 291 ** 2 * 1e-6)]
        fit = fit_noise_model(samples, "exp", D=291)
        assert isinstance(fit.model, ExponentialNoise)
        assert fit.model.eta0 == pytest.approx(1e-6, rel=1e-9)
        assert fit.model.beta == pytest.approx(1.0, rel=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_abscissae(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_noise_model([(0, 1e-5), (0, 2e-5)], "affine")

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            fit_noise_model([(0, 1e-5), (1, 2.0)], "affine")

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_noise_model([(0, 1e-5)], "affine")

    def test_exponential_needs_growth_factor(self):
        with pytest.raises(ValueError, match="needs the scheme's D"):
            fit_noise_model([(0, 1e-5), (1, 2e-5)], "exp")

    @given(
        eta0=st.floats(1e-10, 1e-3),
        c=st.floats(0.0, 20.0),
    )
    @settings(deadline=None, max_examples=50)
    def test_affine_recovery_from_noise_free_data(self, eta0, c):
        model = AffineNoise(eta0, c=c)
        samples = [(k, eta_at_level(model, k).linear) for k in range(6)]
        fit = fit_noise_model(samples, "affine")
        assert fit.model.eta0 == pytest.approx(eta0, rel=1e-9)
        assert fit.model.c == pytest.approx(c, rel=1e-9, abs=1e-9)

    @given(
        eta0=st.floats(1e-12, 1e-4),
        beta=st.floats(0.0, 2.5),
    )
    @settings(deadline=None, max_examples=50)
    def test_exponential_recovery_from_noise_free_data(self, eta0, beta):
        assume(eta0 * 291.0 ** (4 * beta) < 0.99)  # keep all samples in (0, 1)
        model = ExponentialNoise(eta0, beta=beta)
        samples = [(k, eta_at_level(model, k, D=291).linear) for k in range(5)]
        fit = fit_noise_model(samples, "exp", D=291)
        assert fit.model.eta0 == pytest.approx(eta0, rel=1e-9)
        assert fit.model.beta == pytest.approx(beta, rel=1e-9, abs=1e-9)


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            AffineNoise(5e-6, c=1.0),
            ExponentialNoise(1e-9, beta=0.5),
            TabulatedNoise(1e-5, (1.0, 2.0, 4.0, 8.0)),
            ShorPhotonNoise(n_L=1e6, A=291.0),
        ],
    )
    def test_round_trip(self, model):
        assert model_from_dict(model_to_dict(model)) == model

    def test_wire_field_names(self):
        # The CLI's spelling: a model dict is itself an optimize config.
        d = model_to_dict(AffineNoise(5e-6, c=1.0))
        assert d == {"model": "affine", "eta0": 5e-6, "c": 1.0}
        d = model_to_dict(ExponentialNoise(1e-9, beta=0.5))
        assert d == {"model": "exp", "eta0": 1e-9, "beta": 0.5}
        d = model_to_dict(TabulatedNoise(1e-5, (1.0, 2.0)))
        assert d == {"model": "table", "eta0": 1e-5, "f_values": [1.0, 2.0]}
        d = model_to_dict(ShorPhotonNoise(n_L=2.0, A=575))
        assert d == {"model": "shor", "nL": 2.0, "A": 575}
        with pytest.raises(ValueError, match="missing field 'nL'"):
            model_from_dict({"model": "shor", "L": 4, "ntot": 8.0, "A": 575})

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown noise model"):
            model_from_dict({"model": "cubic", "eta0": 1e-5})
        with pytest.raises(ValueError, match="unknown noise model"):
            model_from_dict({"eta0": 1e-5})
        for old in ("exponential", "tabulated", "shor_photon"):
            with pytest.raises(ValueError, match="unknown noise model"):
                model_from_dict({"model": old, "eta0": 1e-5, "beta": 1.0})
        with pytest.raises(ValueError, match="missing field 'beta'"):
            model_from_dict({"model": "exp", "eta0": 1e-5})
        with pytest.raises(TypeError, match="unknown noise model"):
            model_to_dict(FTScheme(1, 1, 1, 1, 1))

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"model": "affine", "eta0": 2.0, "c": 0.0})
