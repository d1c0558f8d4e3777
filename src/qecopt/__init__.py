"""Optimal quantum error correction under scale-dependent noise.

Library layout:

* :mod:`qecopt.scheme`: fault-tolerance scheme constants, scale-dependent
  noise laws, log-domain probabilities, noise-law fitting;
* :mod:`qecopt.optimizer`: logical-error curves, optimal concatenation
  depth, analytic usefulness conditions and bounds;
* :mod:`qecopt.crosstalk`: long-range lattice crosstalk strength and its
  mapping onto the local-noise optimizer;
* :mod:`qecopt.gatesim`: exact noise channel of the driven-qubit gate and
  Pauli error extraction;
* :mod:`qecopt.shor`: photon and energy budgets for Shor's algorithm;
* :mod:`qecopt.cli`: the ``qecopt`` command-line front end.
"""

from .scheme import (
    AffineNoise,
    ExponentialNoise,
    FitResult,
    FTScheme,
    LogProb,
    NoiseModel,
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
from .optimizer import (
    BoundsReport,
    OptResult,
    affine_usefulness_threshold,
    exp_model_bounds,
    find_kmax,
    generic_kmax_bound,
    logical_error_log10,
    one_level_condition,
)
from .crosstalk import (
    LatticeSpec,
    crosstalk_usefulness_threshold,
    delta0_asymptotic,
    delta_lattice_oracle,
    effective_local_error,
    logical_crosstalk_log10,
)
from .gatesim import (
    GateSpec,
    QubitChannel,
    asymptotic_pauli_errors,
    evolve_noisy_gate,
    extract_chi_diag,
    pulse_params,
)
from .shor import (
    EnergyBill,
    MinBudget,
    ShorProblem,
    energy_bill,
    min_photon_budget,
    optimize_photon_budget,
    rwa_margin,
    target_logical_error,
)

__version__ = "0.1.0"


def _warn(message: str) -> None:
    """Log a diagnostic as a warning on the "qecopt" logger.  The logger has
    a NullHandler, so nothing reaches stderr unless the application
    configures logging; the logging module is imported by the first
    diagnostic, not by ``import qecopt``."""
    import logging

    logger = logging.getLogger(__name__)
    if not logger.handlers:
        logger.addHandler(logging.NullHandler())
    logger.warning(message)

__all__ = [
    "AffineNoise", "ExponentialNoise", "FitResult", "FTScheme", "LogProb",
    "NoiseModel", "SCHEME_PRESETS", "ShorPhotonNoise", "TabulatedNoise",
    "eta_at_level", "fit_noise_model", "get_scheme", "make_scheme",
    "model_from_dict", "model_to_dict",
    "BoundsReport", "OptResult", "affine_usefulness_threshold",
    "exp_model_bounds", "find_kmax", "generic_kmax_bound",
    "logical_error_log10", "one_level_condition",
    "LatticeSpec", "crosstalk_usefulness_threshold", "delta0_asymptotic",
    "delta_lattice_oracle", "effective_local_error", "logical_crosstalk_log10",
    "GateSpec", "QubitChannel", "asymptotic_pauli_errors",
    "evolve_noisy_gate", "extract_chi_diag", "pulse_params",
    "EnergyBill", "MinBudget", "ShorProblem", "energy_bill",
    "min_photon_budget", "optimize_photon_budget", "rwa_margin",
    "target_logical_error",
]
