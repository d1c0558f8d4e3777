"""Optimal quantum error correction under scale-dependent noise.

Library layout:

* :mod:`qecopt.scheme`: fault-tolerance scheme constants, scale-dependent
  noise laws, noise-law fitting, and InputError, which every check on a
  caller's value raises;
* :mod:`qecopt.optimizer`: logical-error curves, optimal concatenation
  depth, analytic usefulness conditions and bounds;
* :mod:`qecopt.crosstalk`: long-range lattice crosstalk strength and its
  mapping onto the local-noise optimizer;
* :mod:`qecopt.gatesim`: exact noise channel of the driven-qubit gate and
  Pauli error extraction;
* :mod:`qecopt.shor`: photon and energy budgets for Shor's algorithm;
* :mod:`qecopt.cli`: the ``qecopt`` command-line front end.
"""

import importlib

from .scheme import (
    AffineNoise,
    ExponentialNoise,
    FitResult,
    FTScheme,
    InputError,
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

# The names exported from the other modules, by module.  Each module is
# imported when one of its names is first read (PEP 562), so `import qecopt`
# loads scheme alone, and a command loads only the modules it calls.
_LAZY = {
    "optimizer": ("BoundsReport", "OptResult", "affine_usefulness_threshold",
                  "exp_model_bounds", "find_kmax", "generic_kmax_bound",
                  "one_level_condition", "sweep_minima"),
    "crosstalk": ("LatticeSpec", "crosstalk_usefulness_threshold", "delta0_asymptotic",
                  "delta_lattice_oracle", "effective_local_error", "logical_crosstalk_log10"),
    "gatesim": ("GateSpec", "QubitChannel", "asymptotic_pauli_errors",
                "evolve_noisy_gate", "extract_chi_diag", "pulse_params"),
    "shor": ("EnergyBill", "MinBudget", "ShorProblem", "energy_bill",
             "min_photon_budget", "optimize_photon_budget", "target_logical_error"),
}


def __getattr__(name: str):
    module = next((module for module, names in _LAZY.items() if name in names), None)
    if module is None:  # a submodule not yet imported, or no name at all
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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
    "AffineNoise", "ExponentialNoise", "FitResult", "FTScheme", "InputError", "LogProb",
    "NoiseModel", "SCHEME_PRESETS", "ShorPhotonNoise", "TabulatedNoise",
    "eta_at_level", "fit_noise_model", "get_scheme", "make_scheme",
    "model_from_dict", "model_to_dict",
    *(name for names in _LAZY.values() for name in names),
]
