"""Fault-tolerance scheme constants and scale-dependent physical noise laws.

Physical and logical error probabilities are carried as plain base-10
logarithms: the logical error per gate shrinks doubly exponentially with the
concatenation level and underflows any fixed-precision float long before the
interesting regime is exhausted (log10 p can reach -10^4 and beyond).  A
log10 value of -inf is an exact zero and +inf an overflow.

All types here are immutable values and all operations are pure functions;
they are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# pi^2/16 is the error probability per pi-pulse for a single driving photon.
PI_SQ_OVER_16 = math.pi ** 2 / 16.0


class InputError(ValueError):
    """A value a caller gave is refused; the message names it.  Every check
    in this package on what it is given raises this, and the CLI reports it
    as a usage error (exit 2).  Any other exception is a bug."""


def _log10(x):
    """math.log10 of a scalar, or of each element of an array.

    np.log10 can differ from math.log10 in the last bit, so the curves over
    arrays of levels take their logarithms here and match the scalar curve
    bit for bit.
    """
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.log10, x.ravel().tolist()), float,
                           x.size).reshape(x.shape)
    return math.log10(x)


def _values(field) -> list:
    """The scalar values of a noise-law field: an array field (a law family,
    see NoiseModel) holds one value per member."""
    return field.ravel().tolist() if isinstance(field, np.ndarray) else [field]


@dataclass(frozen=True, order=True)
class LogProb:
    """Base-10 logarithm of a nonnegative quantity, finite or -inf (an exact
    zero).  Values >= 0 (quantities >= 1) are legal: the error-bound formulas
    leave the meaningful-probability regime before the optimizer stops
    caring about them.  Only OptResult's log10_p_min and curve views build
    one; every other result is a plain log10 float.
    """

    log10_value: float

    def __post_init__(self) -> None:
        v = self.log10_value
        if math.isnan(v) or v == math.inf:
            raise InputError(f"LogProb must be finite or -inf, got {v!r}")


def _check_count(name: str, value: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer count, got {value!r}")
    if value < 1:
        raise InputError(f"{name} must be >= 1, got {value}")
    if value > sys.float_info.max:  # the formulas take counts as floats
        raise InputError(f"{name} exceeds the float range")
    return value


@dataclass(frozen=True)
class FTScheme:
    """Overhead constants of a concatenated fault-tolerance scheme.

    Attributes:
        A: physical gates per extended rectangle (encoded gate plus the
           surrounding error-correction boxes).
        A_prime: physical gates per rectangle (encoded gate plus the
           following error-correction box).
        B: count of malignant fault pairs per extended rectangle; 1/B is the
           scale-independent threshold error probability.
        D: multiplicative growth in physical components per added
           concatenation level.
        M: clock cycles per concatenation level.

    The constants are opaque here: nothing in this package models the
    internal structure of the rectangles.  A and A_prime feed no formula
    (the photon law's per-level growth is D): they are validated, echoed in
    a report's config and parsed from `A,A_prime,B,D,M`, nothing more.
    """

    A: int
    A_prime: int
    B: int
    D: int
    M: int

    def __post_init__(self) -> None:
        for name in ("A", "A_prime", "B", "D", "M"):
            _check_count(name, getattr(self, name))

    def to_dict(self) -> dict:
        return {"A": self.A, "A_prime": self.A_prime, "B": self.B,
                "D": self.D, "M": self.M}


def make_scheme(A: int, A_prime: int, B: int, D: int, M: int) -> FTScheme:
    """Validate and build an FTScheme from explicit constants."""
    return FTScheme(A=A, A_prime=A_prime, B=B, D=D, M=M)


# Concatenated 7-qubit code with the standard exRec counting.
SCHEME_PRESETS: dict[str, FTScheme] = {
    "aliferis2006": FTScheme(A=575, A_prime=291, B=10_000, D=291, M=3),
}


def get_scheme(name: str) -> FTScheme:
    """The preset named name."""
    try:
        return SCHEME_PRESETS[name]
    except KeyError:
        raise InputError(
            f"unknown scheme preset {name!r}; "
            f"known: {sorted(SCHEME_PRESETS)}"
        ) from None


def _check_eta0(field) -> None:
    for eta0 in _values(field):
        if not 0.0 < eta0 < 1.0:
            raise InputError(f"eta0 must lie in (0, 1), got {eta0!r}")


def _check_growth(name: str, field) -> None:
    for value in _values(field):
        if not 0.0 <= value < math.inf:
            raise InputError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class AffineNoise:
    """Physical error probability growing affinely with the level:
    eta(k) = eta0 * (1 + c*k)."""

    eta0: float
    c: float = 0.0

    def __post_init__(self) -> None:
        _check_eta0(self.eta0)
        _check_growth("c", self.c)

    def log10_eta(self, ks, D: float | None = None):
        """log10 eta(k) = log10 eta0 + log10(1 + c*k) at each level in ks."""
        return _log10(self.eta0) + _log10(1.0 + self.c * ks)


@dataclass(frozen=True)
class ExponentialNoise:
    """Physical error probability growing exponentially with the level:
    eta(k) = eta0 * D**(beta*k).

    The per-level component growth D belongs to the scheme, not to the noise
    law, so one law can be evaluated under different schemes; D is supplied
    at evaluation time.
    """

    eta0: float
    beta: float

    def __post_init__(self) -> None:
        _check_eta0(self.eta0)
        _check_growth("beta", self.beta)

    def log10_eta(self, ks, D: float | None = None):
        """log10 eta(k) = log10 eta0 + beta*k*log10 D at each level in ks."""
        if D is None:
            raise InputError("ExponentialNoise needs the scheme's D at evaluation")
        if D < 1:
            raise InputError(f"D must be >= 1, got {D!r}")
        return _log10(self.eta0) + self.beta * ks * _log10(D)


@dataclass(frozen=True)
class TabulatedNoise:
    """Measured (or synthesized) growth profile: eta(k) = eta0 * f_values[k].

    f_values must start at 1 and be monotone non-decreasing.
    """

    eta0: float
    f_values: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_eta0(self.eta0)
        f = tuple(float(v) for v in self.f_values)
        object.__setattr__(self, "f_values", f)
        if not f:
            raise InputError("f_values must be non-empty")
        if f[0] != 1.0:
            raise InputError(f"f_values[0] must equal 1, got {f[0]!r}")
        for a, b in zip(f, f[1:]):
            if not b >= a:
                raise InputError("f_values must be monotone non-decreasing")
        if f[-1] == math.inf:  # the largest entry, as the table is monotone
            raise InputError("f_values must be finite")

    def log10_eta(self, ks, D: float | None = None):
        """log10 eta(k) = log10 eta0 + log10 f_values[k] at each level in ks."""
        top = np.max(ks)
        if top >= len(self.f_values):
            raise InputError(f"level {top} outside table (length {len(self.f_values)})")
        return _log10(self.eta0) + _log10(np.asarray(self.f_values)[ks])


@dataclass(frozen=True)
class ShorPhotonNoise:
    """Error per physical pi-pulse under a photon budget per logical gate.

    Each logical gate gets n_L photons.  At level k it tiles into A**k
    physical gates (A is the per-level gate growth), so each physical gate
    receives n_L / A**k photons and fails with probability
    eta(k) = (pi^2/16) * A**k / n_L.  This is the one place that counts
    photons per physical gate: the energy bill and the rotating-wave margin
    read photons_per_gate.

    eta(k) may exceed 1 for large k; such values mean "worse than useless"
    and are kept un-saturated: log10 eta(k) > 0.
    """

    n_L: float
    A: float

    def __post_init__(self) -> None:
        for n_L in _values(self.n_L):
            if not 0 < n_L < math.inf:
                raise InputError(f"n_L must be positive and finite, got {n_L!r}")
        if not 1 <= self.A < math.inf:
            raise InputError(f"A must be finite and >= 1, got {self.A!r}")

    def log10_eta(self, ks, D: float | None = None):
        """log10 eta(k) = log10(pi^2/16) + k log10 A - log10 n_L at each
        level in ks."""
        return math.log10(PI_SQ_OVER_16) + ks * _log10(self.A) - _log10(self.n_L)

    def photons_per_gate(self, k: int) -> float:
        """n_L / A**k, the photons of one physical gate at level k (0.0 once
        A**k leaves the float range)."""
        try:
            return self.n_L / self.A ** k
        except OverflowError:
            return 0.0


def check_key_length(R: int) -> None:
    """Refuse a Shor key of R bits whose L = R^2 logical gates are out of
    range: R must be >= 2, and L must fit the float range."""
    if R < 2:
        raise InputError(f"R must be >= 2, got {R!r}")
    if R * R > sys.float_info.max:
        raise InputError("L = R^2 logical gates exceeds the float range")


# Every law evaluates log10 eta(k) with log10_eta(ks, D), where ks is a level
# or an array of levels.  A law whose fields are arrays is a law family, one
# member per element: the sweep builds one with each swept field shaped along
# its own grid axis, and log10_eta then broadcasts the fields against ks (the
# last axis).  Validation checks every member.
#
# Every legal law keeps log10 eta_k >= -325: eta0 is a positive float (at
# least 5e-324), the affine, exponential and table growth factors are >= 1,
# and the photon law's n_L is at most the largest float.  So for k <= 1000,
# 2^k (log10 B + log10 eta_k) stays above -3.5e303 and no curve value is
# -inf; the sweep's finiteness check on its minima cannot fire for a legal law.
NoiseModel = Union[AffineNoise, ExponentialNoise, TabulatedNoise, ShorPhotonNoise]


def eta_at_level(model: NoiseModel, k: int, D: float | None = None) -> float:
    """log10 of the physical error probability in a level-k computer.

    Args:
        model: the scale-dependent noise law.
        k: concatenation level, >= 0.
        D: per-level component growth factor, required by ExponentialNoise
           (it is a property of the scheme, not of the law).
    """
    if k < 0:
        raise InputError("concatenation level must be >= 0")
    return model.log10_eta(k, D)


@dataclass(frozen=True)
class FitResult:
    """Noise law fitted to measured (k, eta) samples.

    residual is the root-mean-square misfit of log10 eta.
    """

    model: NoiseModel
    residual: float
    n_points: int


def _line(ks: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Intercept and slope of the least-squares line through (ks, ys).  lstsq's
    default cutoff drops the second singular value of the design [1, k] once
    the ks spread past ~1e15; the line is then fitted against k / max|k|."""
    for scale in (1.0, float(np.abs(ks).max())):
        coef, _, rank, _ = np.linalg.lstsq(np.column_stack([np.ones_like(ks), ks / scale]), ys,
                                           rcond=None)
        if rank == 2:
            break
    return float(coef[0]), float(coef[1]) / scale  # inf on overflow, with no numpy warning


def fit_noise_model(
    samples: Sequence[Sequence[float]],
    kind: str,
    D: float | None = None,
) -> FitResult:
    """Least-squares fit of an affine or exponential noise law.

    The affine law is fitted linearly in k on eta; the exponential law is
    fitted linearly in k on log10 eta, with the slope converted to beta via
    the supplied growth factor D.  The reported residual is RMS in log10
    space for both laws, and is computed from the returned law itself.  kind
    is the law's wire name, "affine" or "exp".  The abscissae are levels:
    finite, distinct and >= 0.  D, when given, must lie in (1, inf) whichever
    the law.
    """
    if D is not None and not 1 < D < math.inf:
        raise InputError(f"D must lie in (1, inf) to resolve beta, got {D!r}")
    if len(samples) < 2:
        raise InputError("need at least 2 samples")
    ks = np.asarray([s[0] for s in samples], dtype=float)
    etas = np.asarray([s[1] for s in samples], dtype=float)
    if not np.all((etas > 0.0) & (etas < 1.0)):  # a NaN fails this too
        raise InputError("all eta samples must lie in (0, 1)")
    if not np.isfinite(ks).all():
        raise InputError("abscissae k must be finite")
    if (ks < 0.0).any():
        raise InputError(f"abscissae k must be >= 0, got {float(ks.min())!r}")
    if len(set(ks.tolist())) != len(ks):
        raise InputError("abscissae k must be distinct")

    log_etas = np.log10(etas)
    model: NoiseModel
    if kind == "affine":
        eta0, slope = _line(ks, etas)
        if eta0 <= 0:
            raise InputError("affine fit gives non-positive eta0")
        c = slope / eta0
        if c < 0 and c > -1e-12:  # forgive round-off on exactly flat data
            c = 0.0
        model = AffineNoise(eta0=eta0, c=c)
    elif kind == "exp":
        if D is None:
            raise InputError("exponential fit needs the scheme's D")
        intercept, slope = _line(ks, log_etas)
        beta = slope / math.log10(D)
        if beta < 0 and beta > -1e-12:
            beta = 0.0
        try:
            eta0 = 10.0 ** intercept
        except OverflowError:  # refused below as eta0 = inf
            eta0 = math.inf
        model = ExponentialNoise(eta0=eta0, beta=beta)
    else:
        raise InputError(f"fit model must be 'affine' or 'exp', got {kind!r}")

    residual = float(np.sqrt(np.mean((model.log10_eta(ks, D) - log_etas) ** 2)))
    return FitResult(model=model, residual=residual, n_points=len(samples))


# The wire vocabulary of the noise laws: each law's name and its fields.
# ShorPhotonNoise.n_L travels as "nL".
MODEL_FIELDS: dict[str, tuple[str, ...]] = {
    "affine": ("eta0", "c"),
    "exp": ("eta0", "beta"),
    "table": ("eta0", "f_values"),
    "shor": ("nL", "A"),
}

_MODEL_CLASSES = {"affine": AffineNoise, "exp": ExponentialNoise,
                  "table": TabulatedNoise, "shor": ShorPhotonNoise}
# Each wire field's attribute name, where the two differ.
_ATTRIBUTES = {"nL": "n_L"}


def model_to_dict(model: NoiseModel) -> dict:
    """JSON-ready representation: {"model": name, **fields}, a table's
    f_values as a list."""
    for kind, cls in _MODEL_CLASSES.items():
        if isinstance(model, cls):
            data: dict = {"model": kind}
            for name in MODEL_FIELDS[kind]:
                value = getattr(model, _ATTRIBUTES.get(name, name))
                data[name] = list(value) if isinstance(value, tuple) else value
            return data
    raise TypeError(f"unknown noise model {model!r}")


def model_from_dict(data: dict) -> NoiseModel:
    """Inverse of :func:`model_to_dict`; validates invariants on the way in.

    Keys other than "model" and the law's fields are ignored, so a CLI
    optimize config is itself a model description.
    """
    kind = data.get("model")
    if kind not in MODEL_FIELDS:
        raise InputError(
            f"unknown noise model {kind!r}; known: {', '.join(MODEL_FIELDS)}"
        )
    try:
        fields = {_ATTRIBUTES.get(name, name): data[name] for name in MODEL_FIELDS[kind]}
    except KeyError as exc:
        raise InputError(f"noise model {kind!r} missing field {exc}") from None
    return _MODEL_CLASSES[kind](**fields)
