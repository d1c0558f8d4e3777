"""Logical-error curves and optimal concatenation depth.

The logical error probability per gate at concatenation level k is bounded by
p(k) = (1/B) * (B * eta(k))**(2**k), where eta(k) is the physical error
probability in a computer large enough for level k.  With scale-dependent
noise the curve p(k) generally turns around at some finite level; this module
scans for that optimum and evaluates the analytic usefulness conditions and
the closed-form bounds that sandwich the attainable minimum.

Everything is computed in log10 space, as plain floats.  A scan
evaluates its whole curve as one array over the levels; a sweep evaluates a
law family (see scheme.NoiseModel) as one array of points x levels.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scheme import FTScheme, InputError, LogProb, NoiseModel, TabulatedNoise, model_from_dict
from .scheme import eta_at_level  # unread here: benchmarks/tracing.py patches this name

STATUS_OPTIMUM = "optimum-found"
STATUS_UNBOUNDED = "unbounded-improvement"
STATUS_NO_ENCODING = "no-encoding-best"

DEFAULT_K_CAP = 64
# 2.0**k must stay inside float range.  A level-k curve value may not: it
# overflows to +inf, which ranks worse than every finite level.
MAX_K_CAP = 1000

# A curve holding a NaN is rejected with this message.  argmin takes a
# curve's first NaN as its minimum, so the scans look only at the minima.
_UNDEFINED_CURVE = ("the noise law gives an undefined curve (NaN): a parameter "
                   "leaves the float range")

# Curve values a sweep evaluates at once (points x levels): 1 MB of floats.
SWEEP_BLOCK = 1 << 17

# The level tables kept (see levels): ~17 KB each at MAX_K_CAP, so at most
# ~0.3 MB in all.
_LEVEL_TABLES = 16


class Levels(NamedTuple):
    """The levels a scan covers and what the recursion reads of them: the
    levels ks, their exact powers two_k = 2^k and the level-0 mask level0."""

    ks: np.ndarray
    two_k: np.ndarray
    level0: np.ndarray


@dataclass(frozen=True)
class OptResult:
    """Outcome of the integer scan over concatenation levels.

    k_max is the smallest level attaining the minimum of the scanned curve;
    status is one of STATUS_OPTIMUM, STATUS_UNBOUNDED (the curve was still
    strictly decreasing at k_cap) and STATUS_NO_ENCODING (k_max = 0, bare
    physical gates are best).  log10_curve holds the curve's log10 values,
    level by level, as plain floats; a value that overflows the float range
    is +inf.  Level 0 never overflows, so log10_curve[k_max] is finite.
    """

    k_max: int
    log10_curve: tuple[float, ...]

    @property
    def status(self) -> str:
        """scan_status of k_max over the scanned levels."""
        return scan_status(self.k_max, len(self.log10_curve) - 1)

    @property
    def log10_p_min(self) -> LogProb:
        """log10_curve[k_max] as a LogProb; built on each read."""
        return LogProb(self.log10_curve[self.k_max])

    @property
    def curve(self) -> tuple[tuple[int, LogProb | None], ...]:
        """(k, log10 p(k)) at every level, None where the value overflowed
        (reported as null); built on each read."""
        return tuple((k, None if v == math.inf else LogProb(v))
                     for k, v in enumerate(self.log10_curve))

    def to_dict(self) -> dict:
        """The scalar fields; the curve is a table (see curve_columns)."""
        return {
            "k_max": self.k_max,
            "log10_p_min": self.log10_curve[self.k_max],
            "status": self.status,
        }

    def curve_columns(self) -> dict:
        """The curve as columns: the levels "k" = 0, 1, ... (the read-only
        array of the level table) and their "log10_p" (a list, None where the
        value overflowed)."""
        return {"k": _level_table(len(self.log10_curve)).ks,
                "log10_p": [None if v == math.inf else v for v in self.log10_curve]}


@dataclass(frozen=True)
class BoundsReport:
    """Closed-form bounds for the exponential noise law.

    k_st is the stationary point of the continuous-k curve, k_tilde the
    crossing level with p(k_tilde) = p(k_tilde - 1).  When `useful` is true
    (one level of encoding beats none), the attainable minimum satisfies
    log10_p_lower <= log10 p(k_max) <= log10_p_upper and
    k_tilde - 1 <= k_max <= k_tilde.
    """

    k_st: float
    k_tilde: float
    log10_p_lower: float
    log10_p_upper: float
    useful: bool

    def to_dict(self) -> dict:
        """The fields, each float that left the float range as None
        (reported as null, as an overflowed curve level is)."""
        bounds = {"k_st": self.k_st, "k_tilde": self.k_tilde,
                  "log10_p_lower": self.log10_p_lower, "log10_p_upper": self.log10_p_upper}
        return dict({name: v if math.isfinite(v) else None for name, v in bounds.items()},
                    useful=self.useful)


def log10_logical_error(log10_b: float, log10_eta_k, k):
    """log10 p(k) = -log10 b + 2^k (log10 b + log10 eta_k), with p(0) = eta_0.

    The concatenation recursion in log space, for a fault-pair count b (any
    real b >= 1: the crosstalk mapping passes an amplified one) and the
    physical error eta_k of a level-k computer.  Every logical-error curve in
    the package goes through its body, _recursion: the scans pass it a level
    table, already checked.  k may be real, and k and log10_eta_k may be
    arrays that broadcast against each other.
    """
    lowest, highest = (k.min(), k.max()) if isinstance(k, np.ndarray) else (k, k)
    if lowest < 0:
        raise InputError("concatenation level must be >= 0")
    if highest > MAX_K_CAP:
        raise InputError(f"level {highest} exceeds the supported cap {MAX_K_CAP}")
    if not isinstance(k, np.ndarray):
        return _recursion(log10_b, log10_eta_k, 2.0 ** k, k == 0)
    return _recursion(log10_b, log10_eta_k, _powers(k), k == 0)


def _powers(k: np.ndarray) -> np.ndarray:
    """2^k at each level of k, exact for integer levels."""
    return np.ldexp(1.0, k) if k.dtype.kind in "iu" else np.exp2(k)


def _recursion(log10_b: float, log10_eta_k, two_k, level0):
    """log10_logical_error at levels given by their powers two_k = 2^k and
    level-0 mask level0 (scalars, or arrays that broadcast)."""
    values = two_k * (log10_b + log10_eta_k)
    values += -log10_b  # the same sum as -log10_b + values, in place on an array
    if isinstance(values, np.ndarray):
        np.copyto(values, log10_eta_k, where=level0)
        return values
    return log10_eta_k if level0 else values


@functools.lru_cache(maxsize=_LEVEL_TABLES)
def _level_table(count: int) -> Levels:
    """The levels 0..count-1, read-only, built once per level count and kept
    for the last _LEVEL_TABLES counts."""
    ks = np.arange(count)
    table = Levels(ks, _powers(ks), ks == 0)
    for array in table:
        array.flags.writeable = False
    return table


def levels(k_cap: int, model: NoiseModel | None = None) -> Levels:
    """The level table of a scan over 0..k_cap (read-only and shared); a
    table law's length caps the levels too."""
    if not 1 <= k_cap <= MAX_K_CAP:
        raise InputError(f"k_cap must be in [1, {MAX_K_CAP}], got {k_cap}")
    if isinstance(model, TabulatedNoise):
        k_cap = min(k_cap, len(model.f_values) - 1)
    return _level_table(k_cap + 1)


def log10_curve(scheme: FTScheme, model: NoiseModel, table: Levels) -> np.ndarray:
    """log10 p(k) at every level of the level table, on the last axis.

    A law family's axes lead.  A value that overflows the float range is
    +inf, which ranks worse than every finite level; a value the law leaves
    undefined is NaN, which first_minima and find_kmax reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _recursion(math.log10(scheme.B), model.log10_eta(table.ks, scheme.D),
                          table.two_k, table.level0)


def first_minima(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each curve's smallest level attaining its minimum (the last axis),
    and that minimum; an InputError if a curve holds a NaN."""
    curves = values.reshape(-1, values.shape[-1])
    k_max = curves.argmin(axis=1)  # the array method: np.argmin dispatches slower
    p_min = curves[np.arange(k_max.size), k_max]
    if np.isnan(p_min).any():
        raise InputError(_UNDEFINED_CURVE)
    return k_max.reshape(values.shape[:-1]), p_min.reshape(values.shape[:-1])


def scan_status(k_max: int, k_cap: int) -> str:
    """Status of a scan over 0..k_cap whose first argmin is k_max."""
    if k_max == k_cap and k_cap >= 1:
        # first-occurrence argmin at the cap <=> strictly below every earlier
        # point, i.e. no turnaround was seen.
        return STATUS_UNBOUNDED
    if k_max == 0:
        return STATUS_NO_ENCODING
    return STATUS_OPTIMUM


def find_kmax(
    scheme: FTScheme, model: NoiseModel, k_cap: int = DEFAULT_K_CAP
) -> OptResult:
    """Exhaustive integer scan of the logical-error curve over k = 0..k_cap.

    The scan is global (curves can have several local minima); ties break
    toward the smaller, cheaper level.
    """
    values = log10_curve(scheme, model, levels(k_cap, model))
    k_max = int(values.argmin())
    curve = tuple(values.tolist())
    if math.isnan(curve[k_max]):
        raise InputError(_UNDEFINED_CURVE)
    return OptResult(k_max=k_max, log10_curve=curve)


def sweep_minima(scheme: FTScheme, law: dict, grid: dict[str, np.ndarray],
                 k_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """k_max and log10 p_min at every point of a grid of noise laws, outer
    axis slowest: two flat arrays, 16 bytes a point.

    law is a model_from_dict dict of the law's fixed fields, and grid maps
    each swept field to its values, one axis per field in order; law itself
    is left as it is.  The grid is evaluated in blocks of at most
    SWEEP_BLOCK curve values, and in each block every swept field is an
    array along its own axis, so the law family takes each logarithm once
    per distinct value.  A curve holding a NaN is an InputError.
    """
    table = levels(k_cap)
    point = dict(law)
    shape = [v.size for v in grid.values()]
    inner = min(shape[-1], max(1, SWEEP_BLOCK // table.ks.size))
    chunks = [max(1, SWEEP_BLOCK // (inner * table.ks.size))] * (len(shape) - 1) + [inner]
    k_max, p_min = np.empty(shape, dtype=int), np.empty(shape)
    for starts in itertools.product(*(range(0, n, c) for n, c in zip(shape, chunks))):
        block = tuple(slice(s, s + c) for s, c in zip(starts, chunks))
        for i, (field, vals) in enumerate(grid.items()):
            point[field] = vals[block[i]].reshape(
                [-1 if d == i else 1 for d in range(len(shape))] + [1])
        k_max[block], p_min[block] = first_minima(
            log10_curve(scheme, model_from_dict(point), table))
    return k_max.ravel(), p_min.ravel()


def affine_usefulness_threshold(B: float, eta0: float) -> float:
    """Critical slope c* = 1/sqrt(B*eta0) - 1 of the affine noise law.

    One level of encoding reduces the error iff c < c*.  Returns 0.0 when
    B*eta0 >= 1, where no slope (not even c = 0) makes encoding help.
    """
    if B < 1 or not 0.0 < eta0 < 1.0:
        raise InputError("need B >= 1 and eta0 in (0, 1)")
    b_eta = B * eta0
    if b_eta >= 1.0:
        return 0.0
    return 1.0 / math.sqrt(b_eta) - 1.0


def generic_kmax_bound(scheme: FTScheme, model: TabulatedNoise) -> float:
    """Upper bound 1 + f^{-1}(1/(B*eta0)) on k_max for a tabulated noise law.

    f^{-1} is the monotone inverse of the table, interpolated between integer
    levels linearly in (k, log f); this reproduces the continuous inverse for
    geometric tables.  Returns 1.0 when 1/(B*eta0) < 1 (degenerate: already
    above threshold) and inf when the table never reaches the target (no
    turnaround within the tabulated range).
    """
    if not isinstance(model, TabulatedNoise):
        raise TypeError("generic_kmax_bound needs a TabulatedNoise model")
    target = math.exp(-math.log(scheme.B) - math.log(model.eta0))
    if target < 1.0:
        return 1.0
    f = model.f_values
    if target > f[-1]:
        return math.inf
    i = bisect.bisect_left(f, target)
    if f[i] == target:
        return 1.0 + i
    # f[i-1] < target < f[i]; interpolate on log f.
    lo, hi = f[i - 1], f[i]
    frac = (math.log(target) - math.log(lo)) / (math.log(hi) - math.log(lo))
    return 1.0 + (i - 1) + frac


def one_level_condition(B: float, D: float, beta: float) -> float:
    """Critical physical error eta* = B^{-1} D^{-2 beta}.

    A single level of encoding helps (under the exponential law) iff
    eta0 < eta*.  At beta = 0 this is the scale-independent threshold 1/B.
    """
    if B < 1 or D < 1 or beta < 0:
        raise InputError("need B >= 1, D >= 1, beta >= 0")
    return math.exp(-math.log(B) - 2.0 * beta * math.log(D))


def exp_model_bounds(scheme: FTScheme, eta0: float, beta: float) -> BoundsReport:
    """Stationary point, crossing level and p-bounds for exponential noise.

    Evaluates, for eta(k) = eta0 * D**(beta*k):

    * k_st = -1/ln2 - ln(B eta0)/(beta ln D), the continuous minimum;
    * k_tilde = -ln(B eta0 D^beta)/ln(D^beta), the unique crossing with
      p(k_tilde) = p(k_tilde - 1) (p is a convex function of k);
    * log10 p(k_st)  = [-ln B - (beta/g2) e^(-1 - g2 ln(B eta0)/beta)]/ln 10,
      with g2 = ln 2/ln D (lower bound on the attainable minimum);
    * log10 p(k_tilde) = [-ln B - g1 beta (B eta0)^(-g2/beta)]/ln 10, with
      g1 = ln(D)/2 (upper bound);
    * useful = eta0 < B^{-1} D^{-2 beta}.

    The bound values are meaningful only when `useful` is true.
    """
    if beta <= 0:
        raise InputError(f"beta must be > 0, got {beta!r}")
    if not 0.0 < eta0 < 1.0:
        raise InputError(f"eta0 must lie in (0, 1), got {eta0!r}")
    if scheme.D < 2:
        raise InputError("exponential bounds need D >= 2 (D = 1 never grows)")

    ln_d = math.log(scheme.D)
    ln_b = math.log(scheme.B)
    ln_b_eta0 = ln_b + math.log(eta0)  # log-sum avoids linear underflow
    g2 = math.log(2.0) / ln_d
    g1 = ln_d / 2.0

    k_st = -1.0 / math.log(2.0) - ln_b_eta0 / (beta * ln_d)
    k_tilde = -ln_b_eta0 / (beta * ln_d) - 1.0

    # The inner exponentials overflow whenever (B eta0)^(-g2/beta) leaves the
    # float range (for the preset scheme at eta0 = 1e-8, every beta below
    # ~1.6e-3); that limit is p -> 0, i.e. log10 p -> -inf.  A subnormal
    # beta also sends k_st and k_tilde to inf, and at a huge beta the
    # products with beta overflow, so both bounds are -inf there too.
    # BoundsReport.to_dict reports each such float as null.
    try:
        inner_lower = math.exp(-1.0 - g2 * ln_b_eta0 / beta)
    except OverflowError:
        inner_lower = math.inf
    try:
        inner_upper = math.exp(-g2 * ln_b_eta0 / beta)
    except OverflowError:
        inner_upper = math.inf
    ln_p_lower = -ln_b - (beta / g2) * inner_lower
    # g1 * beta rounds to 0 for a subnormal beta, where inner_upper has
    # overflowed: the product is still that limit, not 0 * inf = nan.
    ln_p_upper = -math.inf if inner_upper == math.inf else -ln_b - g1 * beta * inner_upper

    return BoundsReport(
        k_st=k_st,
        k_tilde=k_tilde,
        log10_p_lower=ln_p_lower / math.log(10.0),
        log10_p_upper=ln_p_upper / math.log(10.0),
        useful=eta0 < one_level_condition(scheme.B, scheme.D, beta),
    )

