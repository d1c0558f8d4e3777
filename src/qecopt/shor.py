"""End-to-end photon and energy budgets for Shor's algorithm.

Combines the concatenation optimizer with the driven-gate noise model: a run
of Shor's algorithm on an R-bit key needs L ~ R^2 logical gates, each allowed
to fail with probability at most ~1/(3L); the photon budget per logical gate
fixes the physical error probability at every concatenation level, and the
optimizer picks the level that minimizes the logical error.  Inverting the
question gives the smallest photon budget that reaches the target, and from
there the energy, power and timing of the whole computation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gatesim import GateSpec, pulse_params
from .optimizer import DEFAULT_K_CAP, OptResult, find_kmax, levels
from .scheme import PI_SQ_OVER_16, FTScheme, InputError, ShorPhotonNoise, check_key_length

HBAR = 1.054571817e-34  # J*s

N_L_SEARCH_CAP = 1e30

# The schemes (B, D) whose crossing base is kept (see min_photon_budget):
# 520 bytes of floats each, so ~17 KB in all.
_CROSSING_SCHEMES = 32


@dataclass(frozen=True)
class ShorProblem:
    """Problem size for Shor's algorithm: R-bit key and target overall
    success probability P_target."""

    R: int
    P_target: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        check_key_length(self.R)
        if not 0.5 < self.P_target < 1.0:
            raise InputError(f"P_target must lie in (1/2, 1), got {self.P_target!r}")

    @property
    def L(self) -> int:
        """Logical gates, the discrete-Fourier-transform count R^2."""
        return self.R * self.R


@dataclass(frozen=True)
class EnergyBill:
    """Photon, energy, power and timing figures for one full run.

    Sequential execution of the logical gates is assumed for the power
    figure.  pulse is the pi-pulse of one physical gate that the bill
    prices; its n_g is the photons per physical gate of the noise law the
    optimizer scans (ShorPhotonNoise.photons_per_gate).  Invariants
    (eta(k) = (pi^2/16)/n_g, tau_L = M^k tau_g, T_tot = L tau_L,
    E_tot = P_avg T_tot) hold to relative 1e-12 by construction.
    """

    n_L: float
    k: int
    E_tot: float
    P_avg: float
    tau_g: float
    tau_L: float
    T_tot: float
    pulse: GateSpec

    @property
    def n_g(self) -> float:
        """Photons per physical gate, the pulse's n_g."""
        return self.pulse.n_g

    def to_dict(self) -> dict:
        """The figures; the pulse gives only its n_g."""
        return {
            "n_L": self.n_L,
            "n_g": self.n_g,
            "k": self.k,
            "E_tot_J": self.E_tot,
            "P_W": self.P_avg,
            "tau_g_s": self.tau_g,
            "tau_L_s": self.tau_L,
            "T_tot_s": self.T_tot,
        }


@dataclass(frozen=True)
class MinBudget:
    """Result of the minimal photon-budget inversion.

    k and log10_p_min are the optimal level and its logical error at n_L,
    found by the confirming k-scan; an infeasible result has k = 0 and
    log10_p_min None.
    """

    n_L: float
    k: int
    log10_p_min: float | None = None

    @property
    def feasible(self) -> bool:
        """Whether the target is reachable within the cap: a scan confirmed it."""
        return self.log10_p_min is not None


def target_logical_error(problem: ShorProblem, p_err: float | None = None) -> float:
    """The error per logical gate to reach: p_err when given, which must lie
    in (0, 1]; else the largest tolerable error probability per logical gate.

    That is 1/(3L) for the standard P_target = 2/3; otherwise the small-error
    expansion of (1 - p)^L > P_target, namely -ln(P_target)/L.  InputError
    when that rounds to 0, as it does for L near the float range.
    """
    if p_err is not None:
        if not 0.0 < p_err <= 1.0:
            raise InputError(f"perr must lie in (0, 1], got {p_err!r}")
        return p_err
    if problem.P_target == 2.0 / 3.0:
        target = 1.0 / (3.0 * problem.L)
    else:
        target = -math.log(problem.P_target) / problem.L
    if not target > 0.0:
        raise InputError("target error per logical gate underflows to 0 at this R "
                         "and P_target")
    return target


def photon_noise_model(
    problem: ShorProblem | None, n_L: float, scheme: FTScheme
) -> ShorPhotonNoise:
    """Photon-budget noise law for n_L photons per logical gate.

    The per-level gate growth is the scheme's D: a level-k gate tiles into
    D^k non-overlapping rectangles, one per location of a level-(k-1) gate
    (Aliferis, Gottesman and Preskill, quant-ph/0504218; D = A' for the
    7-qubit preset).  Counting A * A'^(k-1) extended rectangles instead
    would count each shared leading error-correction box twice.  The law
    does not depend on the problem: its L logical gates cancel.
    """
    return ShorPhotonNoise(n_L=n_L, A=float(scheme.D))


def optimize_photon_budget(problem: ShorProblem, n_L: float, scheme: FTScheme) -> OptResult:
    """Best concatenation level for a given photon budget per logical gate,
    scanned over k = 0..DEFAULT_K_CAP."""
    return find_kmax(scheme, photon_noise_model(problem, n_L, scheme))


@functools.lru_cache(maxsize=_CROSSING_SCHEMES)
def _crossing_base(B: int, D: int) -> tuple[np.ndarray, np.ndarray]:
    """log B + log(pi^2/16) + k log D and 2^k over k = 0..DEFAULT_K_CAP, the
    part of min_photon_budget's crossings that the target does not change:
    read-only, built once per (B, D) and kept for the last
    _CROSSING_SCHEMES of them."""
    table = levels(DEFAULT_K_CAP)
    base = math.log10(B) + math.log10(PI_SQ_OVER_16) + table.ks * math.log10(D)
    base.flags.writeable = False
    return base, table.two_k


def min_photon_budget(
    problem: ShorProblem,
    scheme: FTScheme,
    p_err: float | None = None,
    n_L_cap: float = N_L_SEARCH_CAP,
) -> MinBudget:
    """Smallest photon budget per logical gate meeting the error target.

    Closed form.  Each physical gate gets n_L / D^k photons, so
    eta_k = (pi^2/16) D^k / n_L and the level-k bound
    log10 p_k = -log B + 2^k (log B + log eta_k) is affine in log n_L: level
    k meets the target t exactly when

        log n_L >= log B + log(pi^2/16) + k log D - (t + log B) / 2^k.

    The minimum budget is the smallest of these crossings over
    k = 0..DEFAULT_K_CAP, at least one photon, raised by one part in 10^12 to
    absorb rounding.  One k-scan at that budget supplies the level and
    confirms the target (RuntimeError if it is missed).  Returns an explicit
    infeasible result when the budget exceeds n_L_cap, which must be positive
    and finite.  p_err, when given, must lie in (0, 1].
    """
    if not 0.0 < n_L_cap < math.inf:
        raise InputError(f"nlcap must be positive and finite, got {n_L_cap!r}")
    log_cap = math.log10(n_L_cap)
    target = math.log10(target_logical_error(problem, p_err))
    base, two_k = _crossing_base(scheme.B, scheme.D)
    log_n = float((base - (target + math.log10(scheme.B)) / two_k).min())
    # n_L > n_L_cap, compared in log space so 10^log_n cannot overflow.
    if not log_n <= log_cap:
        return MinBudget(n_L=n_L_cap, k=0)
    n_L = max(1.0, 10.0 ** log_n * (1.0 + 1e-12))
    result = optimize_photon_budget(problem, n_L, scheme)
    log10_p_min = result.log10_curve[result.k_max]
    if not log10_p_min <= target:
        raise RuntimeError(
            f"photon budget n_L={n_L!r} misses the target log10 p = {target!r}"
        )
    return MinBudget(n_L=n_L, k=result.k_max, log10_p_min=log10_p_min)


def energy_bill(
    problem: ShorProblem,
    n_L: float,
    k: int,
    gamma: float,
    omega0: float,
    scheme: FTScheme,
) -> EnergyBill:
    """Energy, power and timing of a full run at a given budget and level.

    Each physical gate is a pi-pulse with the n_g photons of the noise law
    (photon_noise_model); the clock interval is its duration
    pi^2/(4 gamma n_g) (gatesim.pulse_params); a level-k logical gate takes
    M^k clock cycles.  The law and GateSpec check n_L, gamma, omega0 and
    n_g; InputError when a figure leaves the float range.
    """
    if k < 0:
        raise InputError("concatenation level must be >= 0")
    n_g = photon_noise_model(problem, n_L, scheme).photons_per_gate(k)
    pulse = GateSpec(theta=math.pi, gamma=gamma, n_g=n_g, omega0=omega0)
    _, tau_g = pulse_params(pulse)
    try:
        tau_L = scheme.M ** k * tau_g
    except OverflowError:  # M^k, an int, is past the float range
        tau_L = math.inf
    t_tot = problem.L * tau_L
    e_tot = HBAR * omega0 * problem.L * n_L
    p_avg = e_tot / t_tot if t_tot > 0.0 else math.inf
    if not all(0.0 < v < math.inf for v in (t_tot, e_tot, p_avg)):
        raise InputError(
            f"energy bill is outside float range at n_L={n_L:g}, k={k}, "
            f"gamma={gamma:g}, omega0={omega0:g}"
        )
    return EnergyBill(
        n_L=n_L,
        k=k,
        E_tot=e_tot,
        P_avg=p_avg,
        tau_g=tau_g,
        tau_L=tau_L,
        T_tot=t_tot,
        pulse=pulse,
    )

