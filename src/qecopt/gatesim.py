"""Noise channel of a resonantly driven qubit in a waveguide.

A single-qubit rotation by theta about x is driven by a square pulse carrying
n_g photons on average.  Driving and spontaneous emission share the same
waveguide, which ties the Rabi frequency to the emission rate gamma:
Omega = 4 gamma n_g / theta, and the pulse lasts tau = theta / Omega.

During the pulse the qubit evolves under the rotating-frame master equation

    drho/dt = -i [ (Omega/2) sigma_x, rho ] + gamma D(rho),
    D(rho)  = sigma_- rho sigma_+ - (sigma_+ sigma_- rho + rho sigma_+ sigma_-)/2.

The drive is time-independent in this frame (the lab-frame
oscillation at omega0 only enters the validity check n_g << omega0/gamma), so
in the Pauli basis (1, x, y, z) the noisy gate is exactly expm(tau G), with G
the generator of the damped, driven Bloch equations (Torrey, Phys. Rev. 76,
1059 (1949)), whose exponential has a closed form.  The noise map E is the
noisy gate with the ideal rotation divided out, E = R(-theta) expm(tau G);
its Pauli-transfer matrix and the diagonal of its chi (process) matrix: the
X/Y/Z error probabilities: are what the error-correction analysis consumes.
tau G depends on theta and n_g alone, and the result is bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scheme import PI_SQ_OVER_16

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)  # |0><0| - |1><1|
IDENTITY = np.eye(2, dtype=complex)
PAULIS = (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)

# chi-diagonal extraction: s_alpha = chi00 + chi_aa - sum_{b != 0,a} chi_bb
# for s_alpha = (1/2) Tr{sigma_a E(sigma_a)}; the coefficient matrix is its
# own inverse up to the factor 4.
_CHI_COEFF = np.array(
    [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)
assert abs(np.linalg.det(_CHI_COEFF)) > 1.0  # fixed, invertible by construction

# sigma_i (x) sigma_j^T, the Choi-matrix image of each transfer-matrix entry.
_CHOI_BASIS = np.array([[np.kron(p, q.T) for q in PAULIS] for p in PAULIS])

TP_TOL = 1e-9
CP_TOL = -1e-8
# The rotating-wave approximation is marginal when (omega0/gamma) / n_g is
# at most this ratio.
RWA_MARGINAL_RATIO = 100.0


@dataclass(frozen=True)
class GateSpec:
    """Driven-gate parameters: rotation angle, emission rate, photon budget.

    omega0 (the qubit frequency) only feeds the rotating-wave validity check
    and energy accounting; None disables the check.
    """

    theta: float
    gamma: float
    n_g: float
    omega0: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.theta <= 2.0 * math.pi:
            raise ValueError(f"theta must lie in (0, 2*pi], got {self.theta!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if not (math.isfinite(self.n_g) and self.n_g > 0):
            raise ValueError(f"n_g must be finite and > 0, got {self.n_g!r}")
        if self.omega0 is not None and not (
            math.isfinite(self.omega0) and self.omega0 > 0
        ):
            raise ValueError(f"omega0 must be finite and > 0, got {self.omega0!r}")

    @property
    def rwa_margin(self) -> float:
        """(omega0/gamma) / n_g; values <= RWA_MARGINAL_RATIO are marginal
        for the RWA."""
        if self.omega0 is None:
            return math.inf
        return (self.omega0 / self.gamma) / self.n_g


@dataclass(frozen=True)
class QubitChannel:
    """Noise map in Pauli-transfer representation plus its chi diagonal.

    ptm is the 4x4 real transfer matrix in the (1, x, y, z) basis; chi_diag
    is (chi00, p_x, p_y, p_z).  Construction enforces trace preservation,
    complete positivity (Choi spectrum) and the chi normalization.
    """

    ptm: np.ndarray
    chi_diag: tuple[float, float, float, float]
    rwa_margin: float = math.inf

    def __post_init__(self) -> None:
        ptm = np.asarray(self.ptm, dtype=float)
        object.__setattr__(self, "ptm", ptm)
        if ptm.shape != (4, 4):
            raise ValueError(f"ptm must be 4x4, got {ptm.shape}")
        first_row_err = np.max(np.abs(ptm[0] - np.array([1.0, 0, 0, 0])))
        # Written as "not ok" so that a NaN fails each check.
        if not first_row_err <= TP_TOL:
            raise ValueError(f"channel is not trace preserving ({first_row_err:.2e})")
        if not np.all(np.isfinite(ptm)):
            raise ValueError("channel transfer matrix is not finite")
        eigmin = float(np.min(np.linalg.eigvalsh(choi_from_ptm(ptm))))
        if not eigmin >= CP_TOL:
            raise ValueError(f"channel is not completely positive ({eigmin:.2e})")
        if not sum(self.chi_diag) <= 1.0 + 1e-9:
            raise ValueError(f"chi diagonal exceeds unit weight: {self.chi_diag}")

    def to_dict(self) -> dict:
        return {
            "ptm": [[float(v) for v in row] for row in self.ptm],
            "chi_diag": [float(v) for v in self.chi_diag],
            "rwa_margin": None if math.isinf(self.rwa_margin) else self.rwa_margin,
        }


def pulse_params(spec: GateSpec) -> tuple[float, float]:
    """(Omega, tau) of the square pulse; Omega * tau == theta identically.

    ValueError when 4 gamma n_g, Omega or tau leaves the float range."""
    rate = 4.0 * spec.gamma * spec.n_g
    omega = rate / spec.theta
    tau = spec.theta ** 2 / rate if rate > 0.0 else math.inf
    if not (math.isfinite(omega) and math.isfinite(tau)):
        raise ValueError(
            f"pulse is outside float range: 4 gamma n_g = {rate:g}, "
            f"Omega = {omega:g}, tau = {tau:g}"
        )
    return omega, tau


def ideal_rotation_ptm(theta: float) -> np.ndarray:
    """Transfer matrix of the unitary rotation by theta about x."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, c, -s],
            [0.0, 0.0, s, c],
        ]
    )


def choi_from_ptm(ptm: np.ndarray) -> np.ndarray:
    """Choi matrix (trace-1 normalization) of a channel given as a PTM."""
    choi = np.tensordot(ptm, _CHOI_BASIS, axes=2) / 4.0
    return 0.5 * (choi + choi.conj().T)


def extract_chi_diag(
    ptm: np.ndarray, theta: float = 0.0
) -> tuple[float, float, float, float]:
    """(chi00, p_x, p_y, p_z) from a channel's transfer-matrix diagonal.

    With theta == 0 the input is the noise map itself; otherwise it is a
    noisy rotation gate and the ideal rotation by theta is divided out first.
    """
    ptm = np.asarray(ptm, dtype=float)
    if not (abs(ptm[0, 0] - 1.0) <= TP_TOL and np.max(np.abs(ptm[0, 1:])) <= TP_TOL):
        raise ValueError("transfer matrix is not trace preserving")
    if theta != 0.0:
        ptm = ideal_rotation_ptm(-theta) @ ptm
    s = np.diag(ptm)
    chi = _CHI_COEFF @ s / 4.0  # the coefficient matrix inverts itself
    return (float(chi[0]), float(chi[1]), float(chi[2]), float(chi[3]))


def _bloch_propagator(rotation: float, decay: float) -> np.ndarray:
    """expm(tau G) in the (1, x, y, z) basis, in closed form, for Omega tau =
    rotation and gamma tau = decay; G generates the Bloch equations
    dx/dt = -gamma x/2, dy/dt = -gamma y/2 - Omega z, dz/dt = Omega y - gamma (z - 1).

    x decays as e^(-decay/2).  The homogeneous (y, z) block
    M = [[-decay/2, -rotation], [rotation, -decay]] obeys (M - s)^2 = q^2 with
    s = -3 decay/4 and q^2 = decay^2/16 - rotation^2, so
    exp M = e^s [C + S (M - s)]: C = cos p and S = sin p / p with p^2 = -q^2
    (underdamped), C = cosh q and S = sinh q / q (overdamped, written through
    e^(s+q) and expm1 so that neither overflows), C = S = 1 (critical).  The
    affine column is (1 - exp M) v_ss for the driven steady state
    v_ss = (-2r, 1) / (1 + 2r^2), r = rotation/decay.  Nothing squares the
    decay, so every finite decay gives a finite matrix.
    """
    a = 0.25 * decay  # M - s = [[a, -rotation], [rotation, -a]]
    if a > rotation:
        q = math.sqrt(a - rotation) * math.sqrt(a + rotation)
        lead = math.exp(-3.0 * a + q)  # e^s C and e^s S below
        cos_part = 0.5 * lead * (1.0 + math.exp(-2.0 * q))
        sin_part = -lead * math.expm1(-2.0 * q) / (2.0 * q)
    elif a < rotation:
        p = math.sqrt(rotation - a) * math.sqrt(rotation + a)
        lead = math.exp(-3.0 * a)
        cos_part, sin_part = lead * math.cos(p), lead * math.sin(p) / p
    else:
        cos_part = sin_part = math.exp(-3.0 * a)
    yy, zz = cos_part + sin_part * a, cos_part - sin_part * a
    yz, zy = -sin_part * rotation, sin_part * rotation
    # v_ss from rotation and decay divided by the larger of the two, so no
    # square overflows and decay = 0 (theta^2 underflowing) stays defined
    scale = max(rotation, decay)
    g, w = decay / scale, rotation / scale
    y_ss, z_ss = -2.0 * w * g / (g * g + 2.0 * w * w), g * g / (g * g + 2.0 * w * w)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, math.exp(-0.5 * decay), 0.0, 0.0],
            [(1.0 - yy) * y_ss - yz * z_ss, 0.0, yy, yz],
            [(1.0 - zz) * z_ss - zy * y_ss, 0.0, zy, zz],
        ]
    )


def evolve_noisy_gate(spec: GateSpec) -> QubitChannel:
    """Noise map of the driven gate: R(-theta) expm(tau G).

    With Omega tau = theta and gamma tau = theta^2 / (4 n_g), tau G depends
    on theta and n_g alone.  Every finite gamma tau gives a finite
    propagator; once gamma tau itself overflows (n_g below ~1e-308 photons)
    the propagator is not finite, and that raises ValueError.
    """
    if spec.rwa_margin <= RWA_MARGINAL_RATIO:
        from . import _warn

        _warn(f"rotating-wave approximation is marginal: n_g={spec.n_g:g} vs "
              f"omega0/gamma={spec.omega0 / spec.gamma:g}")
    decay = spec.theta ** 2 / (4.0 * spec.n_g)
    ptm = ideal_rotation_ptm(-spec.theta) @ _bloch_propagator(spec.theta, decay)
    if not np.all(np.isfinite(ptm)):
        raise ValueError(
            f"gate propagator is not finite at n_g={spec.n_g:g} "
            f"(gamma*tau = {decay:.3g})"
        )
    return QubitChannel(
        ptm=ptm, chi_diag=extract_chi_diag(ptm), rwa_margin=spec.rwa_margin
    )


def asymptotic_pauli_errors(n_g: float) -> tuple[float, float, float]:
    """Leading-order (p_x, p_y, p_z) of the pi-pulse for n_g photons:
    (pi^2/16, pi^2/32, pi^2/32) / n_g.  The dominant one, p_x, is the
    physical error probability used by the error-correction analysis."""
    if n_g <= 0:
        raise ValueError(f"n_g must be > 0, got {n_g!r}")
    p_x = PI_SQ_OVER_16 / n_g
    return (p_x, 0.5 * p_x, 0.5 * p_x)
