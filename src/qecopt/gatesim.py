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
from dataclasses import dataclass, field

import numpy as np

from .scheme import PI_SQ_OVER_16, InputError

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

# choi.ravel() = _CHOI_MAP @ ptm.ravel(): column 4 i + j is
# sigma_i (x) sigma_j^T / 4, the Choi-matrix image of transfer-matrix entry
# (i, j).
_CHOI_MAP = np.array([np.kron(p, q.T).ravel() / 4.0 for p in PAULIS for q in PAULIS]).T
_CHOI_MAP.flags.writeable = False

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
            raise InputError(f"theta must lie in (0, 2*pi], got {self.theta!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InputError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if not (math.isfinite(self.n_g) and self.n_g > 0):
            raise InputError(f"n_g must be finite and > 0, got {self.n_g!r}")
        if self.omega0 is not None and not (
            math.isfinite(self.omega0) and self.omega0 > 0
        ):
            raise InputError(f"omega0 must be finite and > 0, got {self.omega0!r}")

    @property
    def rwa_margin(self) -> float:
        """(omega0/gamma) / n_g, or inf when omega0 is None.  InputError when
        omega0 is given and the margin leaves (0, inf): omega0/gamma can
        overflow or underflow for a legal spec."""
        if self.omega0 is None:
            return math.inf
        margin = (self.omega0 / self.gamma) / self.n_g
        if not 0.0 < margin < math.inf:
            raise InputError(f"rotating-wave margin is outside float range: {margin:g}")
        return margin

    @property
    def rwa_marginal(self) -> bool:
        """Whether the rotating-wave approximation is marginal: a margin of
        at most RWA_MARGINAL_RATIO."""
        return self.rwa_margin <= RWA_MARGINAL_RATIO


@dataclass(frozen=True)
class QubitChannel:
    """Noise map in Pauli-transfer representation plus its chi diagonal.

    ptm is the 4x4 real transfer matrix in the (1, x, y, z) basis; chi_diag,
    (chi00, p_x, p_y, p_z), is derived from it (extract_chi_diag).
    Construction enforces the shape, trace preservation and finiteness
    (extract_chi_diag) and complete positivity (Choi spectrum).  The chi
    weight needs no check of its own: it equals ptm[0, 0], which trace
    preservation holds to TP_TOL.
    """

    ptm: np.ndarray
    chi_diag: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        ptm = np.asarray(self.ptm, dtype=float)
        object.__setattr__(self, "ptm", ptm)
        object.__setattr__(self, "chi_diag", extract_chi_diag(ptm))
        eigmin = float(np.linalg.eigvalsh(choi_from_ptm(ptm)).min())
        if not eigmin >= CP_TOL:
            raise InputError(f"channel is not completely positive ({eigmin:.2e})")

    def to_dict(self) -> dict:
        return {"ptm": self.ptm.tolist(), "chi_diag": [float(v) for v in self.chi_diag]}


def pulse_params(spec: GateSpec) -> tuple[float, float]:
    """(Omega, tau) of the square pulse; Omega * tau == theta identically.

    InputError when 4 gamma n_g, Omega or tau leaves the float range."""
    rate = 4.0 * spec.gamma * spec.n_g
    omega = rate / spec.theta
    tau = spec.theta ** 2 / rate if rate > 0.0 else math.inf
    if not (math.isfinite(omega) and math.isfinite(tau)):
        raise InputError(
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
    """Choi matrix (trace-1 normalization) of a channel given as a PTM:
    the Hermitian part of sum_ij ptm[i, j] sigma_i (x) sigma_j^T / 4."""
    choi = (_CHOI_MAP @ np.ravel(ptm)).reshape(4, 4)
    return 0.5 * (choi + choi.conj().T)


def extract_chi_diag(ptm: np.ndarray) -> tuple[float, float, float, float]:
    """(chi00, p_x, p_y, p_z) from the diagonal of a noise map's transfer
    matrix (a noisy gate with its ideal rotation divided out).

    InputError when the matrix is not 4x4, row 0 is not (1, 0, 0, 0) to
    TP_TOL (the message gives row 0's largest error) or an entry is not
    finite.
    """
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise InputError(f"transfer matrix must be 4x4, got {ptm.shape}")
    entries = ptm.ravel().tolist()
    # One chain of "ok" comparisons, so a NaN or an infinity in row 0 fails it.
    if not (abs(entries[0] - 1.0) <= TP_TOL and abs(entries[1]) <= TP_TOL
            and abs(entries[2]) <= TP_TOL and abs(entries[3]) <= TP_TOL):
        row_err = np.max(np.abs(ptm[0] - np.array([1.0, 0, 0, 0])))
        raise InputError(f"transfer matrix is not trace preserving ({row_err:.2e})")
    if not all(map(math.isfinite, entries[4:])):
        raise InputError("transfer matrix is not finite")
    chi = _CHI_COEFF @ np.diag(ptm) / 4.0  # the coefficient matrix inverts itself
    return tuple(chi.tolist())


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
    the propagator is not finite, and that raises InputError.  A marginal
    rotating-wave approximation is logged; a margin outside the float range
    is an InputError (GateSpec.rwa_margin), checked first.
    """
    if spec.rwa_marginal:
        from . import _warn

        _warn(f"rotating-wave approximation is marginal: n_g={spec.n_g:g} vs "
              f"omega0/gamma={spec.omega0 / spec.gamma:g}")
    decay = spec.theta ** 2 / (4.0 * spec.n_g)
    ptm = ideal_rotation_ptm(-spec.theta) @ _bloch_propagator(spec.theta, decay)
    if not all(map(math.isfinite, ptm.ravel().tolist())):
        raise InputError(
            f"gate propagator is not finite at n_g={spec.n_g:g} "
            f"(gamma*tau = {decay:.3g})"
        )
    return QubitChannel(ptm=ptm)


def asymptotic_pauli_errors(n_g: float) -> tuple[float, float, float]:
    """Leading-order (p_x, p_y, p_z) of the pi-pulse for n_g photons:
    (pi^2/16, pi^2/32, pi^2/32) / n_g.  The dominant one, p_x, is the
    physical error probability used by the error-correction analysis."""
    if n_g <= 0:
        raise InputError(f"n_g must be > 0, got {n_g!r}")
    p_x = PI_SQ_OVER_16 / n_g
    return (p_x, 0.5 * p_x, 0.5 * p_x)
