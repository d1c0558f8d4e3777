"""Long-range crosstalk: lattice error strength and its logical-level growth.

The error strength of unwanted pairwise couplings ||H_ij|| = delta * r^{-z}
on a chain or square lattice is Delta = max_i sum_j ||H_ij||.  All public
numbers here are dimensionless: lattice sums are returned in units of
delta / a^z (a the lattice spacing), and fault-tolerance statements are in
t0*Delta with t0 the slowest gate duration.  Note that t0*Delta bounds the
error per gate but is not itself an error probability.

Long-range noise of strength t0*Delta is corrected at least as well as local
noise of strength e^(1+1/(2e)) * sqrt(2 t0 Delta), which maps every result of
the concatenation optimizer onto crosstalk by amplifying the fault-pair count
B to 2 e^(2+1/e) B^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .optimizer import log10_logical_error, one_level_condition
from .scheme import FTScheme, LogProb

# Local-noise equivalent of long-range strength: eta_eff = PREFACTOR*sqrt(2 t0 Delta).
LOCAL_NOISE_PREFACTOR = math.exp(1.0 + 1.0 / (2.0 * math.e))  # ~3.2672
# Factor replacing B in every optimizer formula: B -> B_AMPLIFICATION * B**2.
B_AMPLIFICATION = 2.0 * math.exp(2.0 + 1.0 / math.e)  # ~21.349

MAX_CHAIN_SITES = 10 ** 6
MAX_SQUARE_SIDE = 10 ** 4
# Floats in the square oracle's largest temporary: 64 KiB, under glibc's
# default 128 KiB mmap threshold, so no temporary faults in fresh pages.  It
# bounds the tile below side 129 (65^2 floats) and a block of row integrals.
ORACLE_BLOCK = 1 << 13


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the interacting qubit array.

    d: spatial dimension (1 = chain, 2 = square); z: power-law decay
    exponent; delta, a: coupling prefactor and lattice spacing (folded into
    the dimensionless group delta/a^z; the lattice sums below are returned in
    those units); N0: number of physical qubits.
    """

    d: int
    z: float
    N0: int
    delta: float = 1.0
    a: float = 1.0
    aspect: str = "chain"

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d!r}")
        if self.aspect not in ("chain", "square"):
            raise ValueError(f"aspect must be 'chain' or 'square', got {self.aspect!r}")
        if (self.d == 1) != (self.aspect == "chain"):
            raise ValueError(f"d={self.d} inconsistent with aspect={self.aspect!r}")
        if self.N0 < 2:
            raise ValueError(f"N0 must be >= 2, got {self.N0!r}")
        if not 0 <= self.z < math.inf:  # also rejects NaN
            raise ValueError(f"z must be finite and >= 0, got {self.z!r}")
        if self.delta <= 0 or self.a <= 0:
            raise ValueError("delta and a must be positive")
        if self.aspect == "square":
            side = math.isqrt(self.N0)
            if side * side != self.N0:
                raise ValueError(f"square lattice needs a square N0, got {self.N0}")

    @property
    def side(self) -> int:
        return self.N0 if self.aspect == "chain" else math.isqrt(self.N0)

    def to_dict(self) -> dict:
        return {"d": self.d, "z": self.z, "N0": self.N0, "delta": self.delta,
                "a": self.a, "aspect": self.aspect}


# H_n(z) is summed term by term below this many terms and by Euler-Maclaurin
# from here on; a power of two, so n / _EM_START is exact.
_EM_START = 64
# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin correction coefficients
# (B_2, ..., B_12 = 1/6, -1/30, 1/42, -1/30, 5/66, -691/2730); each is one
# correctly rounded quotient of two exact integers.
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)


def _odd_derivatives(x: float, f_x: float, z: float) -> list[float]:
    """(z)_m x^(-z-m) for m = 1, 3, ..., 11, the size of the odd derivatives
    f^(m)(x) = -(z)_m x^(-z-m) of f(x) = x^-z, given f_x = f(x).  Built as
    f_x times the factors (z+i)/x, which are finite: a huge z underflows f_x
    to 0 and never forms the inf * 0 of (z)_m times x^(-z-m)."""
    term = f_x
    sizes = []
    for m in range(1, 2 * len(_EM_COEFFS)):
        term *= (z + (m - 1)) / x
        if m % 2:
            sizes.append(term)
    return sizes


def _harmonic(n: int, z: float) -> float:
    """The generalized harmonic number H_n(z) = sum_{u=1..n} u^-z, z >= 0.

    Below _EM_START = M terms it is the math.fsum of the terms.  Otherwise
    it is the fsum of the terms u < M and the Euler-Maclaurin sum from M to
    n, with f(x) = x^-z and (z)_m the rising factorial:

        integral_M^n f + (f(M) + f(n))/2
            + sum_{j=1..6} B_2j/(2j)! (f^(2j-1)(n) - f^(2j-1)(M)).

    Its remainder obeys |R| <= 2 zeta(12)/(2 pi)^12 integral_M^n |f^(12)|
    <= 2 zeta(12)/(2 pi)^12 (z)_11 M^(-z-11), at most 6.1e-24 for every
    z >= 0 (the maximum lies near z = 0.55), and H_n >= 1 makes that bound
    relative too.  The integral is (n^(1-z) - M^(1-z))/(1-z), with n^(1-z)
    as n * n^-z so z = 0 gives n - M exactly; within 1/8 of z = 1, where
    that difference cancels, it is M^(1-z) expm1((1-z) ln(n/M))/(1-z), and
    ln(n/M) at z = 1.
    """
    if n < _EM_START:
        return math.fsum(u ** -z for u in range(1, n + 1))
    m = _EM_START
    parts = [u ** -z for u in range(1, m)]
    f_m, f_n = m ** -z, n ** -z
    if z == 1.0:
        parts.append(math.log(n / m))
    elif abs(1.0 - z) < 0.125:
        parts.append(m * f_m * math.expm1((1.0 - z) * math.log(n / m)) / (1.0 - z))
    else:
        parts.append((n * f_n - m * f_m) / (1.0 - z))
    parts.append((f_m + f_n) / 2.0)
    parts += [coeff * (at_m - at_n) for coeff, at_m, at_n in
              zip(_EM_COEFFS, _odd_derivatives(m, f_m, z), _odd_derivatives(n, f_n, z))]
    return math.fsum(parts)


def _chain_row_sum(side: int, z: float) -> float:
    """Row sum of the centre site c = (side-1)//2 of a chain: 2 H_c(z), plus
    (c+1)^-z for the far edge of an even side."""
    c = (side - 1) // 2
    return 2.0 * _harmonic(c, z) + ((c + 1) ** -z if side % 2 == 0 else 0.0)


# Gauss-Legendre nodes of each row integral of a square; a block of
# ORACLE_BLOCK // _ROW_NODES rows holds one float per row and node.
_ROW_NODES = 32


def _row_tails(u: np.ndarray, c: int, z: float) -> np.ndarray:
    """sum_{v=M..c} f_u(v) for rows u >= 1, f_u(v) = (u^2 + v^2)^(-z/2),
    by _harmonic's Euler-Maclaurin sum from M = _EM_START.

    With r = sqrt(u^2 + v^2) and C_m the Gegenbauer polynomials of index
    z/2, f_u^(m)(v) = m! r^(-z-m) C_m(-v/r).  Their three-term recurrence
    carries D_m = f_u r^(-m) C_m, whose factors are finite: a huge z
    underflows f_u to 0 and never forms inf * 0.  The integral from M to c
    is u^(1-z) times that of cosh(y)^(1-z) from asinh(M/u) to asinh(c/u),
    by a 32-point Gauss-Legendre rule; at z = 0 it is c - M exactly.
    """
    ends = np.array([[float(_EM_START)], [float(c)]])
    r2 = u * u + ends * ends  # one row per end of the sum
    f = r2 ** (-z / 2.0)
    q, p = -ends / r2, 1.0 / r2  # (-v/r)/r and 1/r^2
    below, d = 0.0, f
    corrections = 0.0
    for m in range(1, 2 * len(_EM_COEFFS)):
        below, d = d, (2 * m + z - 2) / m * (q * d) - (m + z - 2) / m * (p * below)
        if m % 2:
            corrections += _EM_COEFFS[m // 2] * math.factorial(m) * (d[1] - d[0])
    if z == 0.0:
        integral = float(c - _EM_START)
    else:
        x, w = _gauss_legendre(_ROW_NODES)
        lo, hi = np.arcsinh(_EM_START / u), np.arcsinh(c / u)
        half = (hi - lo) / 2.0
        y = np.multiply.outer(x, half)
        y += lo + half
        np.cosh(y, out=y)
        np.power(y, 1.0 - z, out=y)
        integral = u ** (1.0 - z) * half * (w @ y)
    return integral + ((f[0] + f[1]) / 2.0 + corrections)


def _centre_row_sum(side: int, z: float) -> float:
    """Row sum of the centre site c = (side-1)//2 of a side x side square,
    with no temporary above ORACLE_BLOCK floats.

    Folding the offsets [-c, side-1-c] on each axis gives u, v in [0, n),
    n = side - c, with weight w = 2 for 1 <= u <= c and 1 otherwise.  Below
    c = M = _EM_START the quadrant is one tile, summed term by term; its
    self term is zeroed after the power, so z = 0 counts the other sites.
    From c = M on, only the box u, v < M is; by u <-> v symmetry each row u
    then adds R_u = sum_{v >= M} w_v f_u(v) with weight 2 w_u for u < M (the
    two strips) and w_u otherwise.  R_0 comes from the chain's H_c(z) -
    H_{M-1}(z), the other rows from _row_tails, ORACLE_BLOCK // _ROW_NODES
    rows at a time.
    """
    c = (side - 1) // 2
    n = side - c
    box = n if c < _EM_START else _EM_START
    squares = np.arange(box, dtype=float) ** 2
    weights = np.full(box, 2.0)
    weights[0] = 1.0
    if box == c + 2:  # the far edge of an even side
        weights[-1] = 1.0
    with np.errstate(divide="ignore"):  # 0 ** (-z/2) at the centre site
        terms = (squares[:, None] + squares) ** (-z / 2.0)
    terms[0, 0] = 0.0
    terms *= weights  # weights are 1 or 2: every product is exact
    near = float(weights @ terms.sum(axis=1))
    if c < _EM_START:
        return near
    edge = float(c + 1) if side % 2 == 0 else None
    row = 2.0 * (_harmonic(c, z) - _harmonic(_EM_START - 1, z))
    sums = [near, 2.0 * (row + (edge ** -z if edge else 0.0))]
    step = ORACLE_BLOCK // _ROW_NODES
    for lo in range(1, n, step):
        u = np.arange(lo, min(lo + step, n), dtype=float)
        rows = 2.0 * _row_tails(u, c, z)
        copies = np.where(u < _EM_START, 4.0, 2.0)
        if edge:
            rows += (u * u + edge * edge) ** (-z / 2.0)
            copies[u == edge] = 1.0
        sums.append(float(copies @ rows))
    return math.fsum(sums)


def delta_lattice_oracle(spec: LatticeSpec) -> float:
    """Error strength max_i sum_j |r_i - r_j|^(-z), in units of delta/a^z.

    The centre site attains the maximum at every size and every z >= 0, so
    this is its row sum.  Proof: put the site in row i < c of an n-row
    lattice, fix its column window, and let g(a) be the sum over the sites
    at row offset a.  Moving the site to row i+1 adds g(i+1) and drops
    g(n-1-i), with 1 <= i+1 <= n-1-i.  For a >= 1, g(a) holds no self term
    and none of its terms (a^2 + b^2)^(-z/2) grows with a, so the move never
    lowers the sum.  Rows past the centre mirror rows before it, and the same
    step along each axis takes any site to the centre.

    A chain's row sum costs O(1) and a square's O(side): a box of 64^2 terms
    and one Euler-Maclaurin sum per row.  Each Euler-Maclaurin remainder is
    below 6.1e-24 (see _harmonic): on [-1, 1] the Gegenbauer polynomials
    obey |C_m^(s)| <= (2s)_m/m!, so a row's twelfth derivative is no larger
    than the chain's, |f_u^(12)(v)| <= (z)_12 v^(-z-12).  Each row's
    integrand is analytic but at y = +-i pi/2; mapped onto the 32-point
    rule's [-1, 1], that point lies on a Bernstein ellipse of parameter
    rho >= 2.879 for every row up to the side cap (the least at c = 4999,
    u = 162), so the rule errs by O(rho^-64) ~ 4e-30.
    """
    if spec.aspect == "chain" and spec.N0 > MAX_CHAIN_SITES:
        raise ValueError(f"chain N0 capped at {MAX_CHAIN_SITES}")
    if spec.aspect == "square" and spec.side > MAX_SQUARE_SIDE:
        raise ValueError(f"square side capped at {MAX_SQUARE_SIDE}")
    if spec.aspect == "chain":
        return _chain_row_sum(spec.side, spec.z)
    return _centre_row_sum(spec.side, spec.z)


@functools.cache
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once a process
    and shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _c_z_integral(z: float) -> float:
    """C_z = integral_0^{pi/4} cos(theta)^(z-2) dtheta, by 32-point
    Gauss-Legendre quadrature.

    On [-1, 1] the integrand's nearest singularity (theta = pi/2, where cos
    vanishes) lies at 3, so it is analytic inside the Bernstein ellipse
    rho = 3 + 2 sqrt(2) and the n-point rule errs by O(rho^(-2n)):
    rho^(-64) ~ 1e-49 here.  The gap to the 16-point rule (O(rho^-32) ~ 3e-25)
    checks that at run time.
    """

    def rule(nodes: int) -> float:
        x, w = _gauss_legendre(nodes)
        half = math.pi / 8.0  # theta = half * (x + 1)
        return half * float(w @ np.cos(half * (x + 1.0)) ** (z - 2.0))

    value = rule(32)
    err = abs(value - rule(16))
    if err > 1e-10:
        raise RuntimeError(f"C_z quadrature error {err:.2e} above 1e-10")
    return value


def delta0_asymptotic(spec: LatticeSpec, kappa: float = 1.0) -> float:
    """Large-N0 closed form for the lattice error strength, units delta/a^z.

    Covers the long-ranged regime z <= d:

    * chain,  z < 1: 2^z N0^(1-z) / (1-z)
    * square, z < 2: 2^(z+1) N0^(1-z/2) C_z / (2-z)
    * z = d: logarithmic growth, 2 ln(kappa N0/2) for the chain and
      pi ln(kappa N0/4) for the square.  kappa is an order-one constant from
      the short-distance cutoff, by default neglected (kappa = 1).
    """
    z, n0 = spec.z, spec.N0
    if z > spec.d:
        raise ValueError(f"asymptotic form covers z <= d, got z={z}, d={spec.d}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    if n0 < 100:
        from . import _warn

        _warn(f"asymptotic lattice formula is unreliable for N0={n0} < 100")
    if spec.aspect == "chain":
        if z == 1.0:
            return 2.0 * math.log(kappa * n0 / 2.0)
        return 2.0 ** z * n0 ** (1.0 - z) / (1.0 - z)
    if z == 2.0:
        return math.pi * math.log(kappa * n0 / 4.0)
    return 2.0 ** (z + 1.0) * n0 ** (1.0 - z / 2.0) * _c_z_integral(z) / (2.0 - z)


def effective_local_error(t0_delta: float) -> float:
    """Local-noise strength equivalent to long-range strength t0*Delta."""
    if t0_delta < 0:
        raise ValueError("t0_delta must be >= 0")
    return LOCAL_NOISE_PREFACTOR * math.sqrt(2.0 * t0_delta)


def amplified_fault_pairs(B: float) -> float:
    """Effective fault-pair count for long-range noise, B_AMPLIFICATION*B^2."""
    if B < 1:
        raise ValueError(f"need B >= 1, got {B!r}")
    return B_AMPLIFICATION * B * B


def logical_crosstalk_log10(
    scheme: FTScheme, t0_delta0: float, beta: float, k: int
) -> LogProb:
    """log10 of the crosstalk bound between logical qubits at level k.

    t0 Delta_L(k) = (b' t0 Delta0)^(2^k) / b' * D^(beta 2^k k): the
    logical-error recursion with B replaced by the amplified fault-pair count
    b' = B_AMPLIFICATION * B^2 and eta(k) by t0 Delta0 D^(beta k).
    """
    if t0_delta0 <= 0:
        raise ValueError("t0_delta0 must be > 0")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    log10_eta_k = math.log10(t0_delta0) + beta * k * math.log10(scheme.D)
    return LogProb(log10_logical_error(
        math.log10(amplified_fault_pairs(scheme.B)), log10_eta_k, k))


def crosstalk_usefulness_threshold(B: float, D: float, beta: float) -> float:
    """Largest t0*Delta0 for which error correction reduces crosstalk:
    the one-level condition with B -> b', [B_AMPLIFICATION B^2 D^(2 beta)]^(-1)."""
    return one_level_condition(amplified_fault_pairs(B), D, beta)

