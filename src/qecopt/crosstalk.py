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

import math
import warnings
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
# Lattice terms the oracle evaluates at once (whole rows, at least one): 512 KB
# of floats per temporary, so a square at MAX_SQUARE_SIDE stays near 2 MB.
ORACLE_BLOCK = 1 << 16


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
        if not self.z >= 0:  # also rejects NaN
            raise ValueError(f"z must be >= 0, got {self.z!r}")
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


def _centre_row_sum(side: int, d: int, z: float) -> float:
    """Row sum of the centre site c = (side-1)//2 of a chain (d = 1) or a
    side x side square (d = 2), in O(side) memory.

    Folding the offsets [-c, side-1-c] on each axis gives u in [0, side-1-c],
    with multiplicity 2 for 1 <= u <= c and 1 otherwise.  The chain is the
    u = 0 row of that quadrant; the square is summed in blocks of rows.  The
    self term is zeroed after the power, so z = 0 counts the other sites.
    """
    c = (side - 1) // 2
    offsets = np.arange(side - c, dtype=float)
    weights = np.where((offsets >= 1) & (offsets <= c), 2.0, 1.0)
    squares = offsets * offsets
    rows = 1 if d == 1 else offsets.size
    step = max(1, ORACLE_BLOCK // offsets.size)
    sums = []
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        with np.errstate(divide="ignore"):  # 0 ** (-z/2) at the centre site
            terms = (squares[start:stop, None] + squares) ** (-z / 2.0)
        if start == 0:
            terms[0, 0] = 0.0
        sums.append(np.sum(weights[start:stop, None] * weights * terms))
    return math.fsum(sums)  # pairwise block sums, combined exactly


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
    """
    if spec.aspect == "chain" and spec.N0 > MAX_CHAIN_SITES:
        raise ValueError(f"chain N0 capped at {MAX_CHAIN_SITES}")
    if spec.aspect == "square" and spec.side > MAX_SQUARE_SIDE:
        raise ValueError(f"square side capped at {MAX_SQUARE_SIDE}")
    return _centre_row_sum(spec.side, spec.d, spec.z)


def _c_z_integral(z: float) -> float:
    """C_z = integral_0^{pi/4} cos(theta)^(z-2) dtheta, by adaptive quadrature."""
    from scipy.integrate import quad

    value, err = quad(lambda t: math.cos(t) ** (z - 2.0), 0.0, math.pi / 4.0,
                      epsabs=1e-12, epsrel=1e-12)
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
        warnings.warn(
            f"asymptotic lattice formula is unreliable for N0={n0} < 100",
            stacklevel=2,
        )
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


def compare_to_csv(rows: list[tuple[int, float, float]]) -> str:
    """CSV of oracle-vs-asymptotic rows, header ``N0,oracle,asymptotic,rel_err``."""
    lines = ["N0,oracle,asymptotic,rel_err"]
    for n0, oracle, asym in rows:
        rel = abs(asym - oracle) / oracle if oracle else math.inf
        lines.append(f"{n0},{oracle!r},{asym!r},{rel!r}")
    return "\n".join(lines) + "\n"
