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
from .scheme import FTScheme

# Local-noise equivalent of long-range strength: eta_eff = PREFACTOR*sqrt(2 t0 Delta).
LOCAL_NOISE_PREFACTOR = math.exp(1.0 + 1.0 / (2.0 * math.e))  # ~3.2672
# Factor replacing B in every optimizer formula: B -> B_AMPLIFICATION * B**2.
B_AMPLIFICATION = 2.0 * math.exp(2.0 + 1.0 / math.e)  # ~21.349

MAX_CHAIN_SITES = 10 ** 6
MAX_SQUARE_SIDE = 10 ** 4


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry of the interacting qubit array.

    d: spatial dimension (1 = chain, 2 = square); z: power-law decay
    exponent; N0: number of physical qubits.  The coupling prefactor delta
    and the lattice spacing a enter only as the unit delta/a^z of the
    lattice sums below.
    """

    d: int
    z: float
    N0: int
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
        if self.aspect == "square":
            side = math.isqrt(self.N0)
            if side * side != self.N0:
                raise ValueError(f"square lattice needs a square N0, got {self.N0}")

    @property
    def side(self) -> int:
        return self.N0 if self.aspect == "chain" else math.isqrt(self.N0)

    def to_dict(self) -> dict:
        return {"d": self.d, "z": self.z, "N0": self.N0, "aspect": self.aspect}


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


# Gauss-Legendre nodes of each integral along a rectangle's edge.
_LINE_NODES = 32


def _em_tables() -> tuple[np.ndarray, np.ndarray]:
    """The product Euler-Maclaurin sum's constant tables, built once at
    import and read-only: a 12 x 12 table E and the Hankel indices n1 + n2.

    With f = (x^2 + t^2)^-s, x > 0 and p = x^2 / (x^2 + t^2), the explicit
    sum of the Gegenbauer polynomial C_m^(s), whose generating function is
    f's Taylor series in x, gives d^m f/dx^m = x^-m sum_n K[m, n] (s)_n p^n f
    with K[m, n] = (-1)^n 2^(2n-m) m! / ((m-n)! (2n-m)!) for
    m/2 <= n <= m.  Each K[m, n] is an integer, exact in a float, and
    carries every sign, so no negative base is raised to a power.  Row
    m = 2j - 1 of E is B_2j/(2j)! K[m] (even rows are 0), so an upper end's
    Bernoulli terms sum_j B_2j/(2j)! d^(2j-1) f/dx^(2j-1) are
    sum_n ((x^-m)_m @ E)_n (s)_n p^n f.  Like _box_table, it runs none of
    numpy's integer kernels.
    """
    table = np.zeros((12, 12))
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        m = 2 * j - 1
        for n in range(j, m + 1):
            table[m, n] = coeff * ((-1) ** n * 2 ** (2 * n - m) * math.factorial(m) // (
                math.factorial(m - n) * math.factorial(2 * n - m)))
    hankel = np.array([[n1 + n2 for n2 in range(12)] for n1 in range(12)])
    table.flags.writeable = hankel.flags.writeable = False
    return table, hankel


_EM_TABLE, _EM_HANKEL = _em_tables()


def _powers(p: np.ndarray) -> np.ndarray:
    """p^n for n = 0..11, stacked along a new first axis, by five products."""
    out = np.empty((12,) + p.shape)
    out[0] = 1.0
    out[1] = p
    np.multiply(p, p, out=out[2])
    np.multiply(out[1:3], out[2], out=out[3:5])
    np.multiply(out[1:5], out[4], out=out[5:9])
    np.multiply(out[1:4], out[8], out=out[9:])
    return out


# Whether each end of a sum, edges then corners in u and in v, is its upper end.
_UPPER = (False, True, False, True) + (False, False, True, True) + (False, True, False, True)


def _rectangle_geometry(rects: list[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """What _rectangle_parts reads of the integer rectangles (ua, ub, va, vb)
    that does not depend on z, every array fresh and read-only: along each
    edge, half its range in y, its nodes' cosh(y), r, r^2 and the powers p^n
    there; its end weights g_n and its half range times its integral's sign;
    and the corners' g_n p^n and h_n q^n and their r^2."""
    ua, ub, va, vb = np.asarray(rects, dtype=float).T
    k = len(rects)
    # The ends of the sums: the edges u = ua, u = ub, v = va, v = vb, then
    # the corners (ua, va), (ua, vb), (ub, va), (ub, vb), their u and their v.
    ends = np.concatenate((ua, ub, va, vb, ua, ua, ub, ub, va, vb, va, vb))
    edges = slice(0, 4 * k)
    sign = np.where(np.repeat(_UPPER, k) ^ (ends < 0), 1.0, -1.0)
    x0 = np.abs(ends)
    x, _ = _gauss_legendre(_LINE_NODES)
    # Each edge's range in the other coordinate: lower ends, then upper ends.
    ranges = np.concatenate((va, va, ua, ua, vb, vb, ub, ub)).reshape(2, 4 * k)
    y_lo, y_hi = np.arcsinh(ranges / x0[edges])
    half = (y_hi - y_lo) / 2.0
    ch = np.cosh(np.multiply.outer(half, x) + (y_lo + half)[:, None])
    r = x0[edges, None] * ch
    along = _powers(1.0 / (ch * ch))
    pq_corners = (x0[4 * k:] * x0[4 * k:]).reshape(2, 4 * k)
    corner_r2 = pq_corners[0] + pq_corners[1]
    pq_corners /= corner_r2
    p_corners, q_corners = _powers(pq_corners).transpose(1, 2, 0)
    g = _powers(1.0 / x0).T @ _EM_TABLE
    g *= sign[:, None]
    g[:, 0] += 0.5
    geometry = (half, ch, r, r * r, along, g[edges].copy(), sign[edges] * half,
                g[4 * k:8 * k] * p_corners, g[8 * k:] * q_corners, corner_r2)
    for array in geometry:
        array.flags.writeable = False
    return geometry


def _rectangle_parts(geometry: tuple[np.ndarray, ...], z: float) -> np.ndarray:
    """Parts that add up to sum_{u=ua..ub} sum_{v=va..vb} f(u, v) for each
    integer rectangle (ua, ub, va, vb) whose _rectangle_geometry is
    geometry, f = (u^2 + v^2)^(-z/2), by the product Euler-Maclaurin formula

        I_2 + T_u[J_u] + T_v[J_v] + T_u T_v f,

    where I_2 is f's integral over the rectangle, J_u(u) the integral of
    f(u, .) over [va, vb] (J_v likewise) and T_u the end terms of
    _harmonic's sum in u: 1/2 the value at each end and six Bernoulli
    terms.  Rows of the result: I_2's parts and T's parts on the edges
    u = ua, u = ub, v = va, v = vb, then T_u T_v f at the corners (ua, va),
    (ua, vb), (ub, va), (ub, vb); one column per rectangle.  No rectangle
    may hold the origin or put an edge on an axis, and f must not underflow
    to 0 at every site.

    By _EM_TABLE, an end x of a sum in x has the end terms
    sum_n g_n (s)_n p^n f, s = z/2, p = x^2/r^2, with g_0 = 1/2.  f is even
    in x, so an end at x < 0 is the mirror end at -x, where the odd orders
    change sign: a lower end becomes an upper one.  An edge u = x0 runs
    over v = |x0| sinh(y), r = |x0| cosh(y), with _LINE_NODES Gauss-Legendre
    nodes in y.  f's bivariate Taylor coefficients give
    d^a/du^a d^b/dv^b f = u^-a v^-b sum K[a, n1] K[b, n2] (s)_(n1+n2)
    p^n1 q^n2 f, q = v^2/r^2, so a corner's T_u T_v f is
    sum g_n1 h_n2 (s)_(n1+n2) p^n1 q^n2 f.  The nodes, p^n, q^n, g and h
    do not depend on z and come from geometry; only the Pochhammer
    symbols, f, the radial integrals below and the sums are taken here.

    f is homogeneous of degree -z, so div(x f) = (2 - z) f, and I_2 is the
    sum over the edges of +-(integral of (r^(2-z) - M^(2-z))/(2-z) dtheta),
    + where the outer normal points away from the origin.  The M^(2-z)
    terms cancel, since each ray that enters a rectangle leaves it.
    r^(2-z) is r^2 times f, as -z/2 is exact; within 1/8 of z = 2 the
    difference is M^(2-z) expm1((2-z) ln(r/M)), and ln(r/M) at z = 2.
    """
    half, ch, r, r2, along, g_edges, signed_half, gu, gv, corner_r2 = geometry
    s = z / 2.0
    poch = [1.0]  # (s)_N for N <= 22
    for i in range(22):
        poch.append(poch[-1] * (s + i))
    poch = np.array(poch)
    w = _gauss_legendre(_LINE_NODES)[1]

    f = r2 ** (-s)
    edge_terms = half * np.einsum("ln,ln->l", np.einsum("nli,li->ln", along, f * r * w),
                                  g_edges * poch[:12])
    m_pow = _EM_START * _EM_START * _EM_START ** -z  # M^(2-z)
    if z == 2.0:
        radial = np.log(r / _EM_START)
    elif abs(2.0 - z) < 0.125:
        radial = m_pow * np.expm1((2.0 - z) * np.log(r / _EM_START)) / (2.0 - z)
    else:
        radial = (r2 * f - m_pow) / (2.0 - z)
    edge_integrals = signed_half * ((radial / ch) @ w)

    corner_terms = corner_r2 ** (-s) * ((gu @ poch[_EM_HANKEL]) * gv).sum(axis=1)
    return np.concatenate((edge_integrals, edge_terms, corner_terms)).reshape(12, -1)


def _far_rectangles(side: int) -> tuple[list[tuple[int, int, int, int]], list[float]]:
    """The rectangles (ua, ub, va, vb) of offsets outside the box |u|, |v| < M
    of a side x side square, c = (side-1)//2 >= M = _EM_START, and how many
    copies of each the square holds: four strips |u| <= M-1, M <= v <= c,
    four blocks M <= u, v <= c and, on an even side, two edge lines
    |u| <= c, v = c+1 and the corner (c+1, c+1).  Every site in them lies at
    distance >= M from the centre."""
    c, m = (side - 1) // 2, _EM_START
    rects, copies = [(1 - m, m - 1, m, c), (m, c, m, c)], [4.0, 4.0]
    if side % 2 == 0:
        rects += [(-c, c, c + 1, c + 1), (c + 1, c + 1, c + 1, c + 1)]
        copies += [2.0, 1.0]
    return rects, copies


# The sides whose far rectangles' geometry is kept: ~68 KB each on an even
# side and ~35 KB on an odd one, so the cache holds at most ~0.8 MB.
_GEOMETRY_SIDES = 12


@functools.lru_cache(maxsize=_GEOMETRY_SIDES)
def _far_geometry(side: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The _rectangle_geometry of a square's _far_rectangles and how many
    copies of each it holds, read-only, built once per side and kept for the
    last _GEOMETRY_SIDES sides: a sweep over z at one side builds it once."""
    rects, copies = _far_rectangles(side)
    copies = np.array(copies)
    copies.flags.writeable = False
    return _rectangle_geometry(rects), copies


def _box_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The box of every square, built once at import and read-only: the
    folded offsets u <= v <= M of the centre site, by v and then u, without
    the centre (0, 0).  Returns each pair's exact r^2 and weight, and where
    each row v >= 1 starts, at v (v+1)/2 - 1.  A pair's weight is the
    number of sites it stands for while both offsets lie inside the square:
    w_u w_v for itself and its mirror (v, u), with w = 2 for u >= 1 (the
    offsets +-u) and w_0 = 1, so 4 on the axis and the diagonal and 8
    elsewhere, each exact.  It is built from Python integers: numpy's
    integer kernels, which nothing else here runs, would page ~0.4 MB of
    numpy's code into every process that imports this module."""
    m = _EM_START
    count = m * (m + 3) // 2
    r2 = np.fromiter((u * u + v * v for v in range(1, m + 1) for u in range(v + 1)), float, count)
    weights = np.fromiter((w for v in range(1, m + 1) for w in (4.0, *[8.0] * (v - 1), 4.0)),
                          float, count)
    rows = np.fromiter((v * (v + 1) // 2 - 1 for v in range(1, m + 1)), np.intp, m)
    r2.flags.writeable = weights.flags.writeable = rows.flags.writeable = False
    return r2, weights, rows


_BOX_R2, _BOX_WEIGHTS, _BOX_ROWS = _box_table()


def _centre_row_sum(side: int, z: float) -> float:
    """Row sum of the centre site c = (side-1)//2 of a side x side square.

    Folding the offsets [-c, side-1-c] on each axis gives u, v in [0, n),
    n = side - c, with weight w = 2 for 1 <= u <= c and 1 otherwise, and
    f(u, v) = f(v, u) leaves the triangle u <= v.  Below c = M = _EM_START
    that is the rows v < n of the box (see _box_table), whose weights are
    exact powers of two; an even side's far edge v = n - 1 has w_v = 1,
    which halves that row, and its corner (n-1, n-1) once more.  From c = M
    on, the rows v < M stand for the offsets |u|, |v| < M, and
    _rectangle_parts sums the _far_rectangles around them, whose geometry
    _far_geometry keeps per side.  Each row is summed by np.add.reduceat,
    and the row sums with the rectangles' parts by one math.fsum.  The box
    leaves out the centre, so no power of 0 is taken.  At z = 0 every part
    counts its sites exactly, and where M^-z underflows every term past the
    box is 0.
    """
    c = (side - 1) // 2
    n = side - c if c < _EM_START else _EM_START
    pairs = n * (n + 1) // 2 - 1
    terms = _BOX_WEIGHTS[:pairs] * _BOX_R2[:pairs] ** (-z / 2.0)
    if n == c + 2:  # the far edge of an even side
        terms[-n:] *= 0.5
        terms[-1] *= 0.5
    rows = np.add.reduceat(terms, _BOX_ROWS[:n - 1]).tolist()
    if c < _EM_START:
        return math.fsum(rows)
    if z == 0.0:
        return math.fsum(rows) + float(side * side - (2 * _EM_START - 1) ** 2)
    if _EM_START ** -z == 0.0:
        return math.fsum(rows)
    geometry, copies = _far_geometry(side)
    parts = _rectangle_parts(geometry, z) * copies
    return math.fsum(rows + parts.ravel().tolist())


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

    Both row sums cost O(1): a chain's is 2 H_c(z) (see _harmonic), and a
    square's is the triangle u <= v of a box of at most 65^2 folded
    offsets, 2144 powers at most, and above side 128 that of the 64^2 box
    (2079 powers) plus two product Euler-Maclaurin rectangles, the strips
    and the blocks, and on an even side the edge lines (see _centre_row_sum,
    _far_rectangles and _rectangle_parts).  A square's rectangles' geometry
    does not depend on z and is kept for the last _GEOMETRY_SIDES sides, so
    a sweep over z at one side builds it once (see _far_geometry).

    The square's one bound: for every side from 2 to the cap and every
    z >= 0, the result lies within 1e-15 relative of the exactly rounded
    sum of the same powers (a tested bound: up to 2.2e-16 seen on sides
    2-128 and 3.8e-16 above).  It adds the box's row sums and the
    rectangles' parts in one math.fsum, so what is left is each row's
    rounding, the rectangles' floating-point arithmetic and the remainder
    below.

    The square's remainder.  Write a sum over [a, b] as S = I + T + E, with
    I the integral, T the end terms and E the rest, |E g| <= kappa
    integral |g^(12)|, kappa = 2 zeta(12)/(2 pi)^12.  On a rectangle the
    formula misses S_u S_v - (I_u + T_u)(I_v + T_v) = E_u S_v + S_u E_v -
    E_u E_v.  Writing f = (w wbar)^(-z/2), w = u + iv, and d/du, d/dv in
    d/dw, d/dwbar gives |d^a/du^a d^b/dv^b f| <= (z)_(a+b) r^(-z-a-b), which
    for b = 0 is the Gegenbauer bound |C_m^(s)| <= (2s)_m/m!.  Every site
    outside the box has r >= M = 64.  Summed over the lines of the strips
    and blocks, the edge lines (r >= M+1) and the area r >= M, with
    p = z + 12 and beta_p = integral (1+t^2)^(-p/2) dt:

        |R| <= kappa (z)_12 [4 beta_p (M-1)^(2-p)/(p-2)
                              + 4 (2M-1) M^(1-p)/(p-1) + 2 beta_p (M+1)^(1-p)]
               + kappa^2 (z)_24 2 pi M^(-z-22)/(z+22),

    at most 4.7e-21 for every z >= 0 (the maximum lies near z = 0.54), and
    the sum is at least 4.  Each edge integrand is analytic but at
    cosh(y) = 0, y = +-i pi/2; mapped onto the 32-point rule's [-1, 1],
    that point lies on a Bernstein ellipse of parameter rho >= 3.076 for
    every edge up to the side cap (the least on the blocks' near edge
    u = M at c = 4999), so the rule errs by O(rho^-64) ~ 6e-32.
    """
    if spec.aspect == "chain" and spec.N0 > MAX_CHAIN_SITES:
        raise ValueError(f"chain N0 capped at {MAX_CHAIN_SITES}")
    if spec.aspect == "square" and spec.side > MAX_SQUARE_SIDE:
        raise ValueError(f"square side capped at {MAX_SQUARE_SIDE}")
    if spec.aspect == "chain":
        return _chain_row_sum(spec.side, spec.z)
    return _centre_row_sum(spec.side, spec.z)


# _gauss_legendre's keys: _LINE_NODES, and _c_z_integral's 32 and 16.
@functools.lru_cache(maxsize=2)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once a process
    and shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# _c_z_integral's nodes on [-1, 1] map to theta = _C_Z_HALF * (x + 1).
_C_Z_HALF = math.pi / 8.0


def _c_z_integral(z: float) -> float:
    """C_z = integral_0^{pi/4} cos(theta)^(z-2) dtheta, by 32-point
    Gauss-Legendre quadrature.

    On [-1, 1] the integrand's nearest singularity (theta = pi/2, where cos
    vanishes) lies at 3, so it is analytic inside the Bernstein ellipse
    rho = 3 + 2 sqrt(2) and the n-point rule errs by O(rho^(-2n)):
    rho^(-64) ~ 1e-49 here.  The gap to the 16-point rule (O(rho^-32) ~ 3e-25)
    checks that at run time; both rules take one power of their joined
    nodes' cosines.
    """
    (x, w), (x_check, w_check) = _gauss_legendre(32), _gauss_legendre(16)
    f = np.cos(_C_Z_HALF * (np.concatenate((x, x_check)) + 1.0)) ** (z - 2.0)
    value = _C_Z_HALF * float(w @ f[:32])
    err = abs(value - _C_Z_HALF * float(w_check @ f[32:]))
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
) -> float:
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
    return log10_logical_error(math.log10(amplified_fault_pairs(scheme.B)), log10_eta_k, k)


def crosstalk_usefulness_threshold(B: float, D: float, beta: float) -> float:
    """Largest t0*Delta0 for which error correction reduces crosstalk:
    the one-level condition with B -> b', [B_AMPLIFICATION B^2 D^(2 beta)]^(-1)."""
    return one_level_condition(amplified_fault_pairs(B), D, beta)

