"""Laurent polynomials and rational symbols on the unit circle.

A symbol is a rational function of the circle variable t, stored as a
quotient of finite Laurent polynomials.  The denominator is kept in a
canonical form (ordinary polynomial, nonzero constant term, monic in the
leading coefficient), so zeros and poles at t = 0 live entirely in the
numerator's minimal degree.  Root localization relative to the unit
circle is what drives every index computation downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeCapError,
    NotInvertibleOnCircleError,
    PoleOnGridError,
    SymbolDivisionError,
    UndersampledError,
)

# Degree cap for companion-matrix root finding.
ROOT_DEGREE_CAP = 64
# Zeros or poles closer than this to |t| = 1 make winding indices untrusted.
CIRCLE_TOL = 1e-8
# A numeric phase sum must land within this distance of an integer.
PHASE_GUARD = 0.1
# A sampled winding counts only while each sample's neighbours are within
# MAG_GUARD of its value, which also keeps every phase step between them
# within arcsin(MAG_GUARD) = pi/6; grids are refined up to WINDING_CAP points.
MAG_GUARD = 0.5
WINDING_CAP = 2**17
# Default clustering radius when grouping nearby roots into one multiple root.
ROOT_CLUSTER_TOL = 1e-8


class LaurentPoly:
    """Finite Laurent series sum_k c_k t^k.

    ``coeffs[j]`` is the coefficient of ``t**(min_deg + j)``.  Exactly-zero
    coefficients at both ends are trimmed on construction, so ``min_deg``
    and ``max_deg`` are sharp.  The zero polynomial is stored with empty
    coefficients and ``min_deg == 0``.  Coefficients are never written
    after construction, so the root set is computed once (circle_roots).
    """

    __slots__ = ("min_deg", "coeffs", "_roots")

    def __init__(self, min_deg: int, coeffs) -> None:
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError(f"coefficients must be one-dimensional, got shape {c.shape}")
        nz = np.flatnonzero(c)
        if nz.size == 0:
            self.min_deg = 0
            self.coeffs = np.zeros(0, dtype=complex)
        else:
            self.min_deg = int(min_deg) + int(nz[0])
            self.coeffs = c[nz[0] : nz[-1] + 1].copy()
        self._roots = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, [])

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly(0, [c])

    @staticmethod
    def monomial(k: int, c=1.0) -> "LaurentPoly":
        return LaurentPoly(k, [c])

    @staticmethod
    def from_roots(roots, lead=1.0) -> "LaurentPoly":
        """Monic-times-``lead`` polynomial with the given roots (with
        multiplicity, in the order given)."""
        c = np.array([complex(lead)])
        for r in roots:
            c = np.convolve(c, np.array([-complex(r), 1.0]))
        return LaurentPoly(0, c)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def max_deg(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return self.min_deg + self.coeffs.size - 1

    def coeff(self, k: int) -> complex:
        """Coefficient of t**k."""
        j = k - self.min_deg
        if 0 <= j < self.coeffs.size:
            return complex(self.coeffs[j])
        return 0.0 + 0.0j

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.min_deg + k, self.coeffs)

    def scale(self, c) -> "LaurentPoly":
        if self.is_zero or c == 0:
            return LaurentPoly.zero()
        return LaurentPoly(self.min_deg, self.coeffs * complex(c))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        c = np.zeros(hi - lo + 1, dtype=complex)
        c[self.min_deg - lo : self.min_deg - lo + self.coeffs.size] += self.coeffs
        c[other.min_deg - lo : other.min_deg - lo + other.coeffs.size] += other.coeffs
        return LaurentPoly(lo, c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_deg, -self.coeffs)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero()
        return LaurentPoly(self.min_deg + other.min_deg, np.convolve(self.coeffs, other.coeffs))

    def __call__(self, points):
        pts = np.asarray(points, dtype=complex)
        if self.is_zero:
            return np.zeros_like(pts)
        vals = np.polyval(self.coeffs[::-1], pts)
        if self.min_deg != 0:
            vals = vals * pts**self.min_deg
        return vals

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_deg == other.min_deg and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which == already treats as equal
        return hash((self.min_deg, (self.coeffs + 0.0).tobytes()))

    def allclose(self, other: "LaurentPoly", tol: float = 1e-12) -> bool:
        d = self - other
        return d.is_zero or np.max(np.abs(d.coeffs)) <= tol

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        terms = ", ".join(f"t^{self.min_deg + j}:{c:.6g}" for j, c in enumerate(self.coeffs))
        return f"LaurentPoly({terms})"


_ONE = LaurentPoly.const(1.0)


class RationalSymbol:
    """Quotient of Laurent polynomials in canonical form.

    The denominator is an ordinary polynomial with nonzero constant term
    and leading coefficient exactly 1; any power of t and any overall
    scale is folded into the numerator.  The zero symbol is 0/1.

    A symbol made by ``scale`` remembers its source: ``_base`` is
    (source, factor) with the symbol equal to factor * source, so a grid
    evaluation can evaluate the source once for all its scaled copies.
    It is None for every other symbol.
    """

    __slots__ = ("num", "den", "_base")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None) -> None:
        if den is None:
            den = _ONE
        if den.is_zero:
            raise SymbolDivisionError("denominator is identically zero")
        self._base = None
        if num.is_zero:
            self.num = LaurentPoly.zero()
            self.den = _ONE
            return
        if den.min_deg != 0:
            num = num.shift(-den.min_deg)
            den = LaurentPoly(0, den.coeffs)
        lead = den.coeffs[-1]
        if lead != 1.0:
            num = num.scale(1.0 / lead)
            scaled = den.coeffs / lead
            scaled[-1] = 1.0  # complex division may round the pivot itself
            den = LaurentPoly(0, scaled)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "RationalSymbol":
        return RationalSymbol(LaurentPoly.zero())

    @staticmethod
    def const(c) -> "RationalSymbol":
        return RationalSymbol(LaurentPoly.const(c))

    @staticmethod
    def monomial(k: int, c=1.0) -> "RationalSymbol":
        return RationalSymbol(LaurentPoly.monomial(k, c))

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalSymbol":
        return RationalSymbol(p)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_const_den(self) -> bool:
        """True when the denominator is exactly 1."""
        return self.den.coeffs.size == 1

    def _same_den(self, other: "RationalSymbol") -> bool:
        return self.den is other.den or (
            self.den.coeffs.size == other.den.coeffs.size
            and np.array_equal(self.den.coeffs, other.den.coeffs)
        )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RationalSymbol") -> "RationalSymbol":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._same_den(other):
            return RationalSymbol(self.num + other.num, self.den)
        return RationalSymbol(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalSymbol":
        return RationalSymbol(-self.num, self.den)

    def __sub__(self, other: "RationalSymbol") -> "RationalSymbol":
        return self + (-other)

    def __mul__(self, other: "RationalSymbol") -> "RationalSymbol":
        if self.is_zero or other.is_zero:
            return RationalSymbol.zero()
        return RationalSymbol(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalSymbol") -> "RationalSymbol":
        if other.is_zero:
            raise SymbolDivisionError("division by the zero symbol")
        if self.is_zero:
            return RationalSymbol.zero()
        return RationalSymbol(self.num * other.den, self.den * other.num)

    def scale(self, c) -> "RationalSymbol":
        if c == 0 or self.is_zero:
            return RationalSymbol.zero()
        out = RationalSymbol(self.num.scale(c), self.den)
        if not out.is_zero:
            # a scaled copy of a scaled copy folds into one factor
            source, factor = self._base or (self, 1.0)
            out._base = (source, factor * complex(c))
        return out

    def shift(self, k: int) -> "RationalSymbol":
        """Multiply by t**k."""
        return RationalSymbol(self.num.shift(k), self.den)

    def __call__(self, points):
        pts = np.asarray(points, dtype=complex)
        if self.is_zero:
            return np.zeros_like(pts)
        return self.num(pts) / self.den(pts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSymbol):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def allclose(self, other: "RationalSymbol", tol: float = 1e-12) -> bool:
        if self._same_den(other):
            return self.num.allclose(other.num, tol)
        return (self.num * other.den).allclose(other.num * self.den, tol)

    def __repr__(self) -> str:
        if self.is_const_den:
            return f"RationalSymbol({self.num!r})"
        return f"RationalSymbol({self.num!r} / {self.den!r})"


def rational_arith(op: str, x: RationalSymbol, y: RationalSymbol) -> RationalSymbol:
    """Exact field arithmetic on symbols; ``op`` is add|sub|mul|div."""
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError(f"unknown operation {op!r}")


# CircleGrid points per size, computed once and read-only, so every grid
# of one size shares them
_GRID_POINTS: dict[int, np.ndarray] = {}


class CircleGrid:
    """The N-th roots of unity, N a power of two >= 8."""

    __slots__ = ("n", "points")

    def __init__(self, n: int) -> None:
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {n}")
        self.n = n
        pts = _GRID_POINTS.get(n)
        if pts is None:
            pts = np.exp(2j * np.pi * np.arange(n) / n)
            pts.flags.writeable = False
            _GRID_POINTS[n] = pts
        self.points = pts

    def __repr__(self) -> str:
        return f"CircleGrid({self.n})"


def eval_on_grid(s: RationalSymbol, grid) -> np.ndarray:
    """Evaluate a symbol at every grid point.

    ``grid`` is a CircleGrid or a plain array of points.  Raises
    PoleOnGridError when a denominator value is numerically zero.
    """
    pts = grid.points if isinstance(grid, CircleGrid) else np.asarray(grid, dtype=complex)
    if s.is_zero:
        return np.zeros(pts.shape, dtype=complex)
    den_vals = s.den(pts)
    scale = max(1.0, float(np.max(np.abs(s.den.coeffs))))
    bad = np.abs(den_vals) < 1e-13 * scale
    if np.any(bad):
        j = int(np.argmax(bad))
        raise PoleOnGridError(f"denominator vanishes at grid point {pts[j]:.6g}")
    return s.num(pts) / den_vals


def poly_roots(p: LaurentPoly, cluster_tol: float = ROOT_CLUSTER_TOL):
    """Roots of the polynomial part of p, with multiplicity.

    The factor t**min_deg is ignored; callers account for it separately.
    Nearby roots (within ``cluster_tol``, single linkage) are merged into
    one root at their centroid with the cluster size as multiplicity.
    Returns a list of (root, multiplicity) sorted by (real, imag).
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined root set")
    deg = p.coeffs.size - 1
    if deg > ROOT_DEGREE_CAP:
        raise DegreeCapError(f"degree {deg} exceeds root-finding cap {ROOT_DEGREE_CAP}")
    if deg == 0:
        return []
    c = p.coeffs / np.max(np.abs(p.coeffs))
    roots = np.roots(c[::-1])

    # single-linkage clustering via union-find
    m = roots.size
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if abs(roots[i] - roots[j]) <= cluster_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    out = [(complex(np.mean(roots[idx])), len(idx)) for idx in groups.values()]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def circle_roots(p: LaurentPoly) -> list[tuple[complex, int]]:
    """``poly_roots(p)``, computed once per polynomial object."""
    if p._roots is None:
        p._roots = poly_roots(p)
    return p._roots


def split_by_circle(p: LaurentPoly) -> tuple[list[complex], list[complex]]:
    """Roots of p inside and outside the unit circle, each repeated by
    its multiplicity, in ``poly_roots`` order.

    This is the one place a root is classified against the circle.  A
    root within CIRCLE_TOL of it makes every index untrusted and raises.
    """
    inside: list[complex] = []
    outside: list[complex] = []
    for root, mult in circle_roots(p):
        if abs(abs(root) - 1.0) < CIRCLE_TOL:
            raise NotInvertibleOnCircleError(
                f"root {root:.8g} lies within {CIRCLE_TOL:g} of the unit circle"
            )
        (inside if abs(root) < 1.0 else outside).extend([root] * mult)
    return inside, outside


def outside_excess(p: LaurentPoly) -> float:
    """How far the roots of p reach into {|t| >= 1 - CIRCLE_TOL}: 0 when
    every root lies strictly inside that margin."""
    v = 0.0
    for root, _ in circle_roots(p):
        if abs(root) >= 1.0 - CIRCLE_TOL:
            v = max(v, abs(root) - 1.0 + CIRCLE_TOL)
    return v


def inside_excess(p: LaurentPoly) -> float:
    """How far the roots of p reach into {|t| <= 1 + CIRCLE_TOL}: 0 when
    every root lies strictly outside that margin."""
    v = 0.0
    for root, _ in circle_roots(p):
        if abs(root) <= 1.0 + CIRCLE_TOL:
            v = max(v, 1.0 + CIRCLE_TOL - abs(root))
    return v


def phase_winding(q: np.ndarray) -> tuple[int | None, float]:
    """Certified winding of a closed loop of samples v_k around the
    circle, from its cyclic neighbour ratios q_k = v_{k+1} / v_k.

    A phase sum alone is not trustworthy: an even cluster of zeros just
    off the circle wraps a full turn inside one grid step while every
    measured step stays small.  It cannot hide its magnitude dip, so the
    sum counts only when every |q_k - 1| and |1/q_k - 1| is at most
    MAG_GUARD (a pointwise Lipschitz test that fails whenever a zero lies
    within a couple of grid steps of the circle, and that keeps every
    step |arg q_k| within pi/6) and the sum is within PHASE_GUARD of an
    integer.

    Returns (winding, turns): the phase sum in turns, and its nearest
    integer when every test passes, None otherwise (also for a zero or
    non-finite sample).
    """
    # |1/q - 1| = |q - 1| / |q|, so both bounds are one comparison
    gap = np.abs(q - 1)
    calm = bool(np.all(gap <= MAG_GUARD * np.minimum(1.0, np.abs(q))))
    turns = float(np.sum(np.angle(q)) / (2.0 * np.pi))
    if calm and abs(turns - round(turns)) <= PHASE_GUARD:
        return round(turns), turns
    return None, turns


def certified_winding(ratios, n: int) -> tuple[int | None, float, int]:
    """phase_winding of ``ratios(n)``, the neighbour ratios of samples on
    CircleGrid(n), doubling n until it certifies or n reaches WINDING_CAP
    (an m-fold zero at distance d from the circle needs N > 2 pi m / d or
    so).  Returns (winding, turns, n) of the last grid tried."""
    while True:
        winding, turns = phase_winding(ratios(n))
        if winding is not None or n >= WINDING_CAP:
            return winding, turns, n
        n *= 2


def winding_index(s: RationalSymbol) -> int:
    """Winding number of s around 0 as t runs over the unit circle.

    Computed exactly from root locations (zeros inside minus poles
    inside, plus the net power of t) and returned only when the
    certified_winding from N = 256 equals it; otherwise, as when the
    root finder scatters a multiple root near the circle across it,
    UndersampledError.  Symbols with a zero or pole within CIRCLE_TOL
    of the circle are rejected.
    """
    if s.is_zero:
        raise NotInvertibleOnCircleError("the zero symbol has no winding index")
    zeros_in, _ = split_by_circle(s.num)
    poles_in, _ = split_by_circle(s.den)
    idx = s.num.min_deg - s.den.min_deg + len(zeros_in) - len(poles_in)

    def ratios(n: int) -> np.ndarray:
        vals = eval_on_grid(s, CircleGrid(n))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.roll(vals, -1) / vals

    winding, turns, n = certified_winding(ratios, 256)
    if winding != idx:
        uncertified = "" if winding is not None else " uncertified"
        raise UndersampledError(
            f"argument-principle check disagrees with root count "
            f"({turns:.3f}{uncertified} turns vs {idx}) at N={n}"
        )
    return idx


# ----------------------------------------------------------------------
# Laurent-series splitting of a rational symbol.
#
# Every symbol analytic in an annulus around |t| = 1 splits uniquely into
# a part with frequencies <= k and a part with frequencies >= k+1.  Both
# parts are again rational: the negative-frequency content is carried by
# the poles inside the open disk (including t = 0), the rest by a
# polynomial plus the poles outside.  separate_poles computes that
# two-term partial-fraction split; the projections build on it.
# ----------------------------------------------------------------------


def _series_inverse(c: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients of 1 / sum c_k t^k, c[0] != 0."""
    w = np.zeros(count, dtype=complex)
    w[0] = 1.0 / c[0]
    for m in range(1, count):
        acc = 0.0 + 0.0j
        top = min(m, c.size - 1)
        for k in range(1, top + 1):
            acc += c[k] * w[m - k]
        w[m] = -acc / c[0]
    return w


def taylor_coeffs(s: RationalSymbol, count: int) -> np.ndarray:
    """Taylor coefficients at t = 0 of a symbol analytic there."""
    if count <= 0:
        return np.zeros(0, dtype=complex)
    if s.is_zero:
        return np.zeros(count, dtype=complex)
    if s.num.min_deg < 0:
        raise ValueError("symbol has a pole at t = 0")
    num = np.zeros(count, dtype=complex)
    lo = s.num.min_deg
    take = min(count - lo, s.num.coeffs.size)
    if take > 0:
        num[lo : lo + take] = s.num.coeffs[:take]
    inv = _series_inverse(s.den.coeffs, count)
    return np.convolve(num, inv)[:count]


def coeffs_at_infinity(s: RationalSymbol, count: int) -> np.ndarray:
    """Coefficients of t^-1, t^-2, ..., t^-count for a symbol that is
    analytic at infinity and vanishes there (frequencies <= -1)."""
    if count <= 0:
        return np.zeros(0, dtype=complex)
    if s.is_zero:
        return np.zeros(count, dtype=complex)
    # substitute u = 1/t and read a Taylor series in u
    p = s.num.coeffs[::-1]
    q = s.den.coeffs[::-1]
    offset = (s.den.coeffs.size - 1) - (s.num.min_deg + s.num.coeffs.size - 1)
    if offset < 1:
        raise ValueError("symbol does not vanish at infinity")
    padded = np.zeros(count, dtype=complex)
    start = offset - 1
    if start < count:
        take = min(count - start, p.size)
        padded[start : start + take] = p[:take]
    inv = _series_inverse(q, count)
    return np.convolve(padded, inv)[:count]


def separate_poles(s: RationalSymbol):
    """Split s into (minus, plus) with s = minus + plus, where minus has
    frequencies <= -1 (all poles inside the open disk, vanishing at
    infinity) and plus has frequencies >= 0 (analytic in the closed disk).

    Denominator roots within CIRCLE_TOL of the circle are rejected.
    """
    if s.is_zero:
        return RationalSymbol.zero(), RationalSymbol.zero()
    mu = s.num.min_deg
    if s.is_const_den:
        # pure Laurent polynomial: split coefficients by frequency sign
        c = s.num.coeffs / s.den.coeffs[0]
        neg = LaurentPoly(mu, c[: max(0, -mu)]) if mu < 0 else LaurentPoly.zero()
        pos = (
            LaurentPoly(max(mu, 0), c[max(0, -mu) :])
            if c.size > max(0, -mu)
            else LaurentPoly.zero()
        )
        return RationalSymbol(neg), RationalSymbol(pos)

    inside, outside = split_by_circle(s.den)

    # fold the power of t into whichever side it belongs to: a zero at 0
    # pads the numerator, a pole at 0 pads the inner denominator factor
    n_poly = s.num.coeffs
    if mu > 0:
        n_poly = np.concatenate([np.zeros(mu, dtype=complex), n_poly])
    din_c = LaurentPoly.from_roots(inside).coeffs
    if mu < 0:
        din_c = np.concatenate([np.zeros(-mu, dtype=complex), din_c])
    dout_c = LaurentPoly.from_roots(outside).coeffs
    b1 = din_c.size - 1
    b2 = dout_c.size - 1
    if b1 == 0:
        return RationalSymbol.zero(), s

    # match coefficients in  n = q*(din*dout) + r_in*dout + r_out*din
    deg_n = n_poly.size - 1
    dq = deg_n - (b1 + b2)
    neq = max(deg_n, b1 + b2 - 1) + 1
    nunk = (dq + 1 if dq >= 0 else 0) + b1 + b2
    A = np.zeros((neq, nunk), dtype=complex)
    full = np.convolve(din_c, dout_c)
    col = 0
    if dq >= 0:
        for j in range(dq + 1):
            A[j : j + full.size, col] = full
            col += 1
    for j in range(b1):
        A[j : j + dout_c.size, col] = dout_c
        col += 1
    for j in range(b2):
        A[j : j + din_c.size, col] = din_c
        col += 1
    rhs = np.zeros(neq, dtype=complex)
    rhs[: n_poly.size] = n_poly
    sol = np.linalg.solve(A, rhs)
    pos = dq + 1 if dq >= 0 else 0
    q = sol[:pos]
    r_in = sol[pos : pos + b1]
    r_out = sol[pos + b1 :]

    minus = RationalSymbol(LaurentPoly(0, r_in), LaurentPoly(0, din_c))
    plus = RationalSymbol(LaurentPoly(0, q)) if pos else RationalSymbol.zero()
    if b2:
        plus = plus + RationalSymbol(LaurentPoly(0, r_out), LaurentPoly(0, dout_c))
    return minus, plus


def annulus_coeffs(
    s: RationalSymbol, lo: int, hi: int, split: tuple[RationalSymbol, RationalSymbol] | None = None
) -> np.ndarray:
    """Laurent coefficients of s on the unit circle for frequencies
    lo..hi inclusive.  ``split`` is ``separate_poles(s)`` when the caller
    already has it."""
    if hi < lo:
        return np.zeros(0, dtype=complex)
    minus, plus = split or separate_poles(s)
    out = np.zeros(hi - lo + 1, dtype=complex)
    if hi >= 0:
        tc = taylor_coeffs(plus, hi + 1)
        for m in range(max(lo, 0), hi + 1):
            out[m - lo] = tc[m]
    if lo <= -1:
        ac = coeffs_at_infinity(minus, -lo)
        for m in range(lo, min(hi, -1) + 1):
            out[m - lo] = ac[-m - 1]
    return out


def _chop_support(
    s: RationalSymbol, lo: int | None, hi: int | None, ref: float
) -> RationalSymbol:
    """Erase numerator coefficients that a known frequency-support bound
    proves are exact zeros (they survive cancellation only as roundoff).

    With the canonical den (den(0) != 0), frequency content >= lo forces
    num orders >= lo, and content <= hi forces num degree <= den degree
    + hi.  ``ref`` is the magnitude of the source symbol; residue above
    1e-6 of it indicates a support bound that does not actually hold.
    """
    if s.is_zero:
        return s
    c = s.num.coeffs
    base = s.num.min_deg
    lo_cut = 0 if lo is None else max(0, lo - base)
    hi_cut = c.size if hi is None else min(c.size, s.den.max_deg + hi - base + 1)
    if lo_cut == 0 and hi_cut == c.size:
        return s
    kept = c[lo_cut:hi_cut] if lo_cut < hi_cut else np.zeros(0, dtype=complex)
    junk = np.concatenate([c[:lo_cut], c[hi_cut:]])
    guard = 1e-6 * max(ref, float(np.max(np.abs(kept))) if kept.size else 0.0)
    if junk.size and float(np.max(np.abs(junk))) > guard:
        raise NotInvertibleOnCircleError(
            "frequency-support bound violated while splitting a symbol"
        )
    if not kept.size or not np.any(kept):
        return RationalSymbol.zero()
    return RationalSymbol(LaurentPoly(base + lo_cut, kept), s.den)


def project_low(
    s: RationalSymbol, k: int, split: tuple[RationalSymbol, RationalSymbol] | None = None
) -> RationalSymbol:
    """The part of s with frequencies <= k, as a rational symbol;
    ``split`` as in annulus_coeffs."""
    if s.is_zero:
        return s
    ref = float(np.max(np.abs(s.num.coeffs)))
    minus, plus = split or separate_poles(s)
    if k >= 0:
        tc = taylor_coeffs(plus, k + 1)
        return minus + RationalSymbol(LaurentPoly(0, tc))
    drop = annulus_coeffs(minus, k + 1, -1)
    out = minus - RationalSymbol(LaurentPoly(k + 1, drop))
    return _chop_support(out, None, k, ref)


def project_high(
    s: RationalSymbol, k: int, split: tuple[RationalSymbol, RationalSymbol] | None = None
) -> RationalSymbol:
    """The part of s with frequencies >= k; ``split`` as in
    annulus_coeffs.

    Built from the partial-fraction split rather than as s minus the low
    part, so the result's denominator carries only the poles that truly
    belong to it (subtracting would leave cancelling root pairs behind).
    """
    if s.is_zero:
        return s
    ref = float(np.max(np.abs(s.num.coeffs)))
    minus, plus = split or separate_poles(s)
    if k >= 1:
        tc = taylor_coeffs(plus, k)
        out = plus - RationalSymbol(LaurentPoly(0, tc))
        return _chop_support(out, k, None, ref)
    top = annulus_coeffs(minus, k, -1)
    return plus + RationalSymbol(LaurentPoly(k, top))
