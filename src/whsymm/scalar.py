"""Scalar Wiener-Hopf factorization on the unit circle.

Two engines.  The exact engine factors a rational symbol by sorting its
zeros and poles relative to the circle:

    s(t) = s_minus(t) * t**rho * s_plus(t)

with s_minus zero- and pole-free on {|t| >= 1} and normalized to 1 at
infinity, and s_plus zero- and pole-free on {|t| <= 1}.  The grid engine
works from samples alone: it reads rho off a cyclic phase sum, then
splits the logarithm of the deflated symbol by Fourier frequency sign.
The two engines agree wherever both apply, which is what makes either
one an independent oracle for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleOnCircleError, UndersampledError
from .symbols import (
    CircleGrid,
    LaurentPoly,
    RationalSymbol,
    eval_on_grid,
    inside_excess,
    outside_excess,
    phase_winding,
    split_by_circle,
    winding_index,
)
from .verify import RECON_TOL, Check, VerificationReport, _guarded, reconstruction_check


@dataclass(frozen=True)
class ScalarFactorization:
    minus: RationalSymbol
    index: int
    plus: RationalSymbol


def factor_rational(s: RationalSymbol) -> ScalarFactorization:
    """Exact factorization of a rational symbol invertible on the circle.

    Zeros and poles inside the open disk go to the minus factor together
    with the power of t that pins minus(inf) = 1; everything outside,
    and the overall scale, goes to the plus factor.
    """
    if s.is_zero:
        raise NotInvertibleOnCircleError("cannot factor the zero symbol")
    rho = winding_index(s)
    zeros_in, zeros_out = split_by_circle(s.num)
    poles_in, poles_out = split_by_circle(s.den)

    minus_num = LaurentPoly.from_roots(zeros_in).shift(len(poles_in) - len(zeros_in))
    minus = RationalSymbol(minus_num, LaurentPoly.from_roots(poles_in))
    lead = s.num.coeffs[-1]  # den is monic by canonical form
    plus = RationalSymbol(
        LaurentPoly.from_roots(zeros_out, lead), LaurentPoly.from_roots(poles_out)
    )
    return ScalarFactorization(minus, rho, plus)


def factor_grid(samples) -> tuple[np.ndarray, int, np.ndarray]:
    """Grid factorization from samples on the N-th roots of unity.

    N must be a power of two >= 64.  Returns (minus samples, rho, plus
    samples) on the same grid.  The winding index is phase_winding's
    certified count on this one grid, and samples that do not certify it
    raise UndersampledError; the factors come from splitting the FFT of
    log(s * t**-rho) into negative and nonnegative frequencies.
    """
    v = np.asarray(samples, dtype=complex)
    if v.ndim != 1 or v.size < 64 or (v.size & (v.size - 1)) != 0:
        raise ValueError(f"need samples on a power-of-two grid of size >= 64, got {v.size}")
    if np.any(v == 0):
        raise NotInvertibleOnCircleError("zero sample in grid factorization input")
    n = v.size
    rho, turns = phase_winding(np.roll(v, -1) / v)
    if rho is None:
        raise UndersampledError(
            f"samples do not certify a winding at N={n} ({turns:.4f} turns); "
            "refine the grid"
        )

    pts = CircleGrid(n).points
    mu = v * pts ** (-rho)
    dphi = np.angle(mu[1:] / mu[:-1])
    theta = np.angle(mu[0]) + np.concatenate([[0.0], np.cumsum(dphi)])
    log_mu = np.log(np.abs(mu)) + 1j * theta

    spec = np.fft.fft(log_mu)
    neg = np.zeros(n, dtype=complex)
    neg[n // 2 + 1 :] = spec[n // 2 + 1 :]  # frequencies -n/2+1 .. -1
    minus = np.exp(np.fft.ifft(neg))
    plus = np.exp(np.fft.ifft(spec - neg))
    return minus, rho, plus


def verify_scalar(
    s: RationalSymbol,
    fac: ScalarFactorization,
    recon_tol: float = RECON_TOL,
    grid_n: int = 512,
) -> VerificationReport:
    """Certify a scalar factorization against its target symbol."""
    checks: list[Check] = []
    grid = CircleGrid(grid_n)
    target = eval_on_grid(s, grid)
    recon = (
        eval_on_grid(fac.minus, grid)
        * grid.points**fac.index
        * eval_on_grid(fac.plus, grid)
    )
    checks.append(reconstruction_check([(recon, target)], recon_tol))

    minus, plus = fac.minus, fac.plus
    v = float("inf")
    if not minus.is_zero:
        v = max(outside_excess(minus.num), outside_excess(minus.den))
        balance = minus.num.max_deg - minus.den.max_deg
        if balance != 0:
            v = max(v, float(abs(balance)))
    checks.append(Check("minus_analytic_outside", v, 0.0))

    v = float("inf")
    if not minus.is_zero and minus.num.max_deg == minus.den.max_deg:
        v = float(abs(minus.num.coeffs[-1] / minus.den.coeffs[-1] - 1.0))
    checks.append(Check("minus_normalized_at_infinity", v, 1e-12))

    v = float("inf")
    if not plus.is_zero:
        v = max(inside_excess(plus.num), inside_excess(plus.den))
        if plus.num.min_deg != 0:
            v = max(v, float(abs(plus.num.min_deg)))
    checks.append(Check("plus_analytic_inside", v, 0.0))

    checks.append(_guarded("index", lambda: (float(abs(fac.index - winding_index(s))), "")))

    return VerificationReport(tuple(checks), subject="scalar factorization")
