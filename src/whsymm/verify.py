"""Black-box certification of factorizations.

Nothing in this module trusts how a factorization was produced.  Checks
are scored as (residual, tolerance) pairs so a report can be rendered
uniformly; structural checks (root locations, degree balance, index
bookkeeping) use tolerance 0 with an integer-valued residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleOnCircleError, UndersampledError, WhsymmError
from .ratmat import GridEvaluator, RationalMatrix
from .symbols import (
    CIRCLE_TOL,
    PHASE_GUARD,
    CircleGrid,
    RationalSymbol,
    poly_roots,
)

# default tolerances, overridable per call
RECON_TOL = 1e-10
UNITARY_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    """One verification check: passes iff residual <= tolerance."""

    name: str
    residual: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def render(self) -> str:
        verdict = "pass" if self.passed else "fail"
        line = (
            f"check={self.name} residual={self.residual:.17g} "
            f"tolerance={self.tolerance:.17g} verdict={verdict}"
        )
        if self.detail:
            line += f" detail={self.detail}"
        return line


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]
    subject: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = []
        if self.subject:
            lines.append(f"subject={self.subject}")
        lines.extend(c.render() for c in self.checks)
        lines.append(f"overall={'pass' if self.passed else 'fail'}")
        return "\n".join(lines)

    def __bool__(self) -> bool:
        return self.passed


def unitarity_check(m: np.ndarray, tol: float = UNITARY_TOL, name: str = "unitarity") -> VerificationReport:
    """Residual of m m* = I."""
    m = np.asarray(m, dtype=complex)
    res = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
    return VerificationReport((Check(name, res, tol),))


# Grid bounds and cleanliness thresholds for the sampled winding.  A
# phase step above _STEP_GUARD radians, or a sample whose neighbor
# differs by more than _MAG_GUARD of its own magnitude, means the grid
# has not resolved the determinant there yet.
_WINDING_FLOOR = 1 << 14
_WINDING_CAP = 1 << 17
_STEP_GUARD = 1.0
_MAG_GUARD = 0.5
# Working memory for one chunk of determinant samples, every temporary
# of the evaluation counted (GridEvaluator.bytes_per_point).  At order 32
# a chunk is a few dozen points and stays in cache; a 5x5 matrix still
# gets over a thousand points per chunk, so per-chunk overhead is noise.
_CHUNK_BYTES = 1 << 20


def _det_winding(m: RationalMatrix, n0: int) -> tuple[int, float, float]:
    """Winding of det m(t) around 0 from a dense circle sampling.

    A phase sum alone is not trustworthy: an even cluster of
    determinant zeros just off the circle wraps a full turn inside one
    grid step while every measured step stays small.  Such a cluster
    cannot hide its magnitude dip, though, so cleanliness demands both
    tame phase steps and a pointwise Lipschitz certificate: each
    sample's neighbors must stay within _MAG_GUARD of its own modulus,
    which fails whenever a zero lies within a couple of grid steps of
    the circle.  The grid is refined until both hold (zeros at distance
    d need roughly h < d / multiplicity), so inputs whose determinant
    zeros hug the circle tighter than the cap resolves are declined
    rather than misjudged.

    Samples are taken as (det / |det|, log |det|) so that no modulus
    over- or underflows, and the grid is evaluated and factored in
    chunks of at most _CHUNK_BYTES working memory; only the (N,)
    samples are held whole, and every test below runs on all of them.

    Returns (winding, min log|det|, max log|det|) over the accepted grid.
    """
    ev = GridEvaluator(m)
    step = max(1, _CHUNK_BYTES // ev.bytes_per_point)
    n = max(n0, _WINDING_FLOOR)
    while True:
        pts = CircleGrid(n).points
        chunks = [np.linalg.slogdet(ev(pts[a : a + step])) for a in range(0, n, step)]
        sign = np.concatenate([c.sign for c in chunks])
        logabs = np.concatenate([c.logabsdet for c in chunks])
        top = float(np.max(logabs))
        bottom = float(np.min(logabs))
        if top == -np.inf or bottom - top <= np.log(1e-13):
            raise NotInvertibleOnCircleError("det nearly vanishes on the circle")
        # det at each sample's neighbors relative to det at the sample
        with np.errstate(over="ignore", invalid="ignore"):
            ahead = np.roll(sign, -1) / sign * np.exp(np.roll(logabs, -1) - logabs)
            behind = np.roll(sign, 1) / sign * np.exp(np.roll(logabs, 1) - logabs)
        calm = bool(np.all(np.maximum(np.abs(ahead - 1), np.abs(behind - 1)) <= _MAG_GUARD))
        steps = np.angle(np.roll(sign, -1) / sign)
        turns = float(np.sum(steps) / (2.0 * np.pi))
        if (
            calm
            and float(np.max(np.abs(steps))) < _STEP_GUARD
            and abs(turns - round(turns)) <= PHASE_GUARD
        ):
            return int(round(turns)), bottom, top
        if n >= _WINDING_CAP:
            raise UndersampledError(
                f"det winding did not resolve by N={n} ({turns:.4f} turns); "
                "its zeros come too close to the unit circle"
            )
        n *= 2


def det_index_oracle(m: RationalMatrix, grid: CircleGrid | int = 512) -> int:
    """Winding index of det m(t) over the unit circle.

    Works from numeric determinant samples only: no symbolic
    determinant is formed, so this is an independent oracle for index
    accounting.  ``grid`` sets the minimum sampling size; it is refined
    automatically until the winding is resolved.
    """
    n0 = grid if isinstance(grid, int) else grid.n
    idx, _, _ = _det_winding(m, n0)
    return idx


def _root_set(sym: RationalSymbol, which: str):
    poly = sym.num if which == "num" else sym.den
    if poly.is_zero:
        return []
    return [r for r, mult in poly_roots(poly) for _ in range(mult)]


def _minus_entry_violation(sym: RationalSymbol) -> float:
    """How badly an entry fails to be pole-free on {|t| >= 1} + infinity."""
    if sym.is_zero:
        return 0.0
    v = 0.0
    for r in _root_set(sym, "den"):
        v = max(v, abs(r) - 1.0 + CIRCLE_TOL if abs(r) >= 1.0 - CIRCLE_TOL else 0.0)
    excess = sym.num.max_deg - sym.den.max_deg
    if excess > 0:
        v = max(v, float(excess))
    return v


def _plus_entry_violation(sym: RationalSymbol) -> float:
    """How badly an entry fails to be pole-free on {|t| <= 1}."""
    if sym.is_zero:
        return 0.0
    v = 0.0
    for r in _root_set(sym, "den"):
        v = max(v, 1.0 + CIRCLE_TOL - abs(r) if abs(r) <= 1.0 + CIRCLE_TOL else 0.0)
    if sym.num.min_deg < 0:
        v = max(v, float(-sym.num.min_deg))
    return v


def _factor_invertibility(m: RationalMatrix, grid_n: int, name: str) -> Check:
    """Certify a factor invertible on its half of the sphere.

    Once the entrywise checks establish analyticity on that half, the
    argument principle reduces "no zeros of the determinant there" to
    two sampled facts: the determinant does not vanish on the circle
    and its winding around 0 is zero.  Forming the determinant from
    grid samples sidesteps the symbolic blow-up of cofactor expansion.
    """
    try:
        idx, bottom, top = _det_winding(m, grid_n)
    except WhsymmError as exc:
        return Check(name, float("inf"), 0.0, str(exc))
    return Check(
        name,
        float(abs(idx)),
        0.0,
        f"|det| within [{_exp_3g(bottom)}, {_exp_3g(top)}] on the circle",
    )


def _exp_3g(log_abs: float) -> str:
    """exp(log_abs) formatted as '.3g', also beyond the float range."""
    with np.errstate(over="ignore", under="ignore"):
        v = float(np.exp(log_abs))
    if np.finfo(float).tiny <= v < np.inf:
        return f"{v:.3g}"
    e10 = log_abs / np.log(10.0)
    k = int(np.floor(e10))
    mant = f"{10.0 ** (e10 - k):.3g}"
    if mant == "10":
        mant, k = "1", k + 1
    return f"{mant}e{k:+03d}"


def _reconstruct(mvals: np.ndarray, d, pvals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Samples of minus diag(t**d) plus from samples of minus and plus.

    The diagonal factor scales the columns of minus, so the product is
    one batched matmul, O(N n^3).
    """
    return (mvals * pts[:, None, None] ** np.asarray(d)) @ pvals


def verify_matrix_factorization(
    target: RationalMatrix,
    fac,
    recon_tol: float = RECON_TOL,
    grid_n: int = 512,
) -> VerificationReport:
    """Certify target = minus * diag(t**d) * plus.

    ``fac`` is anything with .minus, .d, .plus attributes.  Four check
    families: grid reconstruction, entrywise analyticity of each factor,
    invertibility of both determinants on their half of the sphere, and
    total-index accounting against the argument-principle oracle.
    """
    checks: list[Check] = []
    grid = CircleGrid(grid_n)
    minus, d, plus = fac.minus, list(fac.d), fac.plus

    tvals = target.eval_grid(grid)
    recon = _reconstruct(minus.eval_grid(grid), d, plus.eval_grid(grid), grid.points)
    checks.append(Check("reconstruction", float(np.max(np.abs(recon - tvals))), recon_tol))

    try:
        v = max(_minus_entry_violation(e) for row in minus.rows for e in row)
        checks.append(Check("minus_entries_analytic", v, 0.0))
    except WhsymmError as exc:
        checks.append(Check("minus_entries_analytic", float("inf"), 0.0, str(exc)))
    try:
        v = max(_plus_entry_violation(e) for row in plus.rows for e in row)
        checks.append(Check("plus_entries_analytic", v, 0.0))
    except WhsymmError as exc:
        checks.append(Check("plus_entries_analytic", float("inf"), 0.0, str(exc)))

    checks.append(_factor_invertibility(minus, grid_n, "det_minus_invertible"))
    checks.append(_factor_invertibility(plus, grid_n, "det_plus_invertible"))

    try:
        total = det_index_oracle(target, grid_n)
        checks.append(Check("index_sum", float(abs(sum(d) - total)), 0.0))
    except WhsymmError as exc:
        checks.append(Check("index_sum", float("inf"), 0.0, str(exc)))

    return VerificationReport(tuple(checks), subject="matrix factorization")
