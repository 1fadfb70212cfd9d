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
    PHASE_GUARD,
    CircleGrid,
    RationalSymbol,
    inside_excess,
    outside_excess,
)

# default tolerances, overridable per call; every module takes them from here
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


def reconstruction_check(chunks, tol: float) -> Check:
    """Worst pointwise residual of reconstructed samples against the
    target's samples on the same grid, given as (recon, target) pairs of
    sample chunks; a NaN anywhere makes the residual NaN."""
    worst = np.max([np.max(np.abs(recon - target)) for recon, target in chunks])
    return Check("reconstruction", float(worst), tol)


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
# Working memory for one chunk of grid samples, every temporary
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


def _minus_entry_violation(sym: RationalSymbol) -> float:
    """How badly an entry fails to be pole-free on {|t| >= 1} + infinity."""
    if sym.is_zero:
        return 0.0
    v = outside_excess(sym.den)
    excess = sym.num.max_deg - sym.den.max_deg
    if excess > 0:
        v = max(v, float(excess))
    return v


def _plus_entry_violation(sym: RationalSymbol) -> float:
    """How badly an entry fails to be pole-free on {|t| <= 1}."""
    if sym.is_zero:
        return 0.0
    v = inside_excess(sym.den)
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
    def measure():
        idx, bottom, top = _det_winding(m, grid_n)
        return float(abs(idx)), f"|det| within [{_exp_3g(bottom)}, {_exp_3g(top)}] on the circle"

    return _guarded(name, measure)


def _guarded(name: str, measure) -> Check:
    """The check (residual, detail) = measure() at tolerance 0; a
    WhsymmError that measure raises fails it, with the error as detail."""
    try:
        residual, detail = measure()
    except WhsymmError as exc:
        return Check(name, float("inf"), 0.0, str(exc))
    return Check(name, residual, 0.0, detail)


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


def _reconstruction_chunks(target: RationalMatrix, minus, d, plus, pts: np.ndarray):
    """(reconstruction, target) samples over pts in chunks of at most
    _CHUNK_BYTES working memory, as in _det_winding, so that no (N, n, n)
    array is held whole; each sample is the one the whole grid gives."""
    evs = [GridEvaluator(m) for m in (target, minus, plus)]
    # the evaluations, then the scaled minus, the product, the difference and its modulus
    step = max(1, _CHUNK_BYTES // (sum(ev.bytes_per_point for ev in evs) + 64 * len(d) ** 2))
    for p in (pts[a : a + step] for a in range(0, pts.size, step)):
        tvals, mvals, pvals = (ev(p) for ev in evs)
        yield _reconstruct(mvals, d, pvals, p), tvals


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
    grid = CircleGrid(grid_n)
    minus, d, plus = fac.minus, list(fac.d), fac.plus

    def worst(m: RationalMatrix, violation):
        return max(violation(e) for row in m.rows for e in row), ""

    chunks = _reconstruction_chunks(target, minus, d, plus, grid.points)
    checks = (
        reconstruction_check(chunks, recon_tol),
        _guarded("minus_entries_analytic", lambda: worst(minus, _minus_entry_violation)),
        _guarded("plus_entries_analytic", lambda: worst(plus, _plus_entry_violation)),
        _factor_invertibility(minus, grid_n, "det_minus_invertible"),
        _factor_invertibility(plus, grid_n, "det_plus_invertible"),
        _guarded("index_sum", lambda: (float(abs(sum(d) - det_index_oracle(target, grid_n))), "")),
    )
    return VerificationReport(checks, subject="matrix factorization")
