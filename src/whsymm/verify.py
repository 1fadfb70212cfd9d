"""Black-box certification of factorizations.

Nothing in this module trusts how a factorization was produced.  Checks
are (residual, tolerance) pairs, tolerance 0 for the structural ones
(pole locations, degree balance, windings); a scalar factorization is
checked as its 1 x 1 case (scalar.verify_scalar).

The determinant oracle (det_index_oracle) forms no determinant.  It
reads a matrix's record of how it was built (``RationalMatrix.pieces``)
down to constant matrices and leaves, so that det A(t) = c prod_k
det L_k(t)^(m_k).  The stitched factors F* diag(lambda) and
diag(lambda) F of a group or center symbol come apart into F, judged
singular or not once by Hadamard's bound, and the blocks lambda_k, each
counted once with its multiplicity d_k.  A matrix with no record, the
target and every parsed factor among them, is its own single leaf.  Each
leaf's zeros in the disk are counted from eigenvalues: its rows are
cleared of their denominators, and the zeros of the resulting
polynomial matrix are the eigenvalues of a block companion, each
accepted only with an inclusion disk clear of the circle; a triangular
leaf is split into its diagonal entries first.  The leaves are counted
in stacks, one per degree and size of their cleared rows, with the
inclusion disks each leaf gets alone.  A leaf the eigenvalues
leave unresolved is counted from LU samples of its determinant instead
(_det_winding).  So the index oracle on the target never reads a
Fourier construction.

The rest of the verifier reads the record of a factorization whose
minus is recorded as C diag(s-) and whose plus as diag(s+) C'
(_leaf_form): every stitched factor of an abelian group or a center
symbol, and of a nonabelian group whose blocks all factor diagonally.
Reconstruction is then C diag(s- t^d s+) C', one matrix product per
chunk of points, and the entry checks read the 2n leaves s.  Every
other factor, every parsed document among them, is checked through its
n^2 entries, evaluated from its record where it has one (GridEvaluator).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleOnCircleError, UndersampledError, WhsymmError
from .ratmat import GridEvaluator, RationalMatrix, layout
from .symbols import (
    CircleGrid,
    RationalSymbol,
    Zero,
    certified_winding,
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
    sample chunks, relative to the target's largest modulus on that grid
    (absolute where the target vanishes on the whole grid); a NaN
    anywhere makes the residual NaN."""
    pairs = [(np.max(np.abs(recon - target)), np.max(np.abs(target))) for recon, target in chunks]
    worst, top = np.max(pairs, axis=0)
    return Check("reconstruction", float(worst / top if top > 0 else worst), tol)


def unitarity_check(m: np.ndarray, tol: float = UNITARY_TOL, name: str = "unitarity") -> VerificationReport:
    """Residual of m m* = I."""
    m = np.asarray(m, dtype=complex)
    res = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
    return VerificationReport((Check(name, res, tol),))


# Smallest grid the sampled determinant winding starts from.
_WINDING_FLOOR = 1 << 14
# Working memory for one chunk of grid samples, every temporary
# of the evaluation counted (GridEvaluator.bytes_per_point).  At order 32
# a chunk is a few dozen points and stays in cache; a 5x5 matrix still
# gets over a thousand points per chunk, so per-chunk overhead is noise.
_CHUNK_BYTES = 1 << 20


def point_chunks(pts: np.ndarray, bytes_per_point: int):
    """Consecutive slices of pts of at most _CHUNK_BYTES working memory
    at bytes_per_point each, and at least one point each."""
    step = max(1, _CHUNK_BYTES // bytes_per_point)
    return (pts[a : a + step] for a in range(0, pts.size, step))


def _det_winding(m: RationalMatrix, n0: int) -> int:
    """Winding of det m(t) around 0 from a dense circle sampling.

    The winding is certified_winding's, from N = max(n0, _WINDING_FLOOR),
    so inputs whose determinant zeros hug the circle tighter than its cap
    resolves are declined rather than misjudged.

    Samples are taken as (det / |det|, log |det|) so that no modulus
    over- or underflows, and the grid is evaluated and factored in
    chunks of at most _CHUNK_BYTES working memory; only the (N,)
    samples are held whole, and every test runs on all of them.
    """
    ev = GridEvaluator(m)

    def ratios(n: int) -> np.ndarray:
        pts = CircleGrid(n).points
        chunks = [np.linalg.slogdet(ev(p)) for p in point_chunks(pts, ev.bytes_per_point)]
        sign = np.concatenate([c[0] for c in chunks])
        logabs = np.concatenate([c[1] for c in chunks])
        top = float(np.max(logabs))
        if top == -np.inf or float(np.min(logabs)) - top <= np.log(1e-13):
            raise NotInvertibleOnCircleError("det nearly vanishes on the circle")
        # det at each sample's next neighbour relative to det at the sample
        with np.errstate(over="ignore", invalid="ignore"):
            return np.roll(sign, -1) / sign * np.exp(np.roll(logabs, -1) - logabs)

    winding, turns, n = certified_winding(ratios, max(n0, _WINDING_FLOOR))
    if winding is None:
        raise UndersampledError(
            f"det winding did not resolve by N={n} ({turns:.4f} turns); "
            "its zeros come too close to the unit circle"
        )
    return winding


def _constant_log_abs(c: np.ndarray) -> float:
    """log|det C| of a constant matrix.  A det(C) below 1e-13 of
    Hadamard's bound (the smaller of the products of C's row and column
    norms) is LU roundoff on a singular C, so the determinant oracle
    declines it."""
    _, logabs = np.linalg.slogdet(c)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = min(np.sum(np.log(np.linalg.norm(c, axis=a))) for a in (0, 1))
        if not logabs - bound > np.log(1e-13):
            raise NotInvertibleOnCircleError("det nearly vanishes on the circle")
    return float(logabs)


def _det_parts(m: RationalMatrix) -> tuple[float, list[tuple[RationalMatrix, int]]]:
    """(log|c|, leaves) with det m(t) = c prod_(leaf, k) det leaf(t)^k.

    The pieces m records are followed down to matrices without a record
    (m itself when it has none) and to the entries of ``diag``, 1 x 1
    leaves; a piece met k times counts k times, as ``BlockDiagonal``
    repeats block k d_k times.  A matrix without a record whose entries
    strictly below (or strictly above) the diagonal are all zero splits
    into its diagonal entries, as its determinant is their product.
    Each constant piece is judged by _constant_log_abs."""
    counts: dict[int, list] = {}
    stack = [m]
    while stack:
        piece = stack.pop()
        if isinstance(piece, RationalMatrix) and piece.pieces is not None:
            stack.extend(piece.pieces)
        elif isinstance(piece, RationalMatrix) and _triangular(piece):
            stack.extend(piece.rows[i][i] for i in range(piece.shape[0]))
        else:
            counts.setdefault(id(piece), [piece, 0])[1] += 1
    log_c, leaves = 0.0, []
    for piece, k in counts.values():
        if isinstance(piece, np.ndarray):
            log_c += k * _constant_log_abs(piece)
        else:
            leaves.append((piece if isinstance(piece, RationalMatrix) else RationalMatrix([[piece]]), k))
    return log_c, leaves


def _leaf_form(m: RationalMatrix, left: bool) -> tuple[np.ndarray, list[RationalSymbol]] | None:
    """(C, s) when m's record is C diag(s) (``left``, as a stitched minus
    is built) or diag(s) C (as a stitched plus is), else None; diag(s)
    is a diagonal core (ratmat.layout).  GridEvaluator gives m's samples
    as the samples of s times C, entry by entry with no sum, so they are
    the same on either path."""
    consts, cells, diagonal = layout(m)
    if not diagonal or len(consts) != 1 or consts[0][1] != left:
        return None
    n = m.shape[0]
    return consts[0][0], [cells.get(i * (n + 1), Zero) for i in range(n)]


def _triangular(m: RationalMatrix) -> bool:
    """m is square with only zeros strictly below, or strictly above,
    its diagonal."""
    n = m.shape[0]
    if m.shape[1] != n:
        return False
    return all(m.rows[i][j].is_zero for i in range(n) for j in range(i)) or all(
        m.rows[j][i].is_zero for i in range(n) for j in range(i)
    )


def _sampled(m: RationalMatrix, pts: np.ndarray, each) -> np.ndarray:
    """np.concatenate of each(values) over pts, m evaluated in chunks of
    at most _CHUNK_BYTES working memory."""
    ev = GridEvaluator(m)
    return np.concatenate([each(ev(p)) for p in point_chunks(pts, ev.bytes_per_point)])


def _det_log_abs(m: RationalMatrix, pts: np.ndarray) -> np.ndarray:
    """log|det m(t)| at each of pts, from the parts _det_parts finds,
    each leaf sampled in chunks of at most _CHUNK_BYTES working memory;
    the 1 x 1 leaves are read off their values, all evaluated together,
    with no LU."""
    log_c, leaves = _det_parts(m)
    scalars = [leaf for leaf, _ in leaves if leaf.shape == (1, 1)]
    if scalars:
        row = RationalMatrix([[leaf.rows[0][0] for leaf in scalars]])
        scalar_logs = iter(_sampled(row, pts, lambda v: np.log(np.abs(v[:, 0]))).T)
    out = np.full(pts.size, log_c)
    for leaf, k in leaves:
        if leaf.shape == (1, 1):
            out += k * next(scalar_logs)
        else:
            out += k * _sampled(leaf, pts, lambda v: np.linalg.slogdet(v)[1])
    return out


# The Moebius point a of s -> (s + a) / (1 + conj(a) s), which maps the
# unit disk onto itself; any |a| < 1 off the real axis serves.
_MOBIUS = 0.3 * np.exp(0.7j)
# An eigenvalue lambda_k counts only when its inclusion disk, of radius
# _EIG_DISK * eps * ||C||_F * kappa_k, lies clear of the unit circle.
_EIG_DISK = 100.0
# A leading coefficient at least this ill-conditioned counts as singular.
_LEAD_COND = 1e12


def _cleared_rows(m: RationalMatrix, inside: dict | None = None) -> tuple[np.ndarray, int] | None:
    """(P, shift) with det m(t) = c t^L det P(t) / prod_i q_i(t) for a
    constant c != 0, and shift = L - sum_i #zeros of q_i in the disk; P
    is given by its coefficients P[k] of t^k.

    Row i of P is t^-lo_i q_i(t) times row i of m, scaled to largest
    coefficient modulus 1, where q_i is the product of the row's
    distinct denominators (the same coefficients are one denominator,
    as GridEvaluator takes them) and lo_i the row's lowest power of t,
    so L = sum_i lo_i.  Each denominator's zeros in the disk are
    counted by _disk_zero_count, like those of det P: a root split
    would scatter a multiple zero near the circle across it.  ``inside``
    holds those counts per denominator's coefficient bytes; it is
    filled here, and a caller may share it between matrices.  None when
    a row is zero, a denominator's count is not certified, or the
    degree D of P is so high (D^3 >= _WINDING_FLOOR) that the eigenvalue
    solve would cost more than the sampled oracle's LUs.
    """
    n = m.shape[0]
    shift = 0
    rows = []
    inside = {} if inside is None else inside
    for row in m.rows:
        live = [(j, e) for j, e in enumerate(row) if not e.is_zero]
        if not live:
            return None
        dens = {}
        for _, e in live:
            dens.setdefault(e.den.coeffs.tobytes(), e.den.coeffs)
        for key, den in dens.items():
            if key not in inside:
                inside[key] = _disk_zero_count(den[:, None, None])
            if inside[key] is None:
                return None
            shift -= inside[key]
        # each denominator's cofactor: the product of the row's others,
        # none when the row has one denominator
        cof = {}
        if len(dens) > 1:
            for key in dens:
                c = np.ones(1, dtype=complex)
                for other, den in dens.items():
                    if other != key:
                        c = np.convolve(c, den)
                cof[key] = c
        lo = min(e.num.min_deg for _, e in live)
        shift += lo
        row = []
        for j, e in live:
            c = np.convolve(e.num.coeffs, cof[e.den.coeffs.tobytes()]) if cof else e.num.coeffs
            row.append((j, e.num.min_deg - lo, c))
        rows.append(row)
    deg = max(k + c.size - 1 for row in rows for _, k, c in row)
    if deg**3 >= _WINDING_FLOOR:
        return None
    p = np.zeros((deg + 1, n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, k, c in row:
            p[k : k + c.size, i, j] = c
        p[:, i] /= np.max(np.abs(p[:, i]))
    return p, shift


# _rotation(D) per degree D, computed once and read-only
_ROTATIONS: dict[int, np.ndarray] = {}


def _rotation(deg: int) -> np.ndarray:
    """rot[k, j]: the coefficient of s^k in (s + a)^j (1 + conj(a) s)^(D - j),
    a = _MOBIUS and D = deg."""
    rot = _ROTATIONS.get(deg)
    if rot is None:
        rot = np.zeros((deg + 1, deg + 1), dtype=complex)
        for j in range(deg + 1):
            c = np.ones(1, dtype=complex)
            for _ in range(j):
                c = np.convolve(c, [_MOBIUS, 1.0])
            for _ in range(deg - j):
                c = np.convolve(c, [1.0, np.conj(_MOBIUS)])
            rot[:, j] = c
        rot.flags.writeable = False
        _ROTATIONS[deg] = rot
    return rot


def _disk_zero_count(p: np.ndarray) -> list[int | None] | int | None:
    """Zeros of det P(t) in the open unit disk, P(t) = sum_k p[k] t^k,
    counted as the eigenvalues in the disk of the block companion C of
    the rotation Q(s) = (1 + conj(a) s)^D P((s + a) / (1 + conj(a) s)).

    p is a (k, D+1, n, n) stack of such polynomials, of one degree D and
    size n, and the k counts come back as a list; a (D+1, n, n) array is
    a stack of one and gets its count.  The stack is counted in chunks of
    at most _CHUNK_BYTES working memory, each with one stacked call of
    the rotation, svd, solve, eig and inv.  These run the routine of a
    single call on each polynomial's own bytes, so every count is the one
    its stack of one gives.  A chunk whose eig or inv raises is counted
    again one polynomial at a time.

    The rotation maps the disk onto itself and makes the leading
    coefficient conj(a)^D P(1 / conj(a)), invertible unless det P
    vanishes identically (or at 1 / conj(a)).  Eigenvalue lambda_k is
    taken to lie within r_k = _EIG_DISK eps ||C||_F kappa_k of a zero,
    kappa_k = ||V[:, k]|| ||V^-1[k, :]|| its condition number, which
    covers the eps^(1/m) scatter of an m-fold zero as well.  A count is
    None when any disk meets the circle, the leading coefficient is
    singular to working precision, or anything is not finite.
    """
    stack = p.reshape(-1, *p.shape[-3:])
    deg, n = stack.shape[1] - 1, stack.shape[2]
    # the companion, its eigenvectors, their inverse and the rotated
    # coefficients, 16 bytes an entry
    step = max(1, _CHUNK_BYTES // (64 * n * n * (deg + 1) ** 2))
    counts = []
    for a in range(0, stack.shape[0], step):
        counts.extend(_chunk_zero_counts(stack[a : a + step]))
    return counts if p.ndim == 4 else counts[0]


def _chunk_zero_counts(stack: np.ndarray) -> list[int | None]:
    """_disk_zero_count of each polynomial of a (k, D+1, n, n) stack,
    with one stacked call of each routine."""
    k, deg, n = stack.shape[0], stack.shape[1] - 1, stack.shape[2]
    counts: list[int | None] = [None] * k
    live = np.flatnonzero(np.all(np.isfinite(stack), axis=(1, 2, 3)))
    # one (D+1, D+1) by (D+1, n^2) product per polynomial
    q = (_rotation(deg) @ stack[live].reshape(-1, deg + 1, n * n)).reshape(-1, deg + 1, n, n)
    sv = np.linalg.svd(q[:, deg], compute_uv=False)
    keep = sv[:, -1] * _LEAD_COND > sv[:, 0]
    live, q = live[keep], q[keep]
    if deg == 0:
        # a constant P with an invertible value has no zeros
        for i in live:
            counts[i] = 0
        return counts
    comp = np.zeros((live.size, n * deg, n * deg), dtype=complex)
    # -Q_D^-1 [Q_(D-1) ... Q_0]
    rest = q[:, deg - 1 :: -1].transpose(0, 2, 1, 3).reshape(-1, n, n * deg)
    comp[:, :n] = -np.linalg.solve(q[:, deg], rest)
    comp[:, n:, :-n] = np.eye(n * (deg - 1))
    finite = np.all(np.isfinite(comp), axis=(1, 2))
    live, comp = live[finite], comp[finite]
    try:
        lam, vec = np.linalg.eig(comp)
        left = np.linalg.inv(vec)
    except np.linalg.LinAlgError:
        if live.size > 1:
            for i in live:
                counts[i] = _chunk_zero_counts(stack[i : i + 1])[0]
        return counts
    re, im = (part.reshape(-1, 1, (n * deg) ** 2) for part in (comp.real, comp.imag))
    with np.errstate(over="ignore", invalid="ignore"):
        # ||C||_F as np.linalg.norm sums one matrix, a dot product of its
        # real parts and one of its imaginary parts; eig returns unit
        # eigenvectors, so kappa_k is the norm of row k of V^-1
        norm = np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0]
        radius = _EIG_DISK * np.finfo(float).eps * norm * np.linalg.norm(left, axis=-1)
        clear = np.all(np.abs(np.abs(lam) - 1.0) > radius, axis=1)
    inner = np.count_nonzero(np.abs(lam) < 1.0, axis=1)
    for i, ok, c in zip(live, clear, inner):
        if ok:
            counts[i] = int(c)
    return counts


def det_index_oracle(m: RationalMatrix, grid: CircleGrid | int = 512) -> int:
    """Winding index of det m(t) over the unit circle.

    No symbolic determinant is formed, so this is an independent oracle
    for index accounting.  The winding is the sum over the leaves of
    _det_parts, each counted with its multiplicity; a matrix without a
    record is its own single leaf.  A leaf is counted from eigenvalues:
    its winding is L + #zeros of det P in the disk - sum_i #zeros of q_i
    in the disk, with P, L and q_i as _cleared_rows forms them.  The
    leaves whose P share a degree and size are counted together, one
    stack per (D, n).  When a count is not certified (_cleared_rows,
    _disk_zero_count), the leaf's winding comes from determinant samples
    (_det_winding); ``grid`` sets their minimum number, refined
    automatically until the winding is resolved.  The leaves share one
    count of each denominator's zeros in the disk, so the 1 x 1 leaves
    of a stitched factor, all over one denominator, count it once.
    """
    n0 = grid if isinstance(grid, int) else grid.n
    inside: dict[bytes, int | None] = {}
    leaves = _det_parts(m)[1]
    cleared = [_cleared_rows(leaf, inside) for leaf, _ in leaves]
    stacks: dict[tuple[int, ...], list[int]] = {}
    for i, c in enumerate(cleared):
        if c is not None:
            stacks.setdefault(c[0].shape, []).append(i)
    counts: list[int | None] = [None] * len(leaves)
    for which in stacks.values():
        for i, count in zip(which, _disk_zero_count(np.stack([cleared[i][0] for i in which]))):
            counts[i] = count
    return sum(
        k * (_det_winding(leaf, n0) if count is None else c[1] + count)
        for (leaf, k), c, count in zip(leaves, cleared, counts)
    )


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
    two facts: the determinant does not vanish on the circle and its
    winding around 0 is zero.  Both come from det_index_oracle, which
    counts a stitched factor F* diag(lambda) or diag(lambda) F from its
    recorded pieces: det F judged once, and each block's determinant
    counted once however often it repeats.  The detail gives the range
    of |det| over the verifier's grid_n-point grid, from the same parts.
    """
    def measure():
        idx = det_index_oracle(m, grid_n)
        logabs = _det_log_abs(m, CircleGrid(grid_n).points)
        return float(abs(idx)), f"|det| within [{_exp_3g(logabs.min())}, {_exp_3g(logabs.max())}] on the circle"

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


def _powers(pts: np.ndarray, d) -> np.ndarray:
    """(N, n) array of pts**d[j], each distinct power taken once."""
    u, which = np.unique(np.asarray(d), return_inverse=True)
    return (pts[:, None] ** u)[:, which]


def _reconstruct(mvals: np.ndarray, powers: np.ndarray, pvals: np.ndarray) -> np.ndarray:
    """Samples of minus diag(t**d) plus from samples of minus and plus
    and powers = _powers(pts, d).

    The diagonal factor scales the columns of minus, so the product is
    one batched matmul, O(N n^3).
    """
    return (mvals * powers[:, None, :]) @ pvals


def _reconstruct_leaves(c_minus: np.ndarray, v: np.ndarray, c_plus: np.ndarray) -> np.ndarray:
    """Samples of C- diag(v) C+ from (N, n) samples of the diagonal
    v = s- t^d s+, as one (N n, n) by (n, n) matrix product."""
    n = c_minus.shape[0]
    return ((c_minus * v[:, None, :]).reshape(-1, n) @ c_plus).reshape(-1, n, n)


def _reconstruction_chunks(target: RationalMatrix, minus, d, plus, pts: np.ndarray):
    """(reconstruction, target) samples over pts in chunks of at most
    _CHUNK_BYTES working memory, as in _det_winding, so that no (N, n, n)
    array is held whole; each sample is the one the whole grid gives.
    Factors in _leaf_form are evaluated from their 2n leaves, whose
    (N, n) diagonal is formed once, others by their GridEvaluator."""
    n = len(d)
    ta = GridEvaluator(target)
    powers = _powers(pts, d)
    forms = _leaf_form(minus, left=True), _leaf_form(plus, left=False)
    if None in forms:
        mv, pv = GridEvaluator(minus), GridEvaluator(plus)
        per_point = mv.bytes_per_point + pv.bytes_per_point

        def recon(p, k):
            return _reconstruct(mv(p), powers[k], pv(p))
    else:
        (c_minus, s_minus), (c_plus, s_plus) = forms
        s = _sampled(RationalMatrix([s_minus + s_plus]), pts, lambda v: v[:, 0])
        v = s[:, :n] * powers * s[:, n:]
        per_point = 0

        def recon(p, k):
            return _reconstruct_leaves(c_minus, v[k], c_plus)

    # the evaluations, then the scaled factor, the product, the difference and its modulus
    start = 0
    for p in point_chunks(pts, ta.bytes_per_point + per_point + 64 * n**2):
        k, start = slice(start, start + p.size), start + p.size
        tvals = ta(p)
        yield recon(p, k), tvals


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

    def worst(m: RationalMatrix, violation, left: bool):
        # a violation reads only the denominator's coefficients and the
        # numerator's degree span, so entries that share them, such as the
        # copies of one entry in the rows of C A or leaves over one
        # denominator, share a value; a later duplicate never changes the
        # running max.  A factor in _leaf_form has its leaves' violations,
        # for every leaf with a nonzero column (row) of C; its other
        # entries are zero
        form = _leaf_form(m, left)
        if form is None:
            entries = [e for row in m.rows for e in row]
        else:
            live = np.any(form[0] != 0, axis=0 if left else 1)
            entries = [s for s, keep in zip(form[1], live) if keep]
        seen: dict[tuple[bytes, int, int], float] = {}
        for e in entries:
            key = (e.den.coeffs.tobytes(), e.num.min_deg, e.num.coeffs.size)
            if key not in seen:
                seen[key] = violation(e)
        return max(seen.values(), default=0.0), ""

    chunks = _reconstruction_chunks(target, minus, d, plus, grid.points)
    checks = (
        reconstruction_check(chunks, recon_tol),
        _guarded("minus_entries_analytic", lambda: worst(minus, _minus_entry_violation, True)),
        _guarded("plus_entries_analytic", lambda: worst(plus, _plus_entry_violation, False)),
        _factor_invertibility(minus, grid_n, "det_minus_invertible"),
        _factor_invertibility(plus, grid_n, "det_plus_invertible"),
        _guarded("index_sum", lambda: (float(abs(sum(d) - det_index_oracle(target, grid_n))), "")),
    )
    return VerificationReport(checks, subject="matrix factorization")
