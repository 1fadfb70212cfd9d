"""Reduction of group-symmetric matrix symbols to independent blocks.

A symbol a: G -> rational functions defines the n x n matrix
A(t)_{ij} = a(g_i g_j^{-1}).  Conjugating by the group Fourier matrix
turns A into a block-diagonal matrix whose distinct blocks are

    lambda_k(t) = sum_g a(g) phi_k(g),

each repeated degree(phi_k) times.  Factorization then happens block by
block: scalar blocks directly, 2 x 2 triangular blocks through a
monomial-gap correction, everything else reported as out of reach
together with the index bookkeeping that is still available.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    IllPosedSymbolError,
    NotInvertibleOnCircleError,
    PartialFactorizationError,
    UndersampledError,
)
from .groups import FiniteGroup
from .ratmat import RationalMatrix
from .reps import FourierMatrixGroup, RepSet, fourier_matrix, irreps_for
from .scalar import ScalarFactorization, factor_rational
from .symbols import (
    LaurentPoly,
    RationalSymbol,
    annulus_coeffs,
    project_high,
    project_low,
    separate_poles,
    winding_index,
)

# Coefficients this small relative to a block's scale are treated as the
# zero the construction intended, not as data.
SNAP_TOL = 1e-12


@dataclass(eq=False)
class GroupSymbol:
    """A map from group elements to rational symbols, ordered like the
    group's element enumeration."""

    group: FiniteGroup
    coeffs: tuple[RationalSymbol, ...]

    def __post_init__(self) -> None:
        self.coeffs = tuple(self.coeffs)
        if len(self.coeffs) != self.group.order:
            raise ValueError(
                f"need {self.group.order} coefficients, got {len(self.coeffs)}"
            )


@dataclass(eq=False)
class BlockDiagonal:
    """The distinct diagonal blocks lambda_k; block k appears degrees[k]
    times in the full block-diagonal matrix."""

    repset: RepSet
    blocks: tuple[RationalMatrix, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self.repset.degrees

    def expand(self) -> RationalMatrix:
        """The full block-diagonal matrix, with multiplicities."""
        pieces = []
        for d, b in zip(self.degrees, self.blocks):
            pieces.extend([b] * d)
        return RationalMatrix.block_diag(pieces)


@dataclass(eq=False)
class MatrixFactorization:
    """minus * diag(t**d) * plus, in left-to-right order."""

    minus: RationalMatrix
    d: tuple[int, ...]
    plus: RationalMatrix

    @property
    def sorted_d(self) -> tuple[int, ...]:
        return tuple(sorted(self.d))


@dataclass(frozen=True)
class BlockIndexInfo:
    block: int
    degree: int
    det_index: int
    indices: tuple[int, ...] | None  # known only for factored blocks
    positions: tuple[int, ...]  # 1-based slots in the expanded index vector


@dataclass(frozen=True)
class IndexReport:
    """Partial-index bookkeeping.

    Positions are 1-based slots rho_1..rho_n of the full index vector in
    block order (block k contributes degree_k copies of its degree_k
    indices).  Degree-1 blocks give explicitly known indices; larger
    blocks contribute sum and repetition relations.
    """

    group_name: str
    order: int
    blocks: tuple[BlockIndexInfo, ...]
    total_index: int
    explicit: tuple[tuple[int, int], ...]  # (position, value) pairs
    relations: tuple[str, ...]

    @property
    def explicit_count(self) -> int:
        return len(self.explicit)

    def known_indices_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(v for _, v in self.explicit))

    def describe(self) -> str:
        lines = [
            f"group={self.group_name} order={self.order} total_index={self.total_index}",
            f"explicit_indices={self.explicit_count}",
        ]
        for pos, val in self.explicit:
            lines.append(f"rho_{pos} = {val}")
        lines.extend(self.relations)
        return "\n".join(lines)


def assemble_matrix(gs: GroupSymbol) -> RationalMatrix:
    """The symmetric matrix A(t)_{ij} = a(g_i g_j^{-1})."""
    g = gs.group
    return RationalMatrix(
        [
            [gs.coeffs[g.cayley[i, g.inverse[j]]] for j in range(g.order)]
            for i in range(g.order)
        ]
    )


class _CommonDen:
    """Shared-denominator context for linear combinations of symbols.

    The common denominator is the product of the distinct denominators
    appearing among the symbols; each numerator is pre-multiplied by the
    product of the other distinct denominators, and the nonzero ones are
    stacked once into ``nums``, one row per symbol over the common power
    span starting at t^lo.  Every combination built from one context
    shares the same denominator object, which keeps downstream
    determinants over a single denominator power.
    """

    def __init__(self, symbols) -> None:
        symbols = list(symbols)
        distinct: list[LaurentPoly] = []
        which = []
        for s in symbols:
            if s.is_zero:
                which.append(-1)
                continue
            for i, d in enumerate(distinct):
                if d == s.den:
                    which.append(i)
                    break
            else:
                which.append(len(distinct))
                distinct.append(s.den)
        m = len(distinct)
        prefix = [LaurentPoly.const(1.0)]
        for d in distinct:
            prefix.append(prefix[-1] * d)
        suffix = [LaurentPoly.const(1.0)]
        for d in reversed(distinct):
            suffix.append(suffix[-1] * d)
        suffix.reverse()
        self.common = prefix[m]
        cofactor = [prefix[i] * suffix[i + 1] for i in range(m)]
        self.live = [i for i, w in enumerate(which) if w >= 0]
        scaled = [symbols[i].num * cofactor[which[i]] for i in self.live]
        self.lo = min((p.min_deg for p in scaled), default=0)
        hi = max((p.max_deg for p in scaled), default=self.lo - 1)
        self.nums = np.zeros((len(scaled), hi - self.lo + 1), dtype=complex)
        for row, p in zip(self.nums, scaled):
            row[p.min_deg - self.lo : p.max_deg - self.lo + 1] = p.coeffs
        self.mags = np.abs(self.nums)

    def combine(self, weights: np.ndarray) -> RationalMatrix:
        """Matrix of sum_i weights[i] * symbols[i]; weights has shape
        (len(symbols), r, c).

        A coefficient no larger than k eps sum_i |weights[i]| |x_i| (k
        the number of nonzero symbols, x_i their numerators'
        coefficients at that power) is set to 0: that is the forward
        error bound of its own sum (Higham, Accuracy and Stability of
        Numerical Algorithms, section 3.1), so such a coefficient is the
        roundoff of a cancellation, not data.
        """
        w = np.asarray(weights, dtype=complex)[self.live]
        sums = np.tensordot(w, self.nums, axes=(0, 0))
        bound = np.tensordot(np.abs(w), self.mags, axes=(0, 0))
        sums[np.abs(sums) <= len(self.live) * np.finfo(float).eps * bound] = 0.0
        return RationalMatrix(
            [[RationalSymbol(LaurentPoly(self.lo, e), self.common) for e in row] for row in sums]
        )


def block_diagonalize(gs: GroupSymbol, repset: RepSet | None = None) -> BlockDiagonal:
    """Compute every block lambda_k = sum_g a(g) phi_k(g)."""
    rs = repset if repset is not None else irreps_for(gs.group)
    ctx = _CommonDen(gs.coeffs)
    blocks = tuple(ctx.combine(r.matrices) for r in rs.irreps)
    return BlockDiagonal(rs, blocks)


def symbol_from_blocks(blocks, repset: RepSet) -> GroupSymbol:
    """Inverse transform: recover a(g) from the distinct blocks via
    a(g) = (1/|G|) sum_k d_k sum_{ij} (m_k)_{ij} conj(phi_k(g)_{ij})."""
    blocks = list(blocks)
    group = repset.group
    n = group.order
    entries = []
    weight_rows = []  # per entry, the vector of weights over g
    for r, m in zip(repset.irreps, blocks):
        d = r.degree
        if m.shape != (d, d):
            raise ValueError(f"block shape {m.shape} does not match degree {d}")
        for i in range(d):
            for j in range(d):
                entries.append(m[i, j])
                weight_rows.append(r.degree * np.conj(r.matrices[:, i, j]) / n)
    coeffs = _CommonDen(entries).combine(np.asarray(weight_rows)[:, None, :])
    return GroupSymbol(group, coeffs.rows[0])


def convolve(x: GroupSymbol, y: GroupSymbol) -> GroupSymbol:
    """Group convolution (x*y)(g) = sum_h x(h) y(h^-1 g); matches the
    matrix product of the assembled matrices."""
    if x.group is not y.group and not np.array_equal(x.group.cayley, y.group.cayley):
        raise ValueError("convolution needs symbols over the same group")
    g = x.group
    coeffs = []
    for target in range(g.order):
        acc = RationalSymbol.zero()
        for h in range(g.order):
            acc = acc + x.coeffs[h] * y.coeffs[g.cayley[g.inverse[h], target]]
        coeffs.append(acc)
    return GroupSymbol(g, tuple(coeffs))


@dataclass(frozen=True)
class BlockStructure:
    group_name: str
    order: int
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    explicit_count: int

    def describe(self) -> str:
        parts = ", ".join(
            f"{d}x{d} (x{m})" for d, m in zip(self.degrees, self.multiplicities)
        )
        return (
            f"group={self.group_name} order={self.order} blocks: {parts}; "
            f"{self.explicit_count} scalar blocks give explicit indices"
        )


def block_structure(group: FiniteGroup, repset: RepSet | None = None) -> BlockStructure:
    rs = repset if repset is not None else irreps_for(group)
    degrees = rs.degrees
    return BlockStructure(
        group_name=group.name,
        order=group.order,
        degrees=degrees,
        multiplicities=degrees,
        explicit_count=sum(1 for d in degrees if d == 1),
    )


@contextlib.contextmanager
def _naming_the_block(what: str, k: int):
    """Re-raise a decline from block k (0-based), described as ``what``,
    with the block named: IllPosedSymbolError when the block is not
    invertible on the circle, UndersampledError when its winding is not
    resolved.  Both exit with code 3."""
    try:
        yield
    except NotInvertibleOnCircleError as exc:
        raise IllPosedSymbolError(
            f"{what} is not invertible on the circle: {exc}", where=f"block {k + 1}"
        ) from exc
    except UndersampledError as exc:
        raise UndersampledError(f"{what} has no resolved winding: {exc}") from exc


def partial_indices(bd: BlockDiagonal) -> IndexReport:
    """Index bookkeeping for a block diagonalization.

    Scalar blocks yield explicit winding indices.  For every larger
    block only the sum of its partial indices (the winding index of its
    determinant) is pinned, plus the fact that the block's index tuple
    repeats once per copy.
    """
    infos = []
    explicit = []
    relations = []
    total = 0
    pos = 1
    for k, (d, block) in enumerate(zip(bd.degrees, bd.blocks)):
        if d == 1:
            sym, what = block[0, 0], f"block {k + 1} (scalar)"
        else:
            sym, what = block.det(), f"det of block {k + 1}"
        with _naming_the_block(what, k):
            ind = winding_index(sym)
        if d == 1:
            infos.append(BlockIndexInfo(k, 1, ind, (ind,), (pos,)))
            explicit.append((pos, ind))
        else:
            infos.append(BlockIndexInfo(k, d, ind, None, tuple(range(pos, pos + d * d))))
            lhs = " + ".join(f"rho_{p}" for p in range(pos, pos + d))
            relations.append(f"{lhs} = ind det Lambda_{k + 1} = {ind}")
            for copy in range(1, d):
                for i in range(d):
                    relations.append(f"rho_{pos + copy * d + i} = rho_{pos + i}")
        total += d * ind
        pos += d * d
    return IndexReport(
        group_name=bd.repset.group.name,
        order=bd.repset.group.order,
        blocks=tuple(infos),
        total_index=total,
        explicit=tuple(explicit),
        relations=tuple(relations),
    )


# ----------------------------------------------------------------------
# 2 x 2 triangular factorization
# ----------------------------------------------------------------------


def _gap_corner_factor(d: int, u_coeffs: np.ndarray):
    """Factor Q = [[t**d, u], [0, 1]] with u supported on t^1..t^(d-1).

    Returns (q_minus, (k1, k2), q_plus).  The minus factor's inverse has
    rows (x_i, y_i) with x_i a Laurent polynomial supported on
    [k_i - d, 0]; requiring x_i*u + y_i to have frequencies >= k_i with
    y_i of frequencies <= 0 gives a homogeneous linear system per row.
    Candidate index pairs are scanned from balanced to extreme; a valid
    pair is certified by a nonzero (necessarily constant) determinant.
    """
    u = np.zeros(d, dtype=complex)  # u[f] = coefficient of t^f, f = 1..d-1
    u_coeffs = np.asarray(u_coeffs, dtype=complex)
    if u_coeffs.size:
        u[1 : 1 + u_coeffs.size] = u_coeffs

    ident = RationalMatrix.identity(2)
    if not np.any(u):
        return ident, (d, 0), ident

    sigma = float(np.max(np.abs(u)))
    u = u / sigma
    u_poly = LaurentPoly(0, u)

    def row_solutions(kappa: int):
        """Null-space basis of the constraints on x (length d-kappa+1,
        coefficient of t^(kappa-d+j)), plus the map x -> y."""
        width = d - kappa + 1
        rows = []
        for f in range(1, kappa):
            row = np.zeros(width, dtype=complex)
            for j in range(width):
                src = f - (kappa - d + j)
                if 1 <= src <= d - 1:
                    row[j] = u[src]
            rows.append(row)
        if rows:
            a = np.vstack(rows)
            _, sv, vh = np.linalg.svd(a)
            rank = int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
            basis = vh[rank:].conj()
        else:
            basis = np.eye(width, dtype=complex)
        out = []
        for vec in basis:
            x = LaurentPoly(kappa - d, vec)
            xu = x * u_poly
            y = -_low_part(xu, 0)
            out.append((x, y))
        return out

    def _low_part(p: LaurentPoly, k: int) -> LaurentPoly:
        if p.is_zero or p.min_deg > k:
            return LaurentPoly.zero()
        take = min(k, p.max_deg) - p.min_deg + 1
        return LaurentPoly(p.min_deg, p.coeffs[:take])

    for k1 in range((d + 1) // 2, d + 1):
        k2 = d - k1
        sols1 = row_solutions(k1)
        sols2 = row_solutions(k2)
        best = None
        for p, (x1, y1) in enumerate(sols1):
            for q, (x2, y2) in enumerate(sols2):
                det = x1 * y2 - y1 * x2
                val = det.coeff(0)
                if best is None or abs(val) > abs(best[0]):
                    best = (val, x1, y1, x2, y2)
        if best is None or abs(best[0]) <= 1e-9:
            continue
        detc, x1, y1, x2, y2 = best
        # q_minus is the inverse of [[x1, y1], [x2, y2]] (constant det)
        inv_scale = 1.0 / detc
        qm = RationalMatrix(
            [
                [RationalSymbol(y2.scale(inv_scale)), RationalSymbol((-y1).scale(inv_scale))],
                [RationalSymbol((-x2).scale(inv_scale)), RationalSymbol(x1.scale(inv_scale))],
            ]
        )
        rows = []
        for kappa, x, y in ((k1, x1, y1), (k2, x2, y2)):
            left = x.shift(d - kappa)
            # x*u + y has support [kappa, d-1]: frequencies <= 0 cancel
            # exactly against y, 1..kappa-1 only to SVD precision
            corner = (x * u_poly) + y
            if not corner.is_zero and corner.min_deg < kappa:
                cut = min(kappa - corner.min_deg, corner.coeffs.size)
                junk = corner.coeffs[:cut]
                if float(np.max(np.abs(junk))) > 1e-8:
                    raise NotInvertibleOnCircleError(
                        "triangular gap correction lost too much precision"
                    )
                corner = LaurentPoly(kappa, corner.coeffs[cut:])
            rows.append([RationalSymbol(left), RationalSymbol(corner.shift(-kappa))])
        qp = RationalMatrix(rows)
        # undo the scaling conjugation diag(sigma, 1)
        qm = qm.const_mul_left(np.diag([sigma, 1.0]))
        qp = qp.const_mul_right(np.diag([1.0 / sigma, 1.0]))
        return qm, (k1, k2), qp
    raise NotInvertibleOnCircleError(
        "no valid index pair found for the triangular gap correction"
    )


def factor_triangular_2x2(block: RationalMatrix) -> MatrixFactorization:
    """Factor a 2 x 2 block whose lower-left entry is identically zero.

    The diagonal entries are factored as scalars; the off-diagonal
    coupling c = b / (lambda1_minus * lambda2_plus) is split by Laurent
    frequency so that everything below the first index goes left and
    everything above goes right.  When the diagonal indices are in
    decreasing order the leftover middle frequencies form a monomial-gap
    corner whose factorization can shift the final indices.
    """
    if block.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got {block.shape}")
    if not block[1, 0].is_zero:
        raise ValueError("lower-left entry must be identically zero")
    lam1, b, lam2 = block[0, 0], block[0, 1], block[1, 1]
    f1 = factor_rational(lam1)
    f2 = factor_rational(lam2)
    r1, r2 = f1.index, f2.index
    zero = RationalSymbol.zero()

    if b.is_zero:
        minus = RationalMatrix([[f1.minus, zero], [zero, f2.minus]])
        plus = RationalMatrix([[f1.plus, zero], [zero, f2.plus]])
        return MatrixFactorization(minus, (r1, r2), plus)

    c = b / (f1.minus * f2.plus)
    split = separate_poles(c)

    if r1 <= r2:
        v = project_low(c, r1 - 1, split).shift(-r2)
        u = project_high(c, r1, split).shift(-r1)
        minus = RationalMatrix([[f1.minus, f1.minus * v], [zero, f2.minus]])
        plus = RationalMatrix([[f1.plus, u * f2.plus], [zero, f2.plus]])
        return MatrixFactorization(minus, (r1, r2), plus)

    # decreasing diagonal indices: split off the gap frequencies
    gap = annulus_coeffs(c, r2 + 1, r1 - 1, split)
    scale = max(1.0, float(np.max(np.abs(c.num.coeffs))))
    gap[np.abs(gap) <= SNAP_TOL * scale] = 0.0
    v = project_low(c, r2, split).shift(-r2)
    u = project_high(c, r1, split).shift(-r1)

    qm, (k1, k2), qp = _gap_corner_factor(r1 - r2, gap)
    lam_minus = RationalMatrix([[f1.minus, f1.minus * v], [zero, f2.minus]])
    lam_plus = RationalMatrix([[f1.plus, u * f2.plus], [zero, f2.plus]])
    minus = lam_minus @ qm
    plus = qp @ lam_plus
    return MatrixFactorization(minus, (k1 + r2, k2 + r2), plus)


# ----------------------------------------------------------------------
# block dispatch and full assembly
# ----------------------------------------------------------------------


def _coeff_scale(block: RationalMatrix) -> float:
    top = 0.0
    for row in block.rows:
        for e in row:
            if not e.is_zero:
                top = max(top, float(np.max(np.abs(e.num.coeffs))))
    return max(top, 1.0)


def _snapped_zero(entry: RationalSymbol, scale: float) -> bool:
    if entry.is_zero:
        return True
    return float(np.max(np.abs(entry.num.coeffs))) <= SNAP_TOL * scale


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def factor_block(block: RationalMatrix) -> MatrixFactorization | None:
    """Factor one diagonal block if it is inside the supported catalog.

    Supported shapes: 1 x 1, diagonal of any size, and 2 x 2 triangular
    (either corner identically zero, where "identically" tolerates
    coefficients below SNAP_TOL relative to the block's scale - such
    residue is construction noise, and the verifier still certifies the
    result against the unmodified target).  Returns None for anything
    else.
    """
    d = block.shape[0]
    scale = _coeff_scale(block)
    off_diag_zero = all(
        _snapped_zero(block[i, j], scale)
        for i in range(d)
        for j in range(d)
        if i != j
    )
    if off_diag_zero:
        facs = [factor_rational(block[i, i]) for i in range(d)]
        return MatrixFactorization(
            RationalMatrix.diag([f.minus for f in facs]),
            tuple(f.index for f in facs),
            RationalMatrix.diag([f.plus for f in facs]),
        )
    if d != 2:
        return None
    if _snapped_zero(block[1, 0], scale):
        zero = RationalSymbol.zero()
        cleaned = RationalMatrix(
            [[block[0, 0], block[0, 1]], [zero, block[1, 1]]]
        )
        return factor_triangular_2x2(cleaned)
    if _snapped_zero(block[0, 1], scale):
        zero = RationalSymbol.zero()
        flipped = RationalMatrix(
            [[block[1, 1], block[1, 0]], [zero, block[0, 0]]]
        )
        f = factor_triangular_2x2(flipped)
        return MatrixFactorization(
            f.minus.const_mul_left(_SWAP).const_mul_right(_SWAP),
            (f.d[1], f.d[0]),
            f.plus.const_mul_left(_SWAP).const_mul_right(_SWAP),
        )
    return None


def assemble_full_factorization(
    bd: BlockDiagonal,
    factors,
    fourier: FourierMatrixGroup,
) -> MatrixFactorization:
    """Stitch per-block factorizations into one for the assembled matrix.

    ``factors[k]`` must be the MatrixFactorization of block k (or None,
    which raises PartialFactorizationError carrying the index report).
    The result factors F* Lambda F: the minus side absorbs F*, the plus
    side absorbs F, and the index vector repeats each block's indices
    once per copy.
    """
    factors = list(factors)
    if any(f is None for f in factors):
        missing = [k + 1 for k, f in enumerate(factors) if f is None]
        raise PartialFactorizationError(
            f"blocks {missing} are outside the factorization catalog",
            index_report=partial_indices(bd),
        )
    lam_minus = BlockDiagonal(bd.repset, tuple(f.minus for f in factors)).expand()
    lam_plus = BlockDiagonal(bd.repset, tuple(f.plus for f in factors)).expand()
    d = tuple(k for deg, f in zip(bd.degrees, factors) for _ in range(deg) for k in f.d)
    minus = lam_minus.const_mul_left(fourier.matrix.conj().T)
    plus = lam_plus.const_mul_right(fourier.matrix)
    return MatrixFactorization(minus, d, plus)


def factor_group_symbol(
    gs: GroupSymbol, repset: RepSet | None = None
) -> MatrixFactorization:
    """Full pipeline: block-diagonalize, factor every block, reassemble."""
    rs = repset if repset is not None else irreps_for(gs.group)
    bd = block_diagonalize(gs, rs)
    factors = []
    for k, block in enumerate(bd.blocks):
        with _naming_the_block(f"block {k + 1}", k):
            factors.append(factor_block(block))
    return assemble_full_factorization(bd, factors, fourier_matrix(rs))
