"""Dense matrices with rational-symbol entries.

Kept deliberately small: matrix product, product with constant complex
matrices, grid evaluation, and an exact determinant.  Determinants are
expanded by minors with memoization on column subsets; sums of terms
whose entries share a denominator stay over that denominator, which is
what keeps determinant degrees under control for the block matrices
produced elsewhere in the package (their columns share denominators by
construction).
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import PoleOnGridError
from .symbols import CircleGrid, LaurentPoly, RationalSymbol

Zero = RationalSymbol.zero()


class RationalMatrix:
    """Rectangular matrix of RationalSymbol entries."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows) -> None:
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, RationalSymbol):
                    raise TypeError(f"entries must be RationalSymbol, got {type(e).__name__}")
        self.rows = rows
        self.shape = (len(rows), width)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.diag([RationalSymbol.const(1.0)] * n)

    @staticmethod
    def diag(entries) -> "RationalMatrix":
        """Square matrix with the given diagonal and Zero elsewhere."""
        entries = list(entries)
        n = len(entries)
        return RationalMatrix(
            [[e if i == j else Zero for j in range(n)] for i, e in enumerate(entries)]
        )

    @staticmethod
    def from_const(mat) -> "RationalMatrix":
        m = np.asarray(mat, dtype=complex)
        return RationalMatrix(
            [[RationalSymbol.const(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]
        )

    @staticmethod
    def block_diag(blocks: list["RationalMatrix"]) -> "RationalMatrix":
        n = sum(b.shape[0] for b in blocks)
        rows = [[Zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.shape[0]):
                for j in range(b.shape[1]):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.shape[0]
        return RationalMatrix(rows)

    def transpose(self) -> "RationalMatrix":
        r, c = self.shape
        return RationalMatrix([[self.rows[i][j] for i in range(r)] for j in range(c)])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        r, k = self.shape
        k2, c = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = []
        for i in range(r):
            row = []
            for j in range(c):
                acc = Zero
                for m in range(k):
                    acc = acc + self.rows[i][m] * other.rows[m][j]
                row.append(acc)
            out.append(row)
        return RationalMatrix(out)

    def const_mul_left(self, mat) -> "RationalMatrix":
        """Product C @ self with a constant complex matrix C."""
        m = np.asarray(mat, dtype=complex)
        if m.shape[1] != self.shape[0]:
            raise ValueError(f"shape mismatch {m.shape} @ {self.shape}")
        cols = _nonzero_lines(zip(*self.rows))
        return RationalMatrix(
            [[_scaled_sum(col, row) for col in cols] for row in m.tolist()]
        )

    def const_mul_right(self, mat) -> "RationalMatrix":
        """Product self @ C with a constant complex matrix C."""
        m = np.asarray(mat, dtype=complex)
        if m.shape[0] != self.shape[1]:
            raise ValueError(f"shape mismatch {self.shape} @ {m.shape}")
        cols = m.T.tolist()
        return RationalMatrix(
            [[_scaled_sum(row, col) for col in cols] for row in _nonzero_lines(self.rows)]
        )

    def eval_grid(self, grid: CircleGrid | np.ndarray) -> np.ndarray:
        """Evaluate entrywise; returns an array of shape (N, rows, cols)."""
        return GridEvaluator(self)(grid.points if isinstance(grid, CircleGrid) else grid)

    def det(self) -> RationalSymbol:
        """Exact determinant by minor expansion with memoized subsets."""
        r, c = self.shape
        if r != c:
            raise ValueError("determinant of a non-square matrix")
        memo: dict[int, RationalSymbol] = {}

        def minor(cols: int) -> RationalSymbol:
            # cols is a bitmask of still-active columns; row index is
            # determined by how many columns have been consumed
            if cols == 0:
                return RationalSymbol.const(1.0)
            got = memo.get(cols)
            if got is not None:
                return got
            i = r - bin(cols).count("1")
            acc = Zero
            sign = 1.0
            rem = cols
            while rem:
                low = rem & -rem
                j = low.bit_length() - 1
                e = self.rows[i][j]
                if not e.is_zero:
                    term = e * minor(cols ^ low)
                    acc = acc + (term if sign > 0 else -term)
                sign = -sign
                rem ^= low
            memo[cols] = acc
            return acc

        return minor((1 << r) - 1)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.shape[0]}x{self.shape[1]})"


def _nonzero_lines(lines) -> list[list[tuple[int, RationalSymbol]]]:
    """Each line's structurally nonzero entries with their positions."""
    return [[(p, e) for p, e in enumerate(line) if not e.is_zero] for line in lines]


def _scaled_sum(line, coeffs) -> RationalSymbol:
    """sum_p coeffs[p] * e over the (p, e) of a line, in ascending p.

    Zero entries and zero coefficients are skipped: Zero + x returns x,
    so the sum is the same object-for-object as the full n-term loop.
    """
    acc = Zero
    for p, e in line:
        c = coeffs[p]
        if c != 0:
            acc = acc + e.scale(c)
    return acc


class GridEvaluator:
    """Pointwise evaluation plan for one RationalMatrix.

    The plan evaluates each distinct source entry once and each distinct
    denominator once, by Horner's rule over all of them together, then
    gathers the values into a contiguous (N, rows, cols) buffer.  An
    entry made by ``RationalSymbol.scale`` is its source's values times
    its factor (the stitched factors of an abelian group have n sources
    for n^2 entries); every other entry is its own source, evaluated with
    the arithmetic of ``eval_on_grid``.  Built once per matrix, it can
    then be applied to any number of point arrays.

    The plan also shows whether a square matrix is C diag(s(t)), every
    column's nonzero entries being scaled copies of one source s_j, or
    diag(s(t)) C, the same for every row, with C the constant matrix of
    scale factors.  The stitched factors F* diag(lambda) and
    diag(lambda) F of an abelian or center symbol have that shape; a
    target's columns hold n distinct sources and a parsed matrix has no
    scaled entries, so theirs is dense.  For the two shapes ``slogdet``
    uses det(C) prod_j s_j(t), which is the determinant itself, not an
    approximation: det(C) is factored once and each point costs O(n).
    """

    __slots__ = ("shape", "where", "factor", "horner", "runs", "den_floor", "product")

    def __init__(self, m: RationalMatrix) -> None:
        based = [None if e.is_zero else e._base or (e, 1.0) for row in m.rows for e in row]
        distinct: dict[int, RationalSymbol] = {}
        for b in based:
            if b is not None:
                distinct.setdefault(id(b[0]), b[0])
        dens: dict[bytes, np.ndarray] = {}
        for e in distinct.values():
            dens.setdefault(e.den.coeffs.tobytes(), e.den.coeffs)
        den_slot = {key: d for d, key in enumerate(dens)}

        def group(e: RationalSymbol) -> tuple[int, int]:
            return den_slot[e.den.coeffs.tobytes()], e.num.min_deg

        # Columns: the distinct sources grouped by denominator and power
        # of t, then one zero column, then the distinct denominators.
        entries = sorted(distinct.values(), key=group)
        zero = len(entries)
        slot = {id(e): u for u, e in enumerate(entries)}
        self.shape = m.shape
        self.where = np.array(
            [zero if b is None else slot[id(b[0])] for b in based], dtype=np.intp
        )
        factor = np.array([1.0 if b is None else b[1] for b in based], dtype=complex)
        # with every factor 1 the gather alone is the result, bit for bit
        self.factor = None if np.all(factor == 1.0) else factor
        self.product = _product_plan(
            self.where.reshape(m.shape), factor.reshape(m.shape), zero
        )
        self.runs: list[tuple[int, int, int, int]] = []  # (power, den column, lo, hi)
        lo = 0
        for (d, k), run in itertools.groupby(entries, key=group):
            hi = lo + len(list(run))
            self.runs.append((k, zero + 1 + d, lo, hi))
            lo = hi
        self.den_floor = np.array(
            [1e-13 * max(1.0, float(np.max(np.abs(c)))) for c in dens.values()]
        )
        # Horner rows, highest power first; shorter polynomials are padded
        # with leading zeros, which leave np.polyval's recurrence unchanged
        polys = [e.num.coeffs for e in entries] + [np.zeros(0)] + list(dens.values())
        depth = max(1, max(c.size for c in polys))
        self.horner = np.zeros((depth, len(polys)), dtype=complex)
        for j, c in enumerate(polys):
            self.horner[depth - c.size :, j] = c[::-1]

    @property
    def bytes_per_point(self) -> int:
        """Bytes held per evaluation point while a call or ``slogdet``
        runs: the Horner table over the plan's columns, the pole test,
        and the larger of the output buffer, which the factors scale in
        place, and the product path's n source values with their moduli
        and logarithms."""
        values = max(self.where.size, 2 * self.shape[0])
        return 16 * (values + self.horner.shape[1] + self.den_floor.size + 2)

    def _columns(self, pts: np.ndarray) -> np.ndarray:
        """Values of every plan column at pts, one row per column, so
        every operation runs along the points."""
        acc = np.empty((self.horner.shape[1], pts.size), dtype=complex)
        acc[:] = self.horner[0][:, None]
        for row in self.horner[1:]:
            acc *= pts
            acc += row[:, None]
        bad = np.abs(acc[acc.shape[0] - self.den_floor.size :]) < self.den_floor[:, None]
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            raise PoleOnGridError(f"denominator vanishes at grid point {pts[j]:.6g}")
        for k, d, lo, hi in self.runs:
            if k != 0:
                acc[lo:hi] *= pts**k
            acc[lo:hi] /= acc[d]
        return acc

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex).reshape(-1)
        out = self._columns(pts).T[:, self.where]
        if self.factor is not None:
            out *= self.factor
        return out.reshape(pts.size, *self.shape)

    def slogdet(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sign, log|det|) of the matrix at each point, as
        ``np.linalg.slogdet`` of the samples gives them: from det(C) and
        the n source values for C diag(s) and diag(s) C, by LU of the
        gathered samples for every other matrix."""
        pts = np.asarray(pts, dtype=complex).reshape(-1)
        if self.product is None:
            return tuple(np.linalg.slogdet(self(pts)))
        src, c_sign, c_logabs = self.product
        s = self._columns(pts)[src]
        mod = np.abs(s)
        with np.errstate(divide="ignore"):
            logabs = c_logabs + np.log(mod).sum(axis=0)
        # a zero sample keeps phase 0, as np.linalg.slogdet gives it
        np.divide(s, mod, out=s, where=mod > 0)
        return c_sign * s.prod(axis=0), logabs


def _product_plan(where: np.ndarray, factor: np.ndarray, zero: int):
    """(source row per line, det(C) sign, log|det(C)|) when the square
    matrix of source slots ``where`` is C diag(s), each column's nonzero
    entries on one source, or diag(s) C, the same for each row; None
    otherwise.  C holds the entries' factors and 0 where ``where`` is
    the zero slot; an all-zero line gets the zero slot as its source.

    A det(C) below 1e-13 of Hadamard's bound (the smaller of the
    products of C's row and column norms) is LU roundoff on a singular
    C, so it is taken as 0: LU of the dense samples would show that
    roundoff as noise, and the determinant oracle declines either way.
    """
    n, cols = where.shape
    if n != cols:
        return None
    for lines in (where.T, where):
        first = lines[np.arange(n), np.argmax(lines != zero, axis=1)]
        if np.all((lines == first[:, None]) | (lines == zero)):
            c = np.where(where == zero, 0.0, factor)
            sign, logabs = np.linalg.slogdet(c)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = min(np.sum(np.log(np.linalg.norm(c, axis=a))) for a in (0, 1))
                singular = not logabs - bound > np.log(1e-13)
            if singular:
                sign, logabs = 0.0, -np.inf
            return first, complex(sign), float(logabs)
    return None
