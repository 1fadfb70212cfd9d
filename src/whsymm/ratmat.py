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
from .symbols import CircleGrid, LaurentPoly, RationalSymbol, Zero


class RationalMatrix:
    """Rectangular matrix of RationalSymbol entries.

    ``pieces`` records how a square matrix was built, when it was built
    from square pieces whose determinants multiply to its own: the
    constant C and the matrix of ``const_mul_left`` and
    ``const_mul_right``, the blocks of ``block_diag`` and the entries of
    ``diag``, each piece once per occurrence.  A piece is a constant
    array, a RationalMatrix or a RationalSymbol (a 1 x 1 piece).  It is
    None for a matrix given by its rows, and ``RationalMatrix(m.rows)``
    is a copy of m without it.
    """

    __slots__ = ("rows", "shape", "pieces")

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
        self.pieces = None

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
        out = RationalMatrix(
            [[e if i == j else Zero for j in range(n)] for i, e in enumerate(entries)]
        )
        out.pieces = tuple(entries)
        return out

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
        return RationalMatrix(rows)._built_from(*blocks)

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
        cols = [_combined_copies(col, m.T) for col in zip(*self.rows)]
        return RationalMatrix(zip(*cols))._built_from(m, self)

    def const_mul_right(self, mat) -> "RationalMatrix":
        """Product self @ C with a constant complex matrix C."""
        m = np.asarray(mat, dtype=complex)
        if m.shape[0] != self.shape[1]:
            raise ValueError(f"shape mismatch {self.shape} @ {m.shape}")
        rows = [_combined_copies(row, m) for row in self.rows]
        return RationalMatrix(rows)._built_from(self, m)

    def _built_from(self, *pieces) -> "RationalMatrix":
        """self with ``pieces`` recorded when all of them are square."""
        if all(p.shape[0] == p.shape[1] for p in pieces):
            self.pieces = pieces
        return self

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


def _combined_copies(line, c: np.ndarray) -> list[RationalSymbol]:
    """[sum_p c[p, k] * line[p] for each column k of c].

    Each nonzero entry of the line makes all its scaled copies in one
    ``scaled_copies`` call, and each sum adds them in ascending p.  Zero
    entries and zero factors are skipped (Zero + x returns x, so the
    first entry's copies are taken as they are), so every sum is the
    same object-for-object as the full n-term loop of ``scale`` and
    ``+``.
    """
    acc = None
    for p, e in enumerate(line):
        if not e.is_zero:
            copies = e.scaled_copies(c[p])
            acc = copies if acc is None else [a + b for a, b in zip(acc, copies)]
    return [Zero] * c.shape[1] if acc is None else acc


class GridEvaluator:
    """Pointwise evaluation plan for one RationalMatrix.

    The plan evaluates each distinct source entry once and each distinct
    denominator once, by Horner's rule over all of them together, then
    gathers the values into a contiguous (N, rows, cols) buffer.  An
    entry made by ``RationalSymbol.scale`` is its source's values times
    its factor (the stitched factors of an abelian group have n sources
    for n^2 entries); every other entry is its own source, evaluated with
    the arithmetic of ``eval_on_grid``.  Built once per matrix, it can
    then be applied to any number of point arrays.  It reads the entries
    alone; a determinant is taken from the matrix's record of how it was
    built (``pieces``), by the verifier.
    """

    __slots__ = ("shape", "where", "factor", "horner", "runs", "den_floor")

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
        """Bytes held per evaluation point while a call runs: the Horner
        table over the plan's columns, the pole test, and the output
        buffer, which the factors scale in place."""
        return 16 * (self.where.size + self.horner.shape[1] + self.den_floor.size + 2)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=complex).reshape(-1)
        # every plan column's values, one row per column, so every
        # operation runs along the points
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
        # C order, points first, so that a product of samples reads them contiguously
        out = np.take(acc.T, self.where, axis=1)
        if self.factor is not None:
            out *= self.factor
        return out.reshape(pts.size, *self.shape)
