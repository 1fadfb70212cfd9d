"""Dense matrices with rational-symbol entries.

Kept deliberately small: matrix product, product with constant complex
matrices, grid evaluation, and an exact determinant.  A matrix built
from constants, blocks or diagonal entries keeps only its pieces, and
grid evaluation and the verifier read those.  Determinants are
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

    ``pieces`` records how a square matrix was built from square pieces
    whose determinants multiply to its own: (C, A) for ``const_mul_left``
    with a constant C, (A, C) for ``const_mul_right``, the blocks of
    ``block_diag`` and the entries of ``diag`` (1 x 1 pieces), each once
    per occurrence.  It is the one record kept: such a matrix builds its
    ``rows`` from it the first time they are read.  ``pieces`` is None
    for a matrix given by its rows; ``RationalMatrix(m.rows)`` is a copy
    of m without it.
    """

    __slots__ = ("_rows", "shape", "pieces")

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
        self._rows = rows
        self.shape = (len(rows), width)
        self.pieces = None

    @staticmethod
    def _built_from(shape: tuple[int, int], *pieces) -> "RationalMatrix":
        """The matrix built from ``pieces``, recorded when all of them
        are square, else with its rows built now and no record."""
        if not pieces:
            raise ValueError("matrix must be nonempty")
        out = RationalMatrix.__new__(RationalMatrix)
        out._rows, out.shape, out.pieces = None, shape, pieces
        if not all(isinstance(p, RationalSymbol) or p.shape[0] == p.shape[1] for p in pieces):
            out._rows, out.pieces = _rows_from(out), None
        return out

    @property
    def rows(self) -> list[list[RationalSymbol]]:
        if self._rows is None:
            self._rows = _rows_from(self)
        return self._rows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix.diag([RationalSymbol.const(1.0)] * n)

    @staticmethod
    def diag(entries) -> "RationalMatrix":
        """Square matrix with the given diagonal and Zero elsewhere."""
        entries = tuple(entries)
        return RationalMatrix._built_from((len(entries), len(entries)), *entries)

    @staticmethod
    def from_const(mat) -> "RationalMatrix":
        m = np.asarray(mat, dtype=complex)
        return RationalMatrix(
            [[RationalSymbol.const(m[i, j]) for j in range(m.shape[1])] for i in range(m.shape[0])]
        )

    @staticmethod
    def block_diag(blocks: list["RationalMatrix"]) -> "RationalMatrix":
        n = sum(b.shape[0] for b in blocks)
        return RationalMatrix._built_from((n, n), *blocks)

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
        return RationalMatrix._built_from((m.shape[0], self.shape[1]), m, self)

    def const_mul_right(self, mat) -> "RationalMatrix":
        """Product self @ C with a constant complex matrix C."""
        m = np.asarray(mat, dtype=complex)
        if m.shape[0] != self.shape[1]:
            raise ValueError(f"shape mismatch {self.shape} @ {m.shape}")
        return RationalMatrix._built_from((self.shape[0], m.shape[1]), self, m)

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


def _rows_from(m: RationalMatrix) -> list[list[RationalSymbol]]:
    """The rows of a matrix with a record: C @ A for (C, A), A @ C for
    (A, C), else its pieces on the diagonal (layout) and Zero elsewhere."""
    product = _const_factor(m.pieces)
    if product is not None:
        c, a, left = product
        if left:
            return [list(r) for r in zip(*(_combined(col, c.T) for col in zip(*a.rows)))]
        return [_combined(row, c) for row in a.rows]
    n = m.shape[0]
    rows = [[Zero] * n for _ in range(n)]
    for pos, e in layout(m)[1].items():
        rows[pos // n][pos % n] = e
    return rows


def _combined(line, c: np.ndarray) -> list[RationalSymbol]:
    """[sum_p c[p, k] * line[p] for each column k of c]: the n-term loop of
    ``scale`` and ``+`` in ascending p, skipping zero entries and factors
    (Zero + x returns x), each copy over its entry's own denominator and
    span with coefficients ``coeffs * c``, not put in canonical form again."""
    acc = [Zero] * c.shape[1]
    for e, factors in zip(line, c):
        for k, f in enumerate(() if e.is_zero else factors.tolist()):
            if f != 0:
                copy = RationalSymbol.__new__(RationalSymbol)
                copy.num, copy.den = LaurentPoly.__new__(LaurentPoly), e.den
                copy.num.min_deg, copy.num.coeffs, copy.num._roots = e.num.min_deg, e.num.coeffs * f, None
                acc[k] = acc[k] + copy
    return acc


def layout(m: RationalMatrix):
    """(consts, cells, diagonal): m's record read as constant factors,
    (C, True) on the left and (C, False) on the right, outermost first,
    around a core of ``diag`` entries and ``block_diag`` blocks.
    ``cells`` maps the flat position of each core entry that is nonzero
    to it, read from the rows of a block with no record or a product's;
    ``diagonal``: every such block is 1 x 1 and has no record."""
    consts = []
    while (product := _const_factor(m.pieces)) is not None:
        c, m, left = product
        consts.append((c, left))
    width = m.shape[1]
    cells: dict[int, RationalSymbol] = {}
    diagonal = True

    def place(piece, off: int) -> int:
        nonlocal diagonal
        if isinstance(piece, RationalSymbol):
            if not piece.is_zero:
                cells[off * width + off] = piece
            return 1
        if piece.pieces is not None and _const_factor(piece.pieces) is None:
            for p in piece.pieces:
                off += place(p, off)
            return piece.shape[0]
        diagonal = diagonal and piece.pieces is None and piece.shape == (1, 1)
        for i, row in enumerate(piece.rows):
            for j, e in enumerate(row):
                if not e.is_zero:
                    cells[(off + i) * width + off + j] = e
        return piece.shape[0]

    place(m, 0)
    return consts, cells, diagonal


class GridEvaluator:
    """Pointwise evaluation plan for one RationalMatrix, read from its
    record (``layout``): the samples of the core, times each constant C
    of C A or A C from the innermost out.  The core's entries are
    evaluated together, each distinct entry and each distinct
    denominator once, by Horner's rule with the arithmetic of
    ``eval_on_grid``, and gathered into a contiguous (N, rows, cols)
    buffer; a denominator that vanishes at a point raises
    PoleOnGridError.  Built once per matrix, a plan can then be applied
    to any number of point arrays.
    """

    __slots__ = ("shape", "consts", "diagonal", "where", "horner", "runs", "den_floor")

    def __init__(self, m: RationalMatrix) -> None:
        self.shape = m.shape
        self.consts, cells, diagonal = layout(m)
        self.diagonal = diagonal and bool(self.consts)
        distinct = {id(e): e for e in cells.values()}
        dens = {e.den.coeffs.tobytes(): e.den.coeffs for e in distinct.values()}
        den_slot = {key: d for d, key in enumerate(dens)}

        def group(e: RationalSymbol) -> tuple[int, int]:
            return den_slot[e.den.coeffs.tobytes()], e.num.min_deg

        # Columns: the distinct entries grouped by denominator and power
        # of t, then one zero column, then the distinct denominators.
        entries = sorted(distinct.values(), key=group)
        zero = len(entries)
        slot = {id(e): u for u, e in enumerate(entries)}
        self.where = np.full(m.shape[0] * m.shape[1], zero, dtype=np.intp)
        self.where[list(cells)] = [slot[id(e)] for e in cells.values()]
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
        table over the plan's columns, the pole test, the output buffer
        and one product with each constant."""
        return 16 * (self.where.size * (1 + len(self.consts)) + self.horner.shape[1] + self.den_floor.size + 2)

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
        consts = self.consts
        if self.diagonal:
            # C diag(v) scales the columns of C (diag(v) C its rows), so
            # each sample is C_ij v_j, with no sum
            v = np.take(acc.T, self.where[:: self.shape[1] + 1], axis=1)
            c, left = consts[-1]
            out, consts = (v[:, None, :] * c if left else v[:, :, None] * c), consts[:-1]
        else:
            # C order, points first, so that a product of samples reads them contiguously
            out = np.take(acc.T, self.where, axis=1).reshape(pts.size, *self.shape)
        for c, left in reversed(consts):
            # A C is one (N rows, n) by (n, n) product, which gives each
            # point the bits of its own; C A stays one product per point,
            # whose transposed single product differs in its last bits
            out = c @ out if left else (out.reshape(-1, out.shape[-1]) @ c).reshape(out.shape)
        return out


def _const_factor(pieces) -> tuple[np.ndarray, RationalMatrix, bool] | None:
    """(C, A, left) when ``pieces`` record C A (left) or A C, else None."""
    if pieces is not None and isinstance(pieces[0], np.ndarray):
        return pieces[0], pieces[1], True
    if pieces is not None and isinstance(pieces[-1], np.ndarray):
        return pieces[-1], pieces[0], False
    return None
