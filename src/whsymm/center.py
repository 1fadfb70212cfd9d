"""Factorization of center-algebra symbols.

A center symbol assigns one rational coefficient to each conjugacy
class.  Its matrix in the class-sum basis is simultaneously
diagonalized by the character table, each eigenvalue being

    Lambda_j = (1/d_j) * sum_i a_i h_i chi_j(K_i),

so the matrix factorization reduces to one scalar factorization per
class and two constant-scaled rearrangements of the character table.
Unlike the general group-algebra case, this route always produces a
complete factorization when every Lambda_j is invertible on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import MatrixFactorization, _CommonDen
from .errors import IllPosedSymbolError, NotInvertibleOnCircleError
from .groups import CenterStructure, FiniteGroup, center_structure, conjugacy_classes
from .ratmat import RationalMatrix
from .reps import CharacterTable, RepSet, center_fourier, character_table, irreps_for
from .scalar import ScalarFactorization, factor_rational
from .symbols import RationalSymbol


@dataclass(eq=False)
class CenterSymbol:
    """One rational coefficient per conjugacy class, in class order."""

    group: FiniteGroup
    coeffs: tuple[RationalSymbol, ...]

    def __post_init__(self) -> None:
        self.coeffs = tuple(self.coeffs)
        part = conjugacy_classes(self.group)
        if len(self.coeffs) != part.count:
            raise ValueError(
                f"group {self.group.name} has {part.count} conjugacy classes, "
                f"got {len(self.coeffs)} coefficients"
            )


@dataclass(eq=False)
class CenterFactorization:
    """A complete factorization of the class-basis matrix, plus the
    per-class scalar pieces it was assembled from."""

    factorization: MatrixFactorization
    eigenvalues: tuple[RationalSymbol, ...]
    scalar_factors: tuple[ScalarFactorization, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        return self.factorization.d


def assemble_center_matrix(
    cs: CenterSymbol, structure: CenterStructure | None = None
) -> RationalMatrix:
    """Matrix of the symbol acting on the class-sum basis:
    entry (m, j) = sum_i a_i c[i, j, m]."""
    st = structure if structure is not None else center_structure(cs.group)
    c = st.constants
    ctx = _CommonDen(cs.coeffs)
    weights = np.transpose(c, (0, 2, 1)).astype(complex)  # [i][m][j]
    return ctx.combine(weights)


def center_diagonalize(
    cs: CenterSymbol, ct: CharacterTable | None = None
) -> tuple[RationalSymbol, ...]:
    """Eigenvalues Lambda_j = (1/d_j) sum_i a_i h_i chi_j(K_i)."""
    table = ct if ct is not None else character_table(irreps_for(cs.group))
    part = table.partition
    h = np.asarray(part.sizes, dtype=complex)
    # weights[i, 0, j] = h_i chi_j(K_i) / d_j
    weights = (h[:, None] * table.values.T / table.values[:, 0].real)[:, None, :]
    return tuple(_CommonDen(cs.coeffs).combine(weights).rows[0])


def center_factorize(
    cs: CenterSymbol, repset: RepSet | None = None
) -> CenterFactorization:
    """Explicit factorization of the center-basis matrix.

    The matrix is F^-1 diag(Lambda_j) F with F the center Fourier matrix
    (center_fourier), so minus = F^-1 diag(Lambda_j_minus) and
    plus = diag(Lambda_j_plus) F; the diagonal middle carries one
    winding index per class.
    """
    rs = repset if repset is not None else irreps_for(cs.group)
    ct = character_table(rs)
    lambdas = center_diagonalize(cs, ct)
    facs = []
    for j, lam in enumerate(lambdas):
        try:
            facs.append(factor_rational(lam))
        except NotInvertibleOnCircleError as exc:
            raise IllPosedSymbolError(
                f"class eigenvalue {j + 1} is not invertible on the circle: {exc}",
                where=f"class {j + 1}",
            ) from exc

    fc = center_fourier(ct)
    minus = RationalMatrix.diag([f.minus for f in facs]).const_mul_left(fc.inverse)
    plus = RationalMatrix.diag([f.plus for f in facs]).const_mul_right(fc.matrix)
    d = tuple(f.index for f in facs)
    return CenterFactorization(
        MatrixFactorization(minus, d, plus), tuple(lambdas), tuple(facs)
    )
