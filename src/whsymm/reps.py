"""Irreducible unitary representations and Fourier matrices.

For every catalog group we carry one fixed complete set of irreducible
unitary representations; the basis of each representation is frozen
because the Fourier matrix built from it enters emitted documents.
Custom groups may supply their own set, which goes through the same
validation as the built-in ones.

Degree-1 entries are exact; the two-dimensional representation of s3
uses eps = (-1 + i*sqrt(3))/2 (a primitive cube root of unity), so its
entries are exact up to one floating literal.  q8's degree-2 irrep is
the quaternion model that defines its Cayley table
(``groups.Q8_MATRICES``), and a4's degree-3 irrep is the rotation group
of the tetrahedron, read off a4's permutations of its vertices
(``groups.A4_PERMUTATIONS``); both are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import RepValidationError, UnsupportedGroupError, WhsymmError
from .groups import A4_PERMUTATIONS, Q8_MATRICES, ConjugacyPartition, FiniteGroup
from .groups import build_group, conjugacy_classes
from .verify import UNITARY_TOL, Check, VerificationReport

REPSET_TOL = 1e-10

EPS = complex((-1.0 + 1j * np.sqrt(3.0)) / 2.0)  # primitive cube root of unity


@dataclass(eq=False)
class Irrep:
    """One irreducible unitary representation: matrices[x] is the image
    of group element x, shape (order, degree, degree)."""

    degree: int
    matrices: np.ndarray

    def __post_init__(self) -> None:
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.ndim != 3 or self.matrices.shape[1:] != (self.degree, self.degree):
            raise RepValidationError(
                f"matrices for a degree-{self.degree} representation must have "
                f"shape (n, {self.degree}, {self.degree}), got {self.matrices.shape}"
            )


@dataclass(eq=False)
class RepSet:
    """A complete set of irreps for a group, in a fixed order."""

    group: FiniteGroup
    irreps: tuple[Irrep, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(r.degree for r in self.irreps)


@dataclass(eq=False)
class CharacterTable:
    """values[k, j] = character of irrep k on class j."""

    values: np.ndarray
    partition: ConjugacyPartition
    degrees: tuple[int, ...]


@dataclass(eq=False)
class FourierMatrixGroup:
    """The unitary n x n matrix of symmetry-adapted rows.

    Rows come in blocks, one block per irrep: the block for an irrep of
    degree d holds the d^2 scaled matrix-element functions
    sqrt(d) * phi_ij(g), stacked column-major in (i, j), all divided by
    sqrt(n).  ``row_blocks[k]`` is the slice of rows for irrep k.
    """

    matrix: np.ndarray
    degrees: tuple[int, ...]
    row_blocks: tuple[slice, ...]


@dataclass(eq=False)
class FourierMatrixCenter:
    """Diagonalizer of the center algebra: matrix[i, j] = h_j chi_i(K_j)
    / sqrt(n) and inverse[i, j] = conj(chi_j(K_i)) / sqrt(n)."""

    matrix: np.ndarray
    inverse: np.ndarray
    partition: ConjugacyPartition


# ----------------------------------------------------------------------
# catalog representation sets
# ----------------------------------------------------------------------


def _char_irreps(rows: np.ndarray) -> tuple[Irrep, ...]:
    return tuple(Irrep(1, np.asarray(row, dtype=complex).reshape(-1, 1, 1)) for row in rows)


def _cyclic_irreps(n: int) -> tuple[Irrep, ...]:
    # exp(2 pi i (jk mod n) / n): powers of a rounded omega up to (n - 1)^2
    # drift past the unitarity tolerance from n = 192 on
    j = np.arange(n)
    return _char_irreps(np.exp(2j * np.pi * (np.outer(j, j) % n) / n))


def _klein4_irreps() -> tuple[Irrep, ...]:
    rows = np.array(
        [
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ],
        dtype=complex,
    )
    return _char_irreps(rows)


def _s3_irreps() -> tuple[Irrep, ...]:
    trivial = np.ones(6, dtype=complex)
    sign = np.array([1, -1, -1, -1, 1, 1], dtype=complex)
    e, ei = EPS, EPS.conjugate()  # eps and eps^-1
    two = np.array(
        [
            [[1, 0], [0, 1]],
            [[0, 1], [1, 0]],
            [[0, e], [ei, 0]],
            [[0, ei], [e, 0]],
            [[e, 0], [0, ei]],
            [[ei, 0], [0, e]],
        ],
        dtype=complex,
    )
    return _char_irreps(np.array([trivial, sign]))[:2] + (Irrep(2, two),)


def _q8_irreps() -> tuple[Irrep, ...]:
    chars = np.array(
        [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, -1, -1, -1, -1],
            [1, 1, -1, -1, 1, 1, -1, -1],
            [1, 1, -1, -1, -1, -1, 1, 1],
        ],
        dtype=complex,
    )
    return _char_irreps(chars) + (Irrep(2, Q8_MATRICES),)


#: the tetrahedron's vertices v_0..v_3 as columns
_TETRAHEDRON = np.array([[-1, -1, 1, 1], [-1, 1, -1, 1], [1, -1, -1, 1]])


def _a4_irreps(group: FiniteGroup) -> tuple[Irrep, ...]:
    """Three characters through the quotient of order 3, and the exact
    rotation irrep R_g = V P_g V^T / 4, which takes v_j to v_g(j)."""
    part = conjugacy_classes(group)
    omega = np.exp(2j * np.pi / 3)
    # the quotient by the double-transposition class is cyclic of order 3;
    # classes 2 and 3 (the two 3-cycle classes) map to omega and omega^2
    nu = np.zeros(group.order, dtype=np.int64)
    for x in part.classes[2]:
        nu[x] = 1
    for x in part.classes[3]:
        nu[x] = 2
    chars = np.array([np.ones(group.order), omega**nu, omega ** (2 * nu)])
    rotations = _TETRAHEDRON[:, A4_PERMUTATIONS].transpose(1, 0, 2) @ _TETRAHEDRON.T / 4
    return _char_irreps(chars) + (Irrep(3, rotations),)


def _product_irreps(group: FiniteGroup) -> tuple[Irrep, ...]:
    # products are folded pairwise at construction, so the spec always
    # has exactly two factors (the left one possibly itself a product)
    specs = group.spec["factors"]
    g1 = build_group(specs[0])
    g2 = build_group(specs[1])
    r1 = irreps_for(g1)
    r2 = irreps_for(g2)
    out = []
    for ir1 in r1.irreps:
        for ir2 in r2.irreps:
            # kron(A_i1, B_i2) for every pair of elements, i1 major
            d = ir1.degree * ir2.degree
            mats = np.einsum("iab,jcd->ijacbd", ir1.matrices, ir2.matrices).reshape(-1, d, d)
            out.append(Irrep(d, mats))
    return tuple(out)


# (Cayley table, validated irreps) of each catalog group, by its spec
_CATALOG_IRREPS: dict[str, tuple[np.ndarray, tuple[Irrep, ...]]] = {}


def irreps_for(group: FiniteGroup) -> RepSet:
    """The frozen representation set of a catalog group, bound to it.

    The set is built and validated once per group spec and Cayley
    table, and then shared: its matrices are read-only.  Custom groups
    have no canonical set; supply one explicitly and run
    validate_repset on it instead.
    """
    key = json.dumps(group.spec, sort_keys=True)
    cached = _CATALOG_IRREPS.get(key)
    if cached is not None and np.array_equal(cached[0], group.cayley):
        return RepSet(group, cached[1])
    kind = group.spec.get("kind")
    if kind == "cyclic":
        irreps = _cyclic_irreps(group.order)
    elif kind == "klein4":
        irreps = _klein4_irreps()
    elif kind == "s3":
        irreps = _s3_irreps()
    elif kind == "q8":
        irreps = _q8_irreps()
    elif kind == "a4":
        irreps = _a4_irreps(group)
    elif kind == "product":
        irreps = _product_irreps(group)
    else:
        raise UnsupportedGroupError(
            f"no built-in representation set for group kind {kind!r}"
        )
    rs = RepSet(group, irreps)
    report = validate_repset(group, rs)
    if not report.passed:
        raise WhsymmError(
            f"catalog representation set for {group.name} failed validation:\n"
            + report.to_text()
        )
    for r in irreps:
        r.matrices.flags.writeable = False
    _CATALOG_IRREPS[key] = (group.cayley, irreps)
    return rs


def validate_repset(group: FiniteGroup, repset: RepSet, tol: float = REPSET_TOL) -> VerificationReport:
    """Validate completeness, the homomorphism property, unitarity, and
    Schur orthogonality of a representation set against its group."""
    checks: list[Check] = []
    n = group.order
    part = conjugacy_classes(group)

    shape_ok = all(
        r.matrices.shape == (n, r.degree, r.degree) for r in repset.irreps
    )
    checks.append(Check("shapes", 0.0 if shape_ok else float("inf"), 0.0))
    if not shape_ok:
        return VerificationReport(tuple(checks), subject="representation set")

    checks.append(
        Check("class_count", float(abs(len(repset.irreps) - part.count)), 0.0)
    )
    checks.append(
        Check(
            "degree_sum",
            float(abs(sum(r.degree**2 for r in repset.irreps) - n)),
            0.0,
        )
    )

    res = max(
        float(np.max(np.abs(r.matrices[0] - np.eye(r.degree)))) for r in repset.irreps
    )
    checks.append(Check("identity", res, tol))

    res = 0.0
    for r in repset.irreps:
        m = r.matrices
        prod = np.einsum("iab,jbc->ijac", m, m)
        res = max(res, float(np.max(np.abs(prod - m[group.cayley]))))
    checks.append(Check("homomorphism", res, tol))

    res = max(
        float(
            np.max(
                np.abs(
                    np.einsum("iab,icb->iac", r.matrices, r.matrices.conj())
                    - np.eye(r.degree)
                )
            )
        )
        for r in repset.irreps
    )
    checks.append(Check("unitarity", res, tol))

    m = _fourier_rows(repset, n)
    gram = m @ m.conj().T / n
    res = float(np.max(np.abs(gram - np.eye(m.shape[0]))))
    checks.append(Check("orthogonality", res, tol))

    return VerificationReport(tuple(checks), subject="representation set")


def _fourier_rows(repset: RepSet, n: int) -> np.ndarray:
    """sqrt(d) * phi_ij(g) for each irrep, (i, j) column-major: the
    Fourier matrix before its 1 / sqrt(n)."""
    return np.vstack(
        [
            np.sqrt(r.degree) * r.matrices.transpose(0, 2, 1).reshape(n, r.degree * r.degree).T
            for r in repset.irreps
        ]
    )


def character_table(repset: RepSet, partition: ConjugacyPartition | None = None) -> CharacterTable:
    """Characters on conjugacy classes, with an internal assertion that
    every member of a class gives the same trace."""
    part = partition if partition is not None else conjugacy_classes(repset.group)
    s = part.count
    values = np.zeros((len(repset.irreps), s), dtype=complex)
    for k, r in enumerate(repset.irreps):
        traces = np.einsum("gaa->g", r.matrices)
        for j, cls in enumerate(part.classes):
            tv = traces[list(cls)]
            if np.max(np.abs(tv - tv[0])) > 1e-12:
                raise RepValidationError(
                    f"character of irrep {k} is not constant on class {j}"
                )
            values[k, j] = tv[0]
    return CharacterTable(values, part, repset.degrees)


def fourier_matrix(repset: RepSet) -> FourierMatrixGroup:
    """Unitary change of basis that block-diagonalizes every group-symbol
    matrix over this group."""
    n = repset.group.order
    row_slices = []
    start = 0
    for d in repset.degrees:
        row_slices.append(slice(start, start + d * d))
        start += d * d
    if start != n:
        raise RepValidationError(
            f"representation set is incomplete: sum of squared degrees is {start}, not {n}"
        )
    f = _fourier_rows(repset, n) / np.sqrt(n)
    res = float(np.max(np.abs(f @ f.conj().T - np.eye(n))))
    if res > UNITARY_TOL:
        raise RepValidationError(f"Fourier matrix is not unitary: residual {res:.3g}")
    return FourierMatrixGroup(f, repset.degrees, tuple(row_slices))


def center_fourier(ct: CharacterTable, partition: ConjugacyPartition | None = None) -> FourierMatrixCenter:
    """Diagonalizer of the center algebra built from the character table."""
    part = partition if partition is not None else ct.partition
    n = sum(part.sizes)
    h = np.asarray(part.sizes, dtype=float)
    f = ct.values * h[None, :] / np.sqrt(n)
    finv = ct.values.conj().T / np.sqrt(n)
    res = float(np.max(np.abs(f @ finv - np.eye(part.count))))
    if res > UNITARY_TOL:
        raise RepValidationError(
            f"center Fourier matrix fails F F^-1 = I: residual {res:.3g}"
        )
    return FourierMatrixCenter(f, finv, part)
