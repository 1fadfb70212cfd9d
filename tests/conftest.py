"""Shared random corpora for the test suite.

All generators take an explicit numpy Generator so every test is
reproducible from its own seed.  Symbols are drawn with zeros and poles
well separated from the unit circle (radii in [0.2, 0.85] or [1.2, 3]),
and matrix-level draws are additionally conditioned so the eigenvalue
blocks keep their determinant roots at least MARGIN away from the
circle; random instances closer than that exercise ill-posedness paths,
which the error-handling tests cover deliberately instead.
"""

import numpy as np

from whsymm import (
    CenterSymbol,
    GroupSymbol,
    LaurentPoly,
    RationalSymbol,
    RationalMatrix,
    block_diagonalize,
    build_group,
    conjugacy_classes,
    irreps_for,
    poly_roots,
)

MARGIN = 1e-3


def random_symbol(rng, allow_den=True):
    """A rational symbol with at most two zeros and one pole."""
    roots = []
    if rng.random() < 0.7:
        roots.append(rng.uniform(0.2, 0.85) * np.exp(2j * np.pi * rng.random()))
    if rng.random() < 0.7:
        roots.append(rng.uniform(1.2, 3.0) * np.exp(2j * np.pi * rng.random()))
    lead = complex(rng.normal(), rng.normal()) or 1.0
    num = LaurentPoly.from_roots(roots, lead).shift(int(rng.integers(-1, 2)))
    den = LaurentPoly.const(1.0)
    if allow_den and rng.random() < 0.6:
        rad = rng.uniform(0.2, 0.85) if rng.random() < 0.5 else rng.uniform(1.2, 3.0)
        den = LaurentPoly.from_roots([rad * np.exp(2j * np.pi * rng.random())], 1.0)
    return RationalSymbol(num, den)


def richer_symbol(rng):
    """A wider-degree symbol for the scalar-engine tests."""
    roots = []
    for _ in range(int(rng.integers(0, 3))):
        roots.append(rng.uniform(0.2, 0.85) * np.exp(2j * np.pi * rng.random()))
    for _ in range(int(rng.integers(0, 3))):
        roots.append(rng.uniform(1.2, 3.0) * np.exp(2j * np.pi * rng.random()))
    lead = complex(rng.normal(), rng.normal()) or 1.0
    num = LaurentPoly.from_roots(roots, lead).shift(int(rng.integers(-2, 3)))
    den_roots = []
    for _ in range(int(rng.integers(0, 2))):
        rad = rng.uniform(0.2, 0.85) if rng.random() < 0.5 else rng.uniform(1.2, 3.0)
        den_roots.append(rad * np.exp(2j * np.pi * rng.random()))
    return RationalSymbol(num, LaurentPoly.from_roots(den_roots, 1.0))


def well_separated(bd, margin=MARGIN):
    """True when every block determinant keeps its roots off the circle."""
    for b in bd.blocks:
        d = b.det()
        if d.is_zero:
            return False
        for poly in (d.num, d.den):
            for root, _ in poly_roots(poly):
                if abs(abs(root) - 1.0) < margin:
                    return False
    return True


def random_group_symbol(group, rng):
    """One draw: denominators on at most two of the group's coefficients."""
    den_slots = set(rng.choice(group.order, size=min(2, group.order), replace=False))
    coeffs = [random_symbol(rng, i in den_slots) for i in range(group.order)]
    return GroupSymbol(group, coeffs)


def draw_group_symbol(group, rng, attempts=50):
    """A group symbol whose blocks are well separated from the circle."""
    for _ in range(attempts):
        gs = random_group_symbol(group, rng)
        bd = block_diagonalize(gs)
        if well_separated(bd):
            return gs, bd
    raise RuntimeError(f"no well-separated draw for {group.name} in {attempts} tries")


def random_center_symbol(group, rng):
    k = conjugacy_classes(group).count
    return CenterSymbol(group, [random_symbol(rng, i < 2) for i in range(k)])


def diag_power_eval(d, pts):
    """Samples of diag(t**d_i), shape (N, n, n)."""
    n = len(d)
    out = np.zeros((pts.size, n, n), dtype=complex)
    for i, k in enumerate(d):
        out[:, i, i] = pts**k
    return out


def dominant_symbol(spec, seed):
    """A group symbol whose identity coefficient dominates, so every
    block stays well-posed."""
    group = build_group(spec)
    rng = np.random.default_rng(seed)
    lead = RationalSymbol(LaurentPoly.from_roots([0.5, 3.0], 4.0), LaurentPoly.from_roots([0.2]))
    small = [
        RationalSymbol.from_poly(LaurentPoly(-1, 0.05 * rng.normal(size=3)))
        for _ in range(group.order - 1)
    ]
    return GroupSymbol(group, [lead] + small)


def dominant_cyclic_symbol(n, seed):
    return dominant_symbol({"kind": "cyclic", "n": n}, seed)


def planted_blocks(spec, seed, corner=None):
    """Random blocks Lambda_k for the irreps of a catalog group.  Every
    block is diagonal, but for corner="upper" each 2 x 2 block gets an
    upper-right entry, and for corner="lower" a lower-left one."""
    repset = irreps_for(build_group(spec))
    rng = np.random.default_rng(seed)
    z = RationalSymbol.zero()
    blocks = []
    for deg in repset.degrees:
        rows = [[random_symbol(rng) if i == j else z for j in range(deg)] for i in range(deg)]
        if deg == 2 and corner is not None:
            i, j = (0, 1) if corner == "upper" else (1, 0)
            rows[i][j] = random_symbol(rng)
        blocks.append(RationalMatrix(rows))
    return repset, blocks
