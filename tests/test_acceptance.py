"""Acceptance suite: the package's shipped guarantees, one test per criterion.

Each criterion is a single test whose pass/fail line in the verbose run
is the acceptance record; on success it also prints the measured figure
and enforces the stated runtime budget.  Golden values are the
closed-form tables and formulas for the Klein four-group, S3 and Q8;
the randomized criteria draw their corpora from fixed seeds so every
run measures the same instances.
"""

import time

import numpy as np
import pytest

from whsymm import (
    CATALOG,
    CenterSymbol,
    GroupSymbol,
    MatrixFactorization,
    RationalMatrix,
    RationalSymbol,
    assemble_center_matrix,
    assemble_matrix,
    block_diagonalize,
    build_group,
    center_diagonalize,
    center_factorize,
    center_fourier,
    character_table,
    det_index_oracle,
    eval_on_grid,
    factor_grid,
    factor_rational,
    factor_group_symbol,
    fourier_matrix,
    irreps_for,
    partial_indices,
    poly_roots,
    symbol_from_blocks,
    unitarity_check,
    validate_repset,
    verify_matrix_factorization,
    winding_index,
)
from whsymm.symbols import CircleGrid

from conftest import (
    draw_group_symbol,
    random_center_symbol,
    random_symbol,
    richer_symbol,
    well_separated,
)

EPS = (-1 + 1j * np.sqrt(3)) / 2  # primitive cube root of unity
EPSI = EPS.conjugate()
S2 = np.sqrt(2)


def _conclude(num, label, t0, limit, detail):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} over budget: {elapsed:.2f}s >= {limit}s"
    print(f"criterion {num} ({label}): PASS - {detail} [{elapsed:.2f}s/{limit:.0f}s]")


def _groups():
    return [build_group(spec) for spec in CATALOG]


# ---------------------------------------------------------------- golden data

V4_CHARS = np.array(
    [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=complex
)

S3_CHARS = np.array([[1, 1, 1], [1, -1, 1], [2, 0, -1]], dtype=complex)

S3_SIGN = np.array([1, -1, -1, -1, 1, 1], dtype=complex)

# two-dimensional representation over e,(12),(13),(23),(123),(132)
S3_TWO = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, EPS], [EPSI, 0]],
        [[0, EPSI], [EPS, 0]],
        [[EPS, 0], [0, EPSI]],
        [[EPSI, 0], [0, EPS]],
    ]
)

S3_FOURIER = np.array(
    [
        [1, 1, 1, 1, 1, 1],
        [1, -1, -1, -1, 1, 1],
        [S2, 0, 0, 0, S2 * EPS, S2 * EPSI],
        [0, S2, S2 * EPSI, S2 * EPS, 0, 0],
        [0, S2, S2 * EPS, S2 * EPSI, 0, 0],
        [S2, 0, 0, 0, S2 * EPSI, S2 * EPS],
    ]
) / np.sqrt(6)

Q8_CHARS = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ],
    dtype=complex,
)

# one-dimensional rows over 1,-1,i,-i,j,-j,k,-k
Q8_SIGNS = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, 1, -1, -1, -1, -1, 1, 1],
    ],
    dtype=complex,
)

Q8_TWO = np.array(
    [
        [[1, 0], [0, 1]],
        [[-1, 0], [0, -1]],
        [[1j, 0], [0, -1j]],
        [[-1j, 0], [0, 1j]],
        [[0, 1], [-1, 0]],
        [[0, -1], [1, 0]],
        [[0, 1j], [1j, 0]],
        [[0, -1j], [-1j, 0]],
    ]
)

S3_CENTER_F = np.array([[1, 3, 2], [1, -3, 2], [2, 0, -2]], dtype=complex) / np.sqrt(6)

Q8_CENTER_F = (
    np.array(
        [
            [1, 1, 2, 2, 2],
            [1, 1, 2, -2, -2],
            [1, 1, -2, 2, -2],
            [1, 1, -2, -2, 2],
            [2, -2, 0, 0, 0],
        ],
        dtype=complex,
    )
    / np.sqrt(8)
)

# center eigenvalue coefficient rows: Lambda_j = sum_i row[j][i] * a_i
S3_CENTER_LAMBDAS = np.array([[1, 3, 2], [1, -3, 2], [1, 0, -1]], dtype=complex)
Q8_CENTER_LAMBDAS = np.array(
    [
        [1, 1, 2, 2, 2],
        [1, 1, 2, -2, -2],
        [1, 1, -2, 2, -2],
        [1, 1, -2, -2, 2],
        [1, -1, 0, 0, 0],
    ],
    dtype=complex,
)


# ------------------------------------------------------- shared random corpus

_CORPUS: dict[int, list] = {}


def corpus_for(gi, count=100):
    """The per-group random corpus shared by the reconstruction and
    index-accounting criteria; cached so both score the same draws."""
    if gi not in _CORPUS:
        group = build_group(CATALOG[gi])
        rng = np.random.default_rng(31_000 + gi)
        _CORPUS[gi] = [draw_group_symbol(group, rng) for _ in range(count)]
    return _CORPUS[gi]


def brute_commutator_index(group):
    """[G:G'] via exhaustive commutators and generated closure."""
    n, cay, inv = group.order, group.cayley, group.inverse
    sub = {0}
    sub |= {
        cay[cay[a, b], cay[inv[a], inv[b]]] for a in range(n) for b in range(n)
    }
    while True:
        grown = {cay[x, y] for x in sub for y in sub}
        if grown <= sub:
            return n // len(sub)
        sub |= grown


def drawn_center_factorable(group, rng, margin=1e-2, attempts=60):
    """A center symbol whose eigenvalues stay `margin` away from the circle."""
    ct = character_table(irreps_for(group))
    for _ in range(attempts):
        cs = random_center_symbol(group, rng)
        lams = center_diagonalize(cs, ct)
        ok = True
        for lam in lams:
            if lam.is_zero:
                ok = False
                break
            for poly in (lam.num, lam.den):
                for root, _ in poly_roots(poly):
                    if abs(abs(root) - 1.0) < margin:
                        ok = False
            if not ok:
                break
        if ok:
            return cs, lams
    raise RuntimeError(f"no factorable center draw for {group.name}")


# ------------------------------------------------------------------ criteria


def test_criterion_1_golden_tables():
    t0 = time.perf_counter()
    v4, s3, q8 = (build_group({"kind": k}) for k in ("klein4", "s3", "q8"))

    rs_v4, rs_s3, rs_q8 = irreps_for(v4), irreps_for(s3), irreps_for(q8)
    # character tables: exact integer entries
    assert np.array_equal(character_table(rs_v4).values, V4_CHARS)
    assert np.array_equal(character_table(rs_s3).values, S3_CHARS)
    assert np.array_equal(character_table(rs_q8).values, Q8_CHARS)

    # representation tables: exact entries (integers, +-i, +-eps)
    one_dim_v4 = np.stack([r.matrices[:, 0, 0] for r in rs_v4.irreps])
    assert np.array_equal(one_dim_v4, V4_CHARS)
    assert np.array_equal(rs_s3.irreps[0].matrices[:, 0, 0], np.ones(6, dtype=complex))
    assert np.array_equal(rs_s3.irreps[1].matrices[:, 0, 0], S3_SIGN)
    dev_s3_two = float(np.max(np.abs(rs_s3.irreps[2].matrices - S3_TWO)))
    assert dev_s3_two <= 1e-15
    one_dim_q8 = np.stack([r.matrices[:, 0, 0] for r in rs_q8.irreps[:4]])
    assert np.array_equal(one_dim_q8, Q8_SIGNS)
    assert np.array_equal(rs_q8.irreps[4].matrices, Q8_TWO)

    # Fourier matrices, entry for entry
    dev = 0.0
    dev = max(dev, float(np.max(np.abs(fourier_matrix(rs_v4).matrix - V4_CHARS / 2))))
    dev = max(dev, float(np.max(np.abs(fourier_matrix(rs_s3).matrix - S3_FOURIER))))
    dev = max(
        dev,
        float(np.max(np.abs(center_fourier(character_table(rs_s3)).matrix - S3_CENTER_F))),
    )
    dev = max(
        dev,
        float(np.max(np.abs(center_fourier(character_table(rs_q8)).matrix - Q8_CENTER_F))),
    )
    assert dev <= 1e-15
    _conclude(1, "golden tables", t0, 1.0, f"max Fourier deviation {dev:.3g}")


def probe_blocks(group, repset, slot):
    """Blocks of the indicator symbol a = delta_slot, as numeric matrices."""
    one, zero = RationalSymbol.const(1.0), RationalSymbol.zero()
    gs = GroupSymbol(group, [one if i == slot else zero for i in range(group.order)])
    bd = block_diagonalize(gs, repset)
    out = []
    for block in bd.blocks:
        d = block.shape[0]
        out.append(
            np.array([[complex(block[i, j](1.0)) for j in range(d)] for i in range(d)])
        )
    return out


def test_criterion_2_golden_formulas():
    t0 = time.perf_counter()
    v4, s3, q8 = (build_group({"kind": k}) for k in ("klein4", "s3", "q8"))
    dev = 0.0

    # Klein four-group: four scalar blocks with the displayed sign patterns
    rs = irreps_for(v4)
    for slot in range(4):
        got = probe_blocks(v4, rs, slot)
        for k in range(4):
            dev = max(dev, abs(got[k][0, 0] - V4_CHARS[k, slot]))

    # S3: two scalars and the displayed 2x2 block
    rs = irreps_for(s3)
    for slot in range(6):
        got = probe_blocks(s3, rs, slot)
        dev = max(dev, abs(got[0][0, 0] - 1.0))
        dev = max(dev, abs(got[1][0, 0] - S3_SIGN[slot]))
        dev = max(dev, float(np.max(np.abs(got[2] - S3_TWO[slot]))))

    # Q8: four scalars and the displayed 2x2 block
    rs = irreps_for(q8)
    for slot in range(8):
        got = probe_blocks(q8, rs, slot)
        for k in range(4):
            dev = max(dev, abs(got[k][0, 0] - Q8_SIGNS[k, slot]))
        dev = max(dev, float(np.max(np.abs(got[4] - Q8_TWO[slot]))))

    # center-basis eigenvalue lists for S3 and Q8
    for group, gold in ((s3, S3_CENTER_LAMBDAS), (q8, Q8_CENTER_LAMBDAS)):
        ct = character_table(irreps_for(group))
        k = gold.shape[1]
        one, zero = RationalSymbol.const(1.0), RationalSymbol.zero()
        for slot in range(k):
            cs = CenterSymbol(group, [one if i == slot else zero for i in range(k)])
            lams = center_diagonalize(cs, ct)
            for j in range(k):
                dev = max(dev, abs(complex(lams[j](1.0)) - gold[j, slot]))

    assert dev <= 1e-15
    _conclude(2, "golden formulas", t0, 1.0, f"max coefficient deviation {dev:.3g}")


def test_criterion_3_reconstruction():
    t0 = time.perf_counter()
    grid = CircleGrid(256)
    worst = 0.0
    for gi in range(len(CATALOG)):
        fm = fourier_matrix(irreps_for(build_group(CATALOG[gi]))).matrix
        fmh = fm.conj().T
        for gs, bd in corpus_for(gi):
            avals = assemble_matrix(gs).eval_grid(grid)
            lvals = bd.expand().eval_grid(grid)
            recon = np.einsum("ab,nbc,cd->nad", fmh, lvals, fm)
            worst = max(worst, float(np.max(np.abs(recon - avals))))
    assert worst <= 1e-10
    _conclude(3, "block reconstruction", t0, 30.0, f"800 draws, max residual {worst:.3g}")


def test_criterion_4_index_accounting():
    t0 = time.perf_counter()
    checked = 0
    for gi in range(len(CATALOG)):
        group = build_group(CATALOG[gi])
        one_dim_count = brute_commutator_index(group)
        abelian = one_dim_count == group.order
        for gs, bd in corpus_for(gi):
            report = partial_indices(bd)
            oracle = det_index_oracle(assemble_matrix(gs))
            weighted = sum(
                r.degree * winding_index(b.det())
                for r, b in zip(bd.repset.irreps, bd.blocks)
            )
            assert report.total_index == oracle == weighted
            assert report.explicit_count == one_dim_count
            if abelian:
                windings = tuple(
                    sorted(winding_index(b.det()) for b in bd.blocks)
                )
                assert report.known_indices_sorted() == windings
            checked += 1
    _conclude(4, "index accounting", t0, 15.0, f"{checked} draws, all ledgers exact")


def test_criterion_5_center_factorization():
    t0 = time.perf_counter()
    worst = 0.0
    for kind, seed in (("s3", 35_001), ("q8", 35_002)):
        group = build_group({"kind": kind})
        rng = np.random.default_rng(seed)
        for _ in range(100):
            cs, lams = drawn_center_factorable(group, rng)
            cf = center_factorize(cs)
            rep = verify_matrix_factorization(
                assemble_center_matrix(cs), cf.factorization, recon_tol=1e-10
            )
            assert rep.passed, rep.to_text()
            assert cf.factorization.d == tuple(winding_index(l) for l in lams)
            worst = max(worst, rep.checks[0].residual)
    assert worst <= 1e-10
    _conclude(5, "center factorization", t0, 30.0, f"200 draws, max residual {worst:.3g}")


def test_criterion_6_scalar_engines():
    t0 = time.perf_counter()
    rng = np.random.default_rng(36_000)
    grid = CircleGrid(1024)
    worst_cross = 0.0
    worst_unique = 0.0
    for _ in range(200):
        s = richer_symbol(rng)
        fr = factor_rational(s)
        minus_s, idx, plus_s = factor_grid(eval_on_grid(s, grid))
        assert idx == fr.index
        worst_cross = max(
            worst_cross,
            float(np.max(np.abs(eval_on_grid(fr.minus, grid) - minus_s))),
            float(np.max(np.abs(eval_on_grid(fr.plus, grid) - plus_s))),
        )
        # uniqueness under the minus(inf)=1 normalization: re-factoring the
        # exact product reproduces the same factors
        product = fr.minus * RationalSymbol.monomial(fr.index, 1.0) * fr.plus
        fr2 = factor_rational(product)
        assert fr2.index == fr.index
        worst_unique = max(
            worst_unique,
            float(np.max(np.abs(eval_on_grid(fr2.minus, grid) - eval_on_grid(fr.minus, grid)))),
            float(np.max(np.abs(eval_on_grid(fr2.plus, grid) - eval_on_grid(fr.plus, grid)))),
        )
    assert worst_cross <= 1e-8
    assert worst_unique <= 1e-12
    _conclude(
        6,
        "scalar engine cross-validation",
        t0,
        30.0,
        f"cross {worst_cross:.3g}, uniqueness {worst_unique:.3g}",
    )


def s3_triangular_draw(group, repset, rng, attempts=60):
    """A symbol satisfying a4 = -eps*a2 - eps^{-1}*a3, well separated."""
    for _ in range(attempts):
        slots = set(rng.choice([0, 1, 2, 4, 5], size=2, replace=False))
        a = [random_symbol(rng, i in slots) for i in range(6)]
        a[3] = a[1].scale(-EPS) + a[2].scale(-EPSI)
        gs = GroupSymbol(group, a)
        bd = block_diagonalize(gs, repset)
        if well_separated(bd, 1e-2):
            return gs, bd
    raise RuntimeError("no well-separated triangular draw")


def test_criterion_7_s3_triangular():
    t0 = time.perf_counter()
    group = build_group({"kind": "s3"})
    repset = irreps_for(group)
    rng = np.random.default_rng(37_000)
    for _ in range(25):
        gs, bd = s3_triangular_draw(group, repset, rng)
        fac = factor_group_symbol(gs)
        rep = verify_matrix_factorization(assemble_matrix(gs), fac, recon_tol=1e-10)
        assert rep.passed, rep.to_text()
        report = partial_indices(bd)
        d = fac.d
        assert len(d) == 6
        assert dict(report.explicit) == {1: d[0], 2: d[1]}
        assert d[2] == d[4] and d[3] == d[5]
        assert d[2] + d[3] == report.blocks[2].det_index
        assert sum(d) == report.total_index
    _conclude(7, "triangular 6x6 factorization", t0, 30.0, "25 draws fully verified")


def random_block_list(repset, rng):
    """Random rational blocks, denominators on at most two entries."""
    budget = 2
    blocks = []
    for r in repset.irreps:
        rows = []
        for _ in range(r.degree):
            row = []
            for _ in range(r.degree):
                use_den = budget > 0 and rng.random() < 0.4
                budget -= use_den
                row.append(random_symbol(rng, use_den))
            rows.append(row)
        blocks.append(RationalMatrix(rows))
    return blocks


def test_criterion_8_round_trip():
    t0 = time.perf_counter()
    grid = CircleGrid(64)
    worst = 0.0
    for gi in range(len(CATALOG)):
        repset = irreps_for(build_group(CATALOG[gi]))
        rng = np.random.default_rng(38_000 + gi)
        for _ in range(50):
            blocks = random_block_list(repset, rng)
            gs = symbol_from_blocks(blocks, repset)
            back = block_diagonalize(gs, repset).blocks
            for orig, rt in zip(blocks, back):
                worst = max(
                    worst,
                    float(np.max(np.abs(orig.eval_grid(grid) - rt.eval_grid(grid)))),
                )
    assert worst <= 1e-12
    _conclude(8, "block round-trip", t0, 10.0, f"400 lists, max deviation {worst:.3g}")


def test_criterion_9_mutation_suite():
    t0 = time.perf_counter()
    from whsymm import LaurentPoly, factor_triangular_2x2

    z = RationalSymbol.zero()
    block = RationalMatrix(
        [
            [RationalSymbol.from_poly(LaurentPoly.from_roots([0.5, 2.0])),
             RationalSymbol.const(1.0)],
            [z, RationalSymbol.monomial(-1, 3.0)],
        ]
    )
    fac = factor_triangular_2x2(block)
    baseline = verify_matrix_factorization(block, fac)
    assert baseline.passed

    def failing(report):
        return {c.name for c in report.checks if not c.passed}

    # mutation 1: swapped factors trip both analyticity audits
    swapped = MatrixFactorization(fac.plus, fac.d, fac.minus)
    names = failing(verify_matrix_factorization(block, swapped))
    assert {"minus_entries_analytic", "plus_entries_analytic"} <= names

    # mutation 2: perturbed index trips reconstruction and index accounting
    bumped = MatrixFactorization(fac.minus, (fac.d[0] + 1, fac.d[1]), fac.plus)
    names = failing(verify_matrix_factorization(block, bumped))
    assert {"reconstruction", "index_sum"} <= names

    # mutation 3: de-unitarized Fourier matrix trips the unitarity checks
    s3 = build_group({"kind": "s3"})
    repset = irreps_for(s3)
    fm = fourier_matrix(repset).matrix.copy()
    assert unitarity_check(fm).passed
    fm[2] *= 1.1
    assert not unitarity_check(fm).passed

    bad_two = repset.irreps[2].matrices.copy()
    bad_two[1] *= 1.1
    from whsymm import Irrep, RepSet

    mutated = RepSet(s3, (repset.irreps[0], repset.irreps[1], Irrep(2, bad_two)))
    report = validate_repset(s3, mutated)
    assert "unitarity" in failing(report)

    # mutation 4: a doubled plus factor trips reconstruction at any input
    # scale, and the unmutated factorization passes at every scale
    z = RationalSymbol.zero()
    for c in (1e-14, 1e8):
        coeffs = [RationalSymbol.from_poly(LaurentPoly.from_roots([0.3], c)), RationalSymbol.const(2.0 * c), z, z]
        gs = GroupSymbol(build_group({"kind": "klein4"}), coeffs)
        target, fac = assemble_matrix(gs), factor_group_symbol(gs)
        assert verify_matrix_factorization(target, fac).passed
        doubled = MatrixFactorization(fac.minus, fac.d, fac.plus.const_mul_right(2.0 * np.eye(4)))
        assert failing(verify_matrix_factorization(target, doubled)) == {"reconstruction"}

    _conclude(9, "mutation suite", t0, 5.0, "every designated check trips")
