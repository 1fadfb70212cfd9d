"""Block reduction of group-symmetric matrix symbols and factorization.

Oracles: the assembled matrix is rebuilt in the test from the raw
Cayley table; the block diagonalization is checked numerically by
conjugating sampled matrices with the Fourier matrix; block formulas
are re-derived by summing sampled coefficients against representation
matrices; factorizations are certified by pointwise reconstruction plus
determinant sampling on off-circle radii (minus invertible outside,
plus inside).  Index bookkeeping is cross-checked against the dense
determinant winding oracle and the commutator-subgroup count.
"""

import numpy as np
import pytest

from whsymm import (
    CATALOG,
    CircleGrid,
    GroupSymbol,
    IllPosedSymbolError,
    LaurentPoly,
    PartialFactorizationError,
    RationalMatrix,
    RationalSymbol,
    assemble_matrix,
    block_diagonalize,
    block_structure,
    build_group,
    commutator_subgroup,
    convolve,
    det_index_oracle,
    factor_block,
    factor_group_symbol,
    factor_triangular_2x2,
    fourier_matrix,
    irreps_for,
    partial_indices,
    symbol_from_blocks,
    verify_matrix_factorization,
    winding_index,
)

from conftest import diag_power_eval, draw_group_symbol, random_group_symbol, random_symbol

EPS = np.exp(2j * np.pi / 3)


def reconstruction_residual(target: RationalMatrix, fac, grid=None) -> float:
    g = grid or CircleGrid(128)
    recon = np.einsum(
        "nij,njk,nkl->nil",
        fac.minus.eval_grid(g),
        diag_power_eval(list(fac.d), g.points),
        fac.plus.eval_grid(g),
    )
    want = target.eval_grid(g)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(recon - want))) / scale


def factor_dets_nonzero(fac) -> bool:
    """Sampled invertibility: minus on radii >= 1, plus on radii <= 1."""
    for radius in (1.0, 1.4, 2.5):
        pts = radius * CircleGrid(64).points
        if np.min(np.abs(np.linalg.det(fac.minus.eval_grid(pts)))) < 1e-9:
            return False
    for radius in (1.0, 0.6, 0.2):
        pts = radius * CircleGrid(64).points
        if np.min(np.abs(np.linalg.det(fac.plus.eval_grid(pts)))) < 1e-9:
            return False
    return True


def s3_triangular_symbol(rng):
    """An S3 symbol satisfying the corner-killing linear condition
    a((23)) = -eps a((12)) - conj(eps) a((13))."""
    g = build_group({"kind": "s3"})
    a = [random_symbol(rng) for _ in range(6)]
    a[3] = a[1].scale(-EPS) + a[2].scale(-np.conj(EPS))
    return GroupSymbol(g, a)


class TestAssemble:
    def test_matches_cayley_formula(self):
        rng = np.random.default_rng(6060_01)
        pts = CircleGrid(16).points
        for spec in CATALOG:
            g = build_group(spec)
            gs = random_group_symbol(g, rng)
            a = assemble_matrix(gs)
            assert a.shape == (g.order, g.order)
            table = g.cayley.tolist()
            inv = [row.index(0) for row in table]
            for i in range(g.order):
                for j in range(g.order):
                    want = gs.coeffs[table[i][inv[j]]](pts)
                    assert np.max(np.abs(a[i, j](pts) - want)) < 1e-12

    def test_is_sum_of_permutation_matrices(self):
        # A = sum_g a(g) P_g with (P_g)_{ij} = [g_i = g g_j]
        rng = np.random.default_rng(6060_02)
        g = build_group({"kind": "s3"})
        gs = random_group_symbol(g, rng)
        pts = CircleGrid(8).points
        want = np.zeros((pts.size, 6, 6), dtype=complex)
        for ge in range(6):
            p = np.zeros((6, 6))
            for j in range(6):
                p[g.mul(ge, j), j] = 1.0
            want += gs.coeffs[ge](pts)[:, None, None] * p
        assert np.max(np.abs(assemble_matrix(gs).eval_grid(pts) - want)) < 1e-10


class TestBlockDiagonalize:
    def test_fourier_conjugation_all_groups(self):
        rng = np.random.default_rng(6060_03)
        grid = CircleGrid(64)
        for spec in CATALOG:
            g = build_group(spec)
            gs = random_group_symbol(g, rng)
            bd = block_diagonalize(gs)
            f = fourier_matrix(bd.repset).matrix
            a = assemble_matrix(gs).eval_grid(grid)
            lam = np.einsum("ij,njk,kl->nil", f, a, f.conj().T)
            want = bd.expand().eval_grid(grid)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(lam - want))) < 1e-10 * scale

    def test_blocks_are_weighted_rep_sums(self):
        rng = np.random.default_rng(6060_04)
        pts = CircleGrid(16).points
        for kind in ("s3", "q8", "a4"):
            g = build_group({"kind": kind})
            rs = irreps_for(g)
            gs = random_group_symbol(g, rng)
            bd = block_diagonalize(gs, rs)
            coeff_vals = np.array([c(pts) for c in gs.coeffs])  # (n, N)
            for r, block in zip(rs.irreps, bd.blocks):
                want = np.einsum("gn,gij->nij", coeff_vals, r.matrices)
                got = block.eval_grid(pts)
                assert np.max(np.abs(got - want)) < 1e-9

    def test_expand_repeats_by_degree(self):
        g = build_group({"kind": "s3"})
        gs = random_group_symbol(g, np.random.default_rng(6060_05))
        bd = block_diagonalize(gs)
        assert bd.degrees == (1, 1, 2)
        full = bd.expand()
        assert full.shape == (6, 6)
        pts = np.array([0.5 + 0.1j])
        # the degree-2 block occupies the last two copies
        b3 = bd.blocks[2].eval_grid(pts)[0]
        fv = full.eval_grid(pts)[0]
        assert np.allclose(fv[2:4, 2:4], b3) and np.allclose(fv[4:6, 4:6], b3)


class TestSymbolBlocksRoundTrip:
    def test_symbol_to_blocks_to_symbol(self):
        rng = np.random.default_rng(6060_06)
        for spec in CATALOG:
            g = build_group(spec)
            gs = random_group_symbol(g, rng)
            bd = block_diagonalize(gs)
            back = symbol_from_blocks(bd.blocks, bd.repset)
            for orig, rec in zip(gs.coeffs, back.coeffs):
                assert rec.allclose(orig, tol=1e-9)

    def test_blocks_to_symbol_to_blocks(self):
        rng = np.random.default_rng(6060_07)
        for spec in CATALOG:
            g = build_group(spec)
            rs = irreps_for(g)
            blocks = []
            for d in rs.degrees:
                blocks.append(
                    RationalMatrix(
                        [
                            [
                                RationalSymbol.from_poly(
                                    LaurentPoly(
                                        int(rng.integers(-2, 1)),
                                        rng.normal(size=3) + 1j * rng.normal(size=3),
                                    )
                                )
                                for _ in range(d)
                            ]
                            for _ in range(d)
                        ]
                    )
                )
            gs = symbol_from_blocks(blocks, rs)
            again = block_diagonalize(gs, rs)
            for want, got in zip(blocks, again.blocks):
                for i in range(want.shape[0]):
                    for j in range(want.shape[1]):
                        assert got[i, j].allclose(want[i, j], tol=1e-10)

    def test_block_shape_mismatch_rejected(self):
        g = build_group({"kind": "s3"})
        rs = irreps_for(g)
        one = RationalMatrix.identity(1)
        with pytest.raises(ValueError):
            symbol_from_blocks([one, one, one], rs)


class TestConvolve:
    def test_matches_matrix_product(self):
        rng = np.random.default_rng(6060_08)
        pts = CircleGrid(16).points
        for kind in ("klein4", "s3"):
            g = build_group({"kind": kind})
            x = random_group_symbol(g, rng)
            y = random_group_symbol(g, rng)
            prod = convolve(x, y)
            got = assemble_matrix(prod).eval_grid(pts)
            want = np.einsum(
                "nij,njk->nik",
                assemble_matrix(x).eval_grid(pts),
                assemble_matrix(y).eval_grid(pts),
            )
            assert np.max(np.abs(got - want)) < 1e-8

    def test_group_mismatch_rejected(self):
        rng = np.random.default_rng(6060_09)
        x = random_group_symbol(build_group({"kind": "s3"}), rng)
        y = random_group_symbol(build_group({"kind": "cyclic", "n": 6}), rng)
        with pytest.raises(ValueError):
            convolve(x, y)


class TestBlockStructure:
    def test_catalog_structures(self):
        got = {}
        for spec in CATALOG:
            g = build_group(spec)
            bs = block_structure(g)
            got[g.name] = (bs.degrees, bs.explicit_count)
            assert bs.multiplicities == bs.degrees
            assert sum(d * m for d, m in zip(bs.degrees, bs.multiplicities)) == g.order
        assert got["s3"] == ((1, 1, 2), 2)
        assert got["q8"] == ((1, 1, 1, 1, 2), 4)
        assert got["a4"][1] == 3
        assert got["klein4"] == ((1, 1, 1, 1), 4)

    def test_describe_mentions_counts(self):
        text = block_structure(build_group({"kind": "s3"})).describe()
        assert "s3" in text and "2x2" in text and "2 scalar blocks" in text


class TestPartialIndices:
    def test_against_determinant_winding(self):
        rng = np.random.default_rng(6060_10)
        for spec in CATALOG:
            g = build_group(spec)
            gs, bd = draw_group_symbol(g, rng)
            report = partial_indices(bd)
            assert report.total_index == det_index_oracle(assemble_matrix(gs))
            assert report.explicit_count == commutator_subgroup(g).index
            assert report.order == g.order

    def test_abelian_indices_are_block_windings(self):
        rng = np.random.default_rng(6060_11)
        g = build_group({"kind": "klein4"})
        gs, bd = draw_group_symbol(g, rng)
        report = partial_indices(bd)
        want = sorted(winding_index(b[0, 0]) for b in bd.blocks)
        assert list(report.known_indices_sorted()) == want
        assert report.total_index == sum(want)
        assert [p for p, _ in report.explicit] == [1, 2, 3, 4]

    def test_relations_for_s3(self):
        rng = np.random.default_rng(6060_12)
        g = build_group({"kind": "s3"})
        gs, bd = draw_group_symbol(g, rng)
        report = partial_indices(bd)
        # degree-2 block: one sum relation plus two repetition relations
        assert len(report.relations) == 3
        assert report.relations[0].startswith("rho_3 + rho_4 = ")
        assert report.relations[1] == "rho_5 = rho_3"
        assert report.relations[2] == "rho_6 = rho_4"
        d2 = report.blocks[2]
        assert d2.degree == 2 and d2.indices is None
        assert d2.positions == (3, 4, 5, 6)
        assert report.total_index == sum(v for _, v in report.explicit) + 2 * d2.det_index

    def test_describe_lists_explicit_indices(self):
        rng = np.random.default_rng(6060_13)
        g = build_group({"kind": "cyclic", "n": 4})
        gs, bd = draw_group_symbol(g, rng)
        text = partial_indices(bd).describe()
        assert "total_index=" in text and "rho_1 = " in text

    def test_circle_root_block_is_ill_posed(self):
        g = build_group({"kind": "cyclic", "n": 2})
        # blocks are a0 + a1 = t + 1 (root on the circle) and a0 - a1
        gs = GroupSymbol(g, [RationalSymbol.monomial(1), RationalSymbol.const(1.0)])
        with pytest.raises(IllPosedSymbolError) as exc:
            partial_indices(block_diagonalize(gs))
        assert "block" in str(exc.value)


class TestTriangularFactorization:
    def test_random_triangular_blocks(self):
        rng = np.random.default_rng(6060_14)
        z = RationalSymbol.zero()
        done = 0
        while done < 15:
            lam1 = random_symbol(rng)
            lam2 = random_symbol(rng)
            corner = random_symbol(rng)
            if lam1.is_zero or lam2.is_zero:
                continue
            block = RationalMatrix([[lam1, corner], [z, lam2]])
            try:
                fac = factor_triangular_2x2(block)
            except Exception:
                continue  # ill-conditioned draw (circle roots); covered elsewhere
            done += 1
            assert reconstruction_residual(block, fac) < 1e-9
            assert factor_dets_nonzero(fac)
            det_blk = block[0, 0] * block[1, 1]
            assert sum(fac.d) == winding_index(det_blk)
            assert verify_matrix_factorization(block, fac).passed

    def test_monomial_gap_corner_shifts_indices(self):
        z = RationalSymbol.zero()
        block = RationalMatrix(
            [
                [RationalSymbol.monomial(2), RationalSymbol.monomial(1, 2.0 - 1.0j)],
                [z, RationalSymbol.const(1.0)],
            ]
        )
        fac = factor_triangular_2x2(block)
        assert fac.sorted_d == (1, 1)
        assert reconstruction_residual(block, fac) < 1e-10
        assert verify_matrix_factorization(block, fac).passed

    def test_zero_corner_gives_diagonal_indices(self):
        z = RationalSymbol.zero()
        block = RationalMatrix(
            [[RationalSymbol.monomial(3, 2.0), z], [z, RationalSymbol.monomial(-1)]]
        )
        fac = factor_triangular_2x2(block)
        assert fac.d == (3, -1)
        assert reconstruction_residual(block, fac) < 1e-12

    def test_increasing_indices_need_no_gap_correction(self):
        z = RationalSymbol.zero()
        corner = RationalSymbol.from_poly(LaurentPoly(-1, [1.0, 2.0, 3.0]))
        block = RationalMatrix(
            [[RationalSymbol.monomial(-1), corner], [z, RationalSymbol.monomial(2, 3.0)]]
        )
        fac = factor_triangular_2x2(block)
        assert fac.d == (-1, 2)
        assert reconstruction_residual(block, fac) < 1e-10
        assert verify_matrix_factorization(block, fac).passed

    def test_coupling_is_split_once(self, monkeypatch):
        # indices (2, 0) need the gap frequency and both projections of
        # the coupling, all from one partial-fraction split
        from whsymm import blocks, symbols

        calls = []
        split = symbols.separate_poles

        def counted(s):
            calls.append(s)
            return split(s)

        monkeypatch.setattr(symbols, "separate_poles", counted)
        monkeypatch.setattr(blocks, "separate_poles", counted)
        z = RationalSymbol.zero()
        lam2 = RationalSymbol(LaurentPoly.from_roots([0.2]), LaurentPoly.from_roots([0.4]))
        corner = RationalSymbol(LaurentPoly(-1, [1.0, 0.5, 0.25]), LaurentPoly.from_roots([0.5]))
        block = RationalMatrix([[RationalSymbol.monomial(2), corner], [z, lam2]])
        fac = factor_triangular_2x2(block)
        assert len(calls) == 1
        assert sum(fac.d) == 2
        assert verify_matrix_factorization(block, fac).passed

    def test_shape_and_corner_validation(self):
        z = RationalSymbol.zero()
        one = RationalSymbol.const(1.0)
        with pytest.raises(ValueError):
            factor_triangular_2x2(RationalMatrix([[one]]))
        with pytest.raises(ValueError):
            factor_triangular_2x2(RationalMatrix([[one, z], [one, one]]))


class TestFactorBlock:
    def test_scalar_block(self):
        fac = factor_block(RationalMatrix([[RationalSymbol.monomial(2, 5.0)]]))
        assert fac.d == (2,)

    def test_diagonal_block_any_size(self):
        z = RationalSymbol.zero()
        entries = [RationalSymbol.monomial(k) for k in (1, -2, 0)]
        block = RationalMatrix(
            [[entries[i] if i == j else z for j in range(3)] for i in range(3)]
        )
        fac = factor_block(block)
        assert fac.d == (1, -2, 0)
        assert reconstruction_residual(block, fac) < 1e-12

    def test_upper_triangular_via_flip(self):
        z = RationalSymbol.zero()
        block = RationalMatrix(
            [
                [RationalSymbol.const(1.0), z],
                [RationalSymbol.monomial(1, 2.0), RationalSymbol.monomial(2)],
            ]
        )
        fac = factor_block(block)
        assert fac is not None
        assert reconstruction_residual(block, fac) < 1e-10
        assert verify_matrix_factorization(block, fac).passed

    def test_snap_tolerance_cleans_construction_noise(self):
        # lower-left 1e-14 is construction residue, treated as zero; the
        # constant corner then forces equal indices (0, 0) rather than
        # the diagonal pair (1, -1), and the verifier certifies against
        # the unmodified noisy block
        noise = RationalSymbol.const(1e-14)
        block = RationalMatrix(
            [[RationalSymbol.monomial(1), RationalSymbol.const(2.0)],
             [noise, RationalSymbol.monomial(-1, 3.0)]]
        )
        fac = factor_block(block)
        assert fac is not None
        assert fac.d == (0, 0)
        assert verify_matrix_factorization(block, fac).passed

    def test_dense_block_unsupported(self):
        one = RationalSymbol.const(1.0)
        t = RationalSymbol.monomial(1)
        assert factor_block(RationalMatrix([[t, one], [one, t]])) is None

    def test_non_diagonal_3x3_unsupported(self):
        z = RationalSymbol.zero()
        one = RationalSymbol.const(1.0)
        t = RationalSymbol.monomial(1)
        rows = [[t, one, z], [z, t, z], [z, z, t]]
        assert factor_block(RationalMatrix(rows)) is None


class TestFactorGroupSymbol:
    def test_abelian_always_factors(self):
        rng = np.random.default_rng(6060_15)
        for spec in CATALOG[:5]:  # the abelian catalog entries
            g = build_group(spec)
            gs, bd = draw_group_symbol(g, rng)
            fac = factor_group_symbol(gs)
            target = assemble_matrix(gs)
            assert reconstruction_residual(target, fac) < 1e-9
            assert verify_matrix_factorization(target, fac).passed
            assert sorted(fac.d) == sorted(
                winding_index(b[0, 0]) for b in bd.blocks
            )

    def test_s3_triangular_condition(self):
        rng = np.random.default_rng(6060_16)
        done = 0
        while done < 5:
            gs = s3_triangular_symbol(rng)
            try:
                fac = factor_group_symbol(gs)
            except Exception:
                continue
            done += 1
            target = assemble_matrix(gs)
            assert reconstruction_residual(target, fac) < 1e-8
            assert verify_matrix_factorization(target, fac).passed
            assert len(fac.d) == 6

    def test_generic_s3_is_partial(self):
        rng = np.random.default_rng(6060_17)
        g = build_group({"kind": "s3"})
        gs, bd = draw_group_symbol(g, rng)
        with pytest.raises(PartialFactorizationError) as exc:
            factor_group_symbol(gs)
        report = exc.value.index_report
        assert report is not None
        assert report.total_index == det_index_oracle(assemble_matrix(gs))

    def test_ill_posed_block_raises(self):
        g = build_group({"kind": "cyclic", "n": 2})
        gs = GroupSymbol(g, [RationalSymbol.monomial(1), RationalSymbol.const(1.0)])
        with pytest.raises(IllPosedSymbolError):
            factor_group_symbol(gs)

    def test_wrong_coefficient_count_rejected(self):
        g = build_group({"kind": "s3"})
        with pytest.raises(ValueError):
            GroupSymbol(g, [RationalSymbol.const(1.0)] * 5)
