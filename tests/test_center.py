"""Center-algebra symbols: assembly, diagonalization, factorization.

Oracles: the class-basis matrix is rebuilt in the test from brute-force
structure constants; eigenvalues are recomputed from the character
table formula and cross-checked against numpy eigenvalues of sampled
matrices; factorizations are certified by pointwise reconstruction and
by the dense determinant-winding oracle for the index sum.
"""

import numpy as np
import pytest

from whsymm import (
    CenterSymbol,
    CircleGrid,
    IllPosedSymbolError,
    LaurentPoly,
    RationalSymbol,
    assemble_center_matrix,
    build_group,
    center_diagonalize,
    center_factorize,
    center_fourier,
    character_table,
    conjugacy_classes,
    det_index_oracle,
    irreps_for,
    verify_matrix_factorization,
    winding_index,
)

from conftest import diag_power_eval, random_center_symbol

GROUPS = ("s3", "q8", "a4", "klein4")


def drawn_factorable(kind, rng, attempts=40):
    g = build_group({"kind": kind})
    for _ in range(attempts):
        cs = random_center_symbol(g, rng)
        try:
            return cs, center_factorize(cs)
        except IllPosedSymbolError:
            continue
    raise RuntimeError(f"no factorable draw for {kind}")


def brute_constants(group):
    part = conjugacy_classes(group)
    table = group.cayley.tolist()
    k = part.count
    out = np.zeros((k, k, k), dtype=int)
    for i in range(k):
        for j in range(k):
            for m in range(k):
                z = part.classes[m][0]
                out[i, j, m] = sum(
                    1
                    for x in part.classes[i]
                    for y in part.classes[j]
                    if table[x][y] == z
                )
    return out


class TestCenterSymbol:
    def test_coefficient_count_validation(self):
        g = build_group({"kind": "s3"})
        with pytest.raises(ValueError):
            CenterSymbol(g, [RationalSymbol.const(1.0)] * 2)
        cs = CenterSymbol(g, [RationalSymbol.const(1.0)] * 3)
        assert len(cs.coeffs) == 3


class TestAssemble:
    def test_matches_brute_structure_constants(self):
        rng = np.random.default_rng(7070_01)
        pts = CircleGrid(16).points
        for kind in GROUPS:
            g = build_group({"kind": kind})
            cs = random_center_symbol(g, rng)
            m = assemble_center_matrix(cs)
            c = brute_constants(g)
            k = c.shape[0]
            assert m.shape == (k, k)
            vals = np.array([a(pts) for a in cs.coeffs])  # (k, N)
            want = np.einsum("in,ijm->nmj", vals, c.astype(complex))
            assert np.max(np.abs(m.eval_grid(pts) - want)) < 1e-9

    def test_identity_class_only_is_scalar_matrix(self):
        g = build_group({"kind": "q8"})
        k = conjugacy_classes(g).count
        a0 = RationalSymbol.monomial(1, 2.0)
        cs = CenterSymbol(g, [a0] + [RationalSymbol.zero()] * (k - 1))
        m = assemble_center_matrix(cs)
        pts = np.array([0.7 + 0.2j])
        assert np.allclose(m.eval_grid(pts)[0], a0(pts)[0] * np.eye(k))


class TestDiagonalize:
    def test_matches_character_formula(self):
        rng = np.random.default_rng(7070_02)
        pts = CircleGrid(16).points
        for kind in GROUPS:
            g = build_group({"kind": kind})
            ct = character_table(irreps_for(g))
            cs = random_center_symbol(g, rng)
            lambdas = center_diagonalize(cs, ct)
            h = np.array(ct.partition.sizes, dtype=complex)
            vals = np.array([a(pts) for a in cs.coeffs])
            for j, lam in enumerate(lambdas):
                want = np.einsum(
                    "i,in->n", h * ct.values[j] / ct.values[j, 0].real, vals
                )
                assert np.max(np.abs(lam(pts) - want)) < 1e-9

    def test_center_fourier_diagonalizes_the_matrix(self):
        rng = np.random.default_rng(7070_03)
        grid = CircleGrid(32)
        for kind in GROUPS:
            g = build_group({"kind": kind})
            ct = character_table(irreps_for(g))
            fc = center_fourier(ct)
            cs = random_center_symbol(g, rng)
            m = assemble_center_matrix(cs).eval_grid(grid)
            lam = np.array([l(grid.points) for l in center_diagonalize(cs, ct)])
            got = np.einsum("ij,njk,kl->nil", fc.matrix, m, fc.inverse)
            want = np.zeros_like(got)
            for j in range(lam.shape[0]):
                want[:, j, j] = lam[j]
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(got - want))) < 1e-10 * scale

    def test_eigenvalue_multisets_match_numpy(self):
        rng = np.random.default_rng(7070_04)
        g = build_group({"kind": "s3"})
        cs = random_center_symbol(g, rng)
        lam = center_diagonalize(cs)
        for t in (1.0 + 0.0j, 0.5j, -0.8 + 0.1j):
            pts = np.array([t])
            got = sorted(
                np.linalg.eigvals(assemble_center_matrix(cs).eval_grid(pts)[0]),
                key=lambda z: (z.real.round(8), z.imag.round(8)),
            )
            want = sorted(
                (l(pts)[0] for l in lam),
                key=lambda z: (z.real.round(8), z.imag.round(8)),
            )
            assert np.allclose(got, want, atol=1e-8)

    def test_identity_only_symbol_has_equal_eigenvalues(self):
        g = build_group({"kind": "s3"})
        a0 = RationalSymbol.from_poly(LaurentPoly(-1, [1.0, 0.0, 2.0]))
        cs = CenterSymbol(g, [a0, RationalSymbol.zero(), RationalSymbol.zero()])
        for lam in center_diagonalize(cs):
            assert lam.allclose(a0, tol=1e-12)


class TestCenterFactorize:
    def test_reconstruction_and_audit(self):
        rng = np.random.default_rng(7070_05)
        grid = CircleGrid(128)
        for kind in GROUPS:
            cs, cf = drawn_factorable(kind, rng)
            target = assemble_center_matrix(cs)
            fac = cf.factorization
            recon = np.einsum(
                "nij,njk,nkl->nil",
                fac.minus.eval_grid(grid),
                diag_power_eval(list(fac.d), grid.points),
                fac.plus.eval_grid(grid),
            )
            want = target.eval_grid(grid)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert float(np.max(np.abs(recon - want))) < 1e-9 * scale
            report = verify_matrix_factorization(target, fac)
            assert report.passed, report.to_text()

    def test_indices_are_class_windings(self):
        rng = np.random.default_rng(7070_06)
        for kind in ("s3", "q8"):
            cs, cf = drawn_factorable(kind, rng)
            want = tuple(winding_index(l) for l in center_diagonalize(cs))
            assert cf.indices == want
            assert cf.indices == cf.factorization.d
            assert sum(cf.indices) == det_index_oracle(assemble_center_matrix(cs))

    def test_eigenvalues_and_scalar_factors_are_exposed(self):
        rng = np.random.default_rng(7070_07)
        cs, cf = drawn_factorable("s3", rng)
        assert len(cf.eigenvalues) == 3 and len(cf.scalar_factors) == 3
        for lam, f in zip(cf.eigenvalues, cf.scalar_factors):
            recon = f.minus * RationalSymbol.monomial(f.index) * f.plus
            assert recon.allclose(lam, tol=1e-8)

    def test_ill_posed_class_is_reported(self):
        g = build_group({"kind": "cyclic", "n": 2})
        # eigenvalues a0 +- a1; make a0 + a1 = t + 1 vanish on the circle
        cs = CenterSymbol(g, [RationalSymbol.monomial(1), RationalSymbol.const(1.0)])
        with pytest.raises(IllPosedSymbolError) as exc:
            center_factorize(cs)
        assert exc.value.where.startswith("class")
