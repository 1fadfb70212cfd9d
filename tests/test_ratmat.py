"""Matrices of rational symbols.

The oracle throughout is pointwise evaluation: every exact-arithmetic
result (product, determinant) must match the corresponding numpy
computation on sampled values.
"""

import numpy as np
import pytest

from whsymm import (
    CATALOG,
    CircleGrid,
    LaurentPoly,
    PoleOnGridError,
    RationalMatrix,
    RationalSymbol,
    build_group,
    center_factorize,
    factor_block,
    factor_group_symbol,
    fourier_matrix,
)
from whsymm.blocks import BlockDiagonal, assemble_full_factorization
from whsymm.ratmat import GridEvaluator, Zero
from whsymm.symbols import eval_on_grid

from conftest import dominant_cyclic_symbol, planted_blocks, random_center_symbol, random_symbol


def random_matrix(rng, r, c):
    return RationalMatrix([[random_symbol(rng) for _ in range(c)] for _ in range(r)])


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalMatrix([])
        with pytest.raises(ValueError):
            RationalMatrix([[]])
        one = RationalSymbol.const(1.0)
        with pytest.raises(ValueError):
            RationalMatrix([[one, one], [one]])
        with pytest.raises(TypeError):
            RationalMatrix([[1.0]])

    def test_identity_and_indexing(self):
        m = RationalMatrix.identity(3)
        assert m.shape == (3, 3)
        for i in range(3):
            for j in range(3):
                want = 1.0 if i == j else 0.0
                assert m[i, j](np.array([0.5j]))[0] == want

    def test_from_const(self):
        a = np.array([[1.0, 2.0j], [3.0, 4.0]])
        m = RationalMatrix.from_const(a)
        vals = m.eval_grid(np.array([0.3, 2.0]))
        assert np.allclose(vals[0], a) and np.allclose(vals[1], a)

    def test_block_diag(self):
        rng = np.random.default_rng(5050_01)
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 1, 1)
        m = RationalMatrix.block_diag([a, b])
        assert m.shape == (3, 3)
        pts = np.array([0.4 + 0.2j])
        va, vb, vm = a.eval_grid(pts), b.eval_grid(pts), m.eval_grid(pts)
        assert np.allclose(vm[0, :2, :2], va[0])
        assert np.allclose(vm[0, 2:, 2:], vb[0])
        assert np.allclose(vm[0, :2, 2:], 0) and np.allclose(vm[0, 2:, :2], 0)

    def test_transpose(self):
        rng = np.random.default_rng(5050_02)
        m = random_matrix(rng, 2, 3)
        pts = np.array([1.3 - 0.4j])
        assert np.allclose(
            m.transpose().eval_grid(pts)[0], m.eval_grid(pts)[0].T
        )


class TestArithmetic:
    def test_matmul_matches_pointwise(self):
        rng = np.random.default_rng(5050_03)
        pts = CircleGrid(16).points
        for _ in range(10):
            a = random_matrix(rng, 2, 3)
            b = random_matrix(rng, 3, 2)
            got = (a @ b).eval_grid(pts)
            want = np.einsum("nij,njk->nik", a.eval_grid(pts), b.eval_grid(pts))
            assert np.max(np.abs(got - want)) < 1e-9

    def test_matmul_shape_mismatch(self):
        rng = np.random.default_rng(5050_04)
        with pytest.raises(ValueError):
            random_matrix(rng, 2, 3) @ random_matrix(rng, 2, 3)

    def test_const_mul_matches_full_loop_on_block_diagonal(self):
        # rows built from the record are the n-term sums of scale and +,
        # zero terms included, as a plain reference: on a random block
        # diagonal, on the stitched factors of every catalog group (from
        # planted blocks, triangular and swapped ones among them) and
        # every catalog center symbol, and on those of cyclic(32)
        def left(c, m):
            out = [[Zero] * m.shape[1] for _ in range(c.shape[0])]
            for i in range(c.shape[0]):
                for j in range(m.shape[1]):
                    for p in range(c.shape[1]):
                        if c[i, p] != 0:
                            out[i][j] = out[i][j] + m[p, j].scale(c[i, p])
            return out

        def products(m):
            # every matrix in m's record, m included, that is recorded as
            # a product with a constant
            p = m.pieces or ()
            here = [m] if any(isinstance(x, np.ndarray) for x in p) else []
            return here + [y for x in p if isinstance(x, RationalMatrix) for y in products(x)]

        rng = np.random.default_rng(5050_10)
        m = RationalMatrix.block_diag(
            [random_matrix(rng, 2, 2), random_matrix(rng, 1, 1), random_matrix(rng, 2, 2)]
        )
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        c[1, 3] = c[4, 0] = 0.0
        factors = [m.const_mul_left(c), m.const_mul_right(c)]
        for spec in CATALOG:
            for corner in ("upper", "lower"):
                repset, blocks = planted_blocks(spec, 5050_14, corner)
                bd = BlockDiagonal(repset, tuple(blocks))
                fac = assemble_full_factorization(bd, [factor_block(b) for b in blocks], fourier_matrix(repset))
                factors += [fac.minus, fac.plus]
            fac = center_factorize(random_center_symbol(build_group(spec), rng)).factorization
            factors += [fac.minus, fac.plus]
        fac = factor_group_symbol(dominant_cyclic_symbol(32, 5050))
        factors += [fac.minus, fac.plus]
        checked = 0
        for f in factors:
            for x in products(f):
                if isinstance(x.pieces[0], np.ndarray):
                    want = left(x.pieces[0], x.pieces[1])
                else:
                    want = RationalMatrix(left(x.pieces[1].T, x.pieces[0].transpose())).transpose().rows
                got = x.rows
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g == w
                checked += 1
        assert checked > len(factors)

    def test_const_mul_both_sides(self):
        rng = np.random.default_rng(5050_05)
        pts = CircleGrid(16).points
        m = random_matrix(rng, 3, 3)
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        mv = m.eval_grid(pts)
        assert np.max(np.abs(m.const_mul_left(c).eval_grid(pts) - c @ mv)) < 1e-10
        assert np.max(np.abs(m.const_mul_right(c).eval_grid(pts) - mv @ c)) < 1e-10
        with pytest.raises(ValueError):
            m.const_mul_left(np.ones((3, 2)))
        with pytest.raises(ValueError):
            m.const_mul_right(np.ones((2, 3)))


class TestDeterminant:
    def test_matches_numpy_on_samples(self):
        rng = np.random.default_rng(5050_06)
        pts = CircleGrid(32).points
        for size in (1, 2, 3, 4):
            m = random_matrix(rng, size, size)
            d = m.det()
            got = d(pts)
            want = np.linalg.det(m.eval_grid(pts))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) < 1e-8 * scale

    def test_triangular_with_zero_block(self):
        s = random_symbol(np.random.default_rng(5050_07))
        z = RationalSymbol.zero()
        one = RationalSymbol.const(1.0)
        m = RationalMatrix([[s, one], [z, s]])
        assert m.det().allclose(s * s)

    def test_singular_matrix(self):
        s = random_symbol(np.random.default_rng(5050_08))
        m = RationalMatrix([[s, s], [s, s]])
        assert m.det().is_zero

    def test_non_square_rejected(self):
        rng = np.random.default_rng(5050_09)
        with pytest.raises(ValueError):
            random_matrix(rng, 2, 3).det()


class TestEvaluation:
    def test_eval_grid_accepts_grid_and_array(self):
        m = RationalMatrix.identity(2)
        g = CircleGrid(8)
        assert m.eval_grid(g).shape == (8, 2, 2)
        assert m.eval_grid(np.array([0.5, 2.0])).shape == (2, 2, 2)

    def test_eval_grid_matches_entrywise(self):
        a = RationalSymbol(LaurentPoly(-2, [1.0, 0.5j, 2.0]), LaurentPoly.from_roots([0.5]))
        b = RationalSymbol(LaurentPoly(1, [3.0, -1.0]), LaurentPoly.from_roots([2.5, -0.3j]))
        # c shares a's denominator by value, not by object
        c = RationalSymbol(LaurentPoly(-1, [1.5]), LaurentPoly.from_roots([0.5]))
        d = RationalSymbol(LaurentPoly(0, [0.25, 1.0, 0.0, 2.0j]))
        z = RationalSymbol.zero()
        m = RationalMatrix([[a, z, b, d], [b, a, c, z], [z, c, a, d]])
        rng = np.random.default_rng(5050_11)
        shared = [random_symbol(rng) for _ in range(3)]
        r = RationalMatrix([[shared[k] for k in rng.integers(0, 3, 4)] for _ in range(4)])
        for mat in (m, r, RationalMatrix([[z, z], [z, z]])):
            for pts in (CircleGrid(64).points, np.array([0.3, 2.0]), np.array([0.5j, -1.7])):
                want = np.array([[eval_on_grid(e, pts) for e in row] for row in mat.rows])
                assert np.array_equal(mat.eval_grid(pts), np.moveaxis(want, 2, 0))

    def test_recorded_matrices_evaluate_from_their_pieces(self):
        # C A and A C as the samples of A times C, blocks and diag
        # entries in place, also nested, against each entry's own
        # coefficients through eval_on_grid, within the roundoff of the
        # products' sums
        rng = np.random.default_rng(5050_12)
        m = RationalMatrix.block_diag(
            [random_matrix(rng, 2, 2), random_matrix(rng, 1, 1), random_matrix(rng, 2, 2)]
        )
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        swapped = random_matrix(rng, 2, 2).const_mul_left(c[:2, :2]).const_mul_right(c[2:4, 2:4])
        a, b = m[0, 0], m[2, 2]
        entries = RationalMatrix.diag([a.scale(2.0 + 1.0j), b, a, b, Zero])
        nested = RationalMatrix.block_diag([swapped, entries, swapped]).const_mul_right(
            np.kron(np.eye(3), c[:3, :3])
        )
        for mat in (m, m.const_mul_left(c), m.const_mul_right(c), entries, nested):
            for pts in (CircleGrid(64).points, np.array([0.3, 2.0, 0.5j, -1.7])):
                want = np.moveaxis(np.array([[eval_on_grid(e, pts) for e in row] for row in mat.rows]), 2, 0)
                got = GridEvaluator(mat)(pts)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        # the plan of C A evaluates A's distinct entries, one zero column
        # and the distinct denominators
        for mat in (m, m.const_mul_left(c)):
            live = {id(e): e for row in m.rows for e in row if not e.is_zero}
            dens = {e.den.coeffs.tobytes() for e in live.values()}
            assert GridEvaluator(mat).horner.shape[1] == len(live) + 1 + len(dens)

    def test_right_constant_is_one_product(self):
        # A C is evaluated as one (N n, n) by (n, n) product, with the
        # bits of numpy's product per point: for the plus factors of
        # planted triangular factorizations that keep the entry path (an
        # a4 block of degree 3 gets no corner, so a4's are diagonal), and
        # at orders 6 to 32
        pts = CircleGrid(512).points
        rng = np.random.default_rng(5050_14)
        cases = []
        for spec in ({"kind": "s3"}, {"kind": "q8"}, {"kind": "a4"}):
            for corner in ("upper", "lower"):
                repset, blocks = planted_blocks(spec, 3, corner)
                bd, f = BlockDiagonal(repset, tuple(blocks)), fourier_matrix(repset)
                fac = assemble_full_factorization(bd, [factor_block(b) for b in blocks], f)
                if not GridEvaluator(fac.plus).diagonal:
                    cases.append(fac.plus)
        assert len(cases) == 4
        for n in (6, 12, 24, 32):
            c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            cases.append(random_matrix(rng, n, n).const_mul_right(c))
        for mat in cases:
            core, c = mat.pieces
            assert np.array_equal(GridEvaluator(mat)(pts), GridEvaluator(core)(pts) @ c)

    def test_samples_are_points_first_in_c_order(self):
        # a product of samples reads each point's matrix contiguously
        rng = np.random.default_rng(5050_13)
        m = RationalMatrix.block_diag([random_matrix(rng, 2, 2), random_matrix(rng, 1, 1)])
        for mat in (m, m.const_mul_left(rng.normal(size=(3, 3)))):
            got = GridEvaluator(mat)(CircleGrid(64).points)
            assert got.shape == (64, 3, 3) and got.flags.c_contiguous

    def test_eval_grid_pole_on_grid(self):
        pole = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([-1.0]))
        m = RationalMatrix([[RationalSymbol.const(2.0), pole]])
        with pytest.raises(PoleOnGridError):
            m.eval_grid(CircleGrid(8))
        assert m.eval_grid(np.array([0.5]))[0, 0, 1] == pytest.approx(1 / 1.5)
