"""Matrices of rational symbols.

The oracle throughout is pointwise evaluation: every exact-arithmetic
result (product, determinant) must match the corresponding numpy
computation on sampled values.
"""

import numpy as np
import pytest

from whsymm import CircleGrid, LaurentPoly, PoleOnGridError, RationalMatrix, RationalSymbol
from whsymm.ratmat import GridEvaluator, Zero
from whsymm.symbols import eval_on_grid

from conftest import random_symbol


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
        # the n-term sums, zero terms included, as a plain reference
        def left(c, m):
            out = [[Zero] * m.shape[1] for _ in range(c.shape[0])]
            for i in range(c.shape[0]):
                for j in range(m.shape[1]):
                    for p in range(c.shape[1]):
                        if c[i, p] != 0:
                            out[i][j] = out[i][j] + m[p, j].scale(c[i, p])
            return out

        rng = np.random.default_rng(5050_10)
        m = RationalMatrix.block_diag(
            [random_matrix(rng, 2, 2), random_matrix(rng, 1, 1), random_matrix(rng, 2, 2)]
        )
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        c[1, 3] = c[4, 0] = 0.0
        assert m.const_mul_left(c).rows == left(c, m)
        want_right = left(c.T, m.transpose())
        assert m.const_mul_right(c).transpose().rows == want_right

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

    def test_scaled_entries_evaluate_from_their_source(self):
        # factor times the source's values, against each entry's own
        # coefficients through eval_on_grid
        rng = np.random.default_rng(5050_12)
        m = RationalMatrix.block_diag(
            [random_matrix(rng, 2, 2), random_matrix(rng, 1, 1), random_matrix(rng, 2, 2)]
        )
        c = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a, b = m[0, 0], m[2, 2]
        chained = RationalMatrix.diag(
            [a.scale(2.0 + 1.0j).scale(-0.3j), b.scale(1e-3), a.scale(3.0), b, Zero]
        )
        for mat in (m.const_mul_left(c), m.const_mul_right(c), chained):
            ev = GridEvaluator(mat)
            assert ev.factor is not None
            for pts in (CircleGrid(64).points, np.array([0.3, 2.0, 0.5j, -1.7])):
                want = np.array([[eval_on_grid(e, pts) for e in row] for row in mat.rows])
                want = np.moveaxis(want, 2, 0)
                got = ev(pts)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # the two sources a and b of the chained matrix, the zero column
        # and the denominators
        dens = {e.den.coeffs.tobytes() for e in (a, b)}
        assert GridEvaluator(chained).horner.shape[1] == 2 + 1 + len(dens)

    def test_eval_grid_pole_on_grid(self):
        pole = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([-1.0]))
        m = RationalMatrix([[RationalSymbol.const(2.0), pole]])
        with pytest.raises(PoleOnGridError):
            m.eval_grid(CircleGrid(8))
        assert m.eval_grid(np.array([0.5]))[0, 0, 1] == pytest.approx(1 / 1.5)
