"""Scalar factorization engines.

Oracles: planted zero/pole counts fix the index; the reconstruction is
checked by pointwise evaluation; analyticity and normalization of the
exact factors are probed by direct evaluation on out-of-circle radii
(never through the library's own root bookkeeping); the grid engine is
checked against closed-form factors of symbols whose logarithm has a
one-sided Fourier series by construction.
"""

import numpy as np
import pytest

from whsymm import (
    CircleGrid,
    LaurentPoly,
    MatrixFactorization,
    NotInvertibleOnCircleError,
    RationalMatrix,
    RationalSymbol,
    ScalarFactorization,
    UndersampledError,
    factor_grid,
    factor_rational,
    verify_matrix_factorization,
    verify_scalar,
)
from whsymm.symbols import split_by_circle

from conftest import random_symbol, richer_symbol


def planted_symbol(rng):
    """A symbol built from roots the test itself keeps track of.

    Returns (symbol, zeros_in, zeros_out, poles_in, poles_out, shift,
    lead); the winding index must equal len(zeros_in) - len(poles_in)
    + shift.
    """
    mk_in = lambda: complex(rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random()))
    mk_out = lambda: complex(rng.uniform(1.25, 3.0) * np.exp(2j * np.pi * rng.random()))
    zeros_in = [mk_in() for _ in range(int(rng.integers(0, 3)))]
    zeros_out = [mk_out() for _ in range(int(rng.integers(0, 3)))]
    poles_in = [mk_in() for _ in range(int(rng.integers(0, 2)))]
    poles_out = [mk_out() for _ in range(int(rng.integers(0, 2)))]
    shift = int(rng.integers(-2, 3))
    lead = complex(rng.normal(), rng.normal()) + 1.5
    s = RationalSymbol(
        LaurentPoly.from_roots(zeros_in + zeros_out, lead).shift(shift),
        LaurentPoly.from_roots(poles_in + poles_out),
    )
    return s, zeros_in, zeros_out, poles_in, poles_out, shift, lead


def radial_probe(rng, lo, hi, count=200):
    radii = rng.uniform(lo, hi, size=count)
    return radii * np.exp(2j * np.pi * rng.random(count))


class TestFactorRational:
    def test_planted_corpus(self):
        rng = np.random.default_rng(3030_01)
        grid = CircleGrid(256)
        outside = radial_probe(rng, 1.0, 4.0)
        inside = radial_probe(rng, 0.05, 1.0)
        for _ in range(60):
            s, z_in, _, p_in, _, shift, _ = planted_symbol(rng)
            fac = factor_rational(s)
            assert fac.index == len(z_in) - len(p_in) + shift

            target = s(grid.points)
            recon = (
                fac.minus(grid.points) * grid.points**fac.index * fac.plus(grid.points)
            )
            scale = max(1.0, float(np.max(np.abs(target))))
            assert float(np.max(np.abs(recon - target))) < 1e-10 * scale

            # minus is invertible on |t| >= 1 and tends to 1 at infinity
            mv = fac.minus(outside)
            assert np.all(np.isfinite(mv)) and np.all(np.abs(mv) > 1e-12)
            assert abs(fac.minus(np.array([1e9]))[0] - 1.0) < 1e-6

            # plus is invertible on |t| <= 1 (including t = 0)
            pv = fac.plus(np.concatenate([inside, [0.0]]))
            assert np.all(np.isfinite(pv)) and np.all(np.abs(pv) > 1e-12)

    def test_monomial(self):
        fac = factor_rational(RationalSymbol.monomial(-3, 2.0j))
        assert fac.index == -3
        assert fac.minus.allclose(RationalSymbol.const(1.0))
        assert fac.plus.allclose(RationalSymbol.const(2.0j))

    def test_zero_symbol_rejected(self):
        with pytest.raises(NotInvertibleOnCircleError):
            factor_rational(RationalSymbol.zero())

    def test_circle_root_rejected(self):
        s = RationalSymbol.from_poly(LaurentPoly.from_roots([1.0j]))
        with pytest.raises(NotInvertibleOnCircleError):
            factor_rational(s)


class TestFactorGrid:
    def test_closed_form_factors(self):
        # s(t) = (1 - a/t) * c * (1 - b t) with |a|, |b| < 1 factors as
        # minus = 1 - a/t (log has only negative frequencies, value 1 at
        # infinity), rho = 0, plus = c (1 - b t).
        rng = np.random.default_rng(3030_02)
        pts = CircleGrid(512).points
        for _ in range(20):
            a = complex(rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.random()))
            b = complex(rng.uniform(0.1, 0.7) * np.exp(2j * np.pi * rng.random()))
            c = complex(rng.normal(), rng.normal()) + 1.5
            samples = (1 - a / pts) * c * (1 - b * pts)
            minus, rho, plus = factor_grid(samples)
            assert rho == 0
            assert float(np.max(np.abs(minus - (1 - a / pts)))) < 1e-10
            assert float(np.max(np.abs(plus - c * (1 - b * pts)))) < 1e-10

    def test_winding_read_from_samples(self):
        pts = CircleGrid(128).points
        for k in (-3, -1, 0, 2, 5):
            minus, rho, plus = factor_grid(2.0 * pts**k)
            assert rho == k
            assert float(np.max(np.abs(minus - 1.0))) < 1e-12
            assert float(np.max(np.abs(plus - 2.0))) < 1e-12

    def test_product_reconstructs(self):
        rng = np.random.default_rng(3030_03)
        grid = CircleGrid(1024)
        for _ in range(20):
            s = richer_symbol(rng)
            try:
                samples = s(grid.points)
                if np.any(np.abs(samples) < 1e-8):
                    continue
                minus, rho, plus = factor_grid(samples)
            except (NotInvertibleOnCircleError, UndersampledError):
                continue
            recon = minus * grid.points**rho * plus
            scale = float(np.max(np.abs(samples)))
            assert float(np.max(np.abs(recon - samples))) < 1e-8 * scale

    def test_input_validation(self):
        with pytest.raises(ValueError):
            factor_grid(np.ones(63))
        with pytest.raises(ValueError):
            factor_grid(np.ones(100))
        with pytest.raises(ValueError):
            factor_grid(np.ones((64, 2)))
        bad = np.ones(64, dtype=complex)
        bad[5] = 0.0
        with pytest.raises(NotInvertibleOnCircleError):
            factor_grid(bad)

    def test_double_zero_between_grid_points_is_undersampled(self):
        # (t - 0.999 e^{i pi/64})^2 winds twice, but between two of the 64
        # points its phase turns by a whole turn that no step shows
        pts = CircleGrid(64).points
        samples = 3.0 * (pts - 0.999 * np.exp(1j * np.pi / 64)) ** 2
        with pytest.raises(UndersampledError):
            factor_grid(samples)

    def test_nyquist_violation_is_undersampled(self):
        # t**40 on 64 points advances 3.9 rad per step, far past the
        # branch cut; the winding cannot be read at this rate
        samples = CircleGrid(64).points ** 40
        with pytest.raises(UndersampledError):
            factor_grid(samples)


class TestVerifyScalar:
    def good(self):
        s = RationalSymbol(
            LaurentPoly.from_roots([0.4, 1.7 + 0.2j], 2.0).shift(-1),
            LaurentPoly.from_roots([0.3j]),
        )
        return s, factor_rational(s)

    def test_passes_on_correct_factorization(self):
        s, fac = self.good()
        report = verify_scalar(s, fac)
        assert report.passed
        assert all(c.passed for c in report.checks)

    def test_catches_swapped_factors(self):
        s, fac = self.good()
        swapped = type(fac)(minus=fac.plus, index=fac.index, plus=fac.minus)
        report = verify_scalar(s, swapped)
        failed = {c.name for c in report.checks if not c.passed}
        assert "minus_entries_analytic" in failed
        assert "plus_entries_analytic" in failed

    def test_catches_wrong_index(self):
        s, fac = self.good()
        bumped = type(fac)(minus=fac.minus, index=fac.index + 1, plus=fac.plus)
        report = verify_scalar(s, bumped)
        failed = {c.name for c in report.checks if not c.passed}
        assert "index_sum" in failed and "reconstruction" in failed

    def test_index_check_does_not_trust_winding_index(self, monkeypatch):
        # the index check counts the target's own zeros, so a
        # winding_index that agrees with a wrong index does not pass it
        from whsymm import scalar, symbols

        s, fac = self.good()
        bumped = type(fac)(minus=fac.minus, index=fac.index + 1, plus=fac.plus)
        for module in (scalar, symbols):
            monkeypatch.setattr(module, "winding_index", lambda _s: bumped.index)
        index = next(c for c in verify_scalar(s, bumped).checks if c.name == "index_sum")
        assert not index.passed
        index = next(c for c in verify_scalar(s, fac).checks if c.name == "index_sum")
        assert index.passed

    def test_catches_denormalized_minus(self):
        s, fac = self.good()
        off = type(fac)(minus=fac.minus.scale(2.0), index=fac.index, plus=fac.plus)
        report = verify_scalar(s, off)
        failed = {c.name for c in report.checks if not c.passed}
        assert "minus_normalized_at_infinity" in failed

    def test_miscounted_cluster_fails_the_index_check(self):
        # (t - 0.9999 e^{0.8i})^4: every zero is inside, but the root
        # finder scatters the cluster across the circle
        s = RationalSymbol.from_poly(LaurentPoly.from_roots([0.9999 * np.exp(0.8j)] * 4))
        inside, outside = split_by_circle(s.num)
        assert len(inside) != 4
        fac = ScalarFactorization(
            minus=RationalSymbol(LaurentPoly.from_roots(inside).shift(-len(inside))),
            index=len(inside),
            plus=RationalSymbol.from_poly(LaurentPoly.from_roots(outside)),
        )
        report = verify_scalar(s, fac)
        index = next(c for c in report.checks if c.name == "index_sum")
        assert not index.passed and "nearly vanishes" in index.detail
        assert all(c.passed for c in report.checks if c.name != "index_sum")

    @pytest.mark.parametrize("d", [1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_simple_zero_near_the_circle_passes(self, d, side):
        # 2 (t - a)(t - 1.7) / (t - 0.3i) with |a| = 1 -+ d: the sampled
        # winding of the target would need more than 2^17 points, the
        # eigenvalue count of its simple zero needs none
        a = (1.0 + side * d) * np.exp(0.8j)
        pole = LaurentPoly.from_roots([0.3j])
        s = RationalSymbol(LaurentPoly.from_roots([a, 1.7], 2.0), pole)
        if side < 0:
            fac = ScalarFactorization(
                minus=RationalSymbol(LaurentPoly.from_roots([a]), pole),
                index=0,
                plus=RationalSymbol.from_poly(LaurentPoly.from_roots([1.7], 2.0)),
            )
        else:
            fac = ScalarFactorization(
                minus=RationalSymbol(LaurentPoly.monomial(1), pole),
                index=-1,
                plus=RationalSymbol.from_poly(LaurentPoly.from_roots([a, 1.7], 2.0)),
            )
        report = verify_scalar(s, fac)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize(
        "case, name, detail",
        [
            ("plus zero at 0", "det_plus_invertible", ""),
            ("minus zero at infinity", "det_minus_invertible", ""),
            ("zero minus", "det_minus_invertible", "det nearly vanishes"),
            ("zero plus", "det_plus_invertible", "det nearly vanishes"),
        ],
    )
    def test_determinant_checks_are_not_vacuous(self, case, name, detail):
        s, fac = self.good()
        bad = {
            "plus zero at 0": ScalarFactorization(
                fac.minus, fac.index - 1, fac.plus * RationalSymbol.monomial(1)
            ),
            "minus zero at infinity": ScalarFactorization(
                fac.minus * RationalSymbol.monomial(-1), fac.index + 1, fac.plus
            ),
            "zero minus": ScalarFactorization(RationalSymbol.zero(), fac.index, fac.plus),
            "zero plus": ScalarFactorization(fac.minus, fac.index, RationalSymbol.zero()),
        }[case]
        check = next(c for c in verify_scalar(s, bad).checks if c.name == name)
        assert not check.passed and detail in check.detail

    def test_one_path_with_the_matrix_verifier(self):
        # the scalar report is the 1 x 1 matrix report plus the
        # normalization check, and nothing else
        rng = np.random.default_rng(3030_04)
        for _ in range(50):
            s = random_symbol(rng)
            fac = factor_rational(s)
            one = MatrixFactorization(
                RationalMatrix([[fac.minus]]), (fac.index,), RationalMatrix([[fac.plus]])
            )
            checks = verify_scalar(s, fac).checks
            assert checks[:-1] == verify_matrix_factorization(RationalMatrix([[s]]), one).checks
            assert checks[-1].name == "minus_normalized_at_infinity"
