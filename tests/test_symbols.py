"""Laurent polynomials, rational symbols, and their series machinery.

Oracles used here are independent of the code under test:

* pointwise evaluation at random points for every arithmetic identity,
* an FFT of dense unit-circle samples for Laurent coefficients and
  frequency support (with poles kept >= 0.15 from the circle the
  aliasing error of a 2048-point FFT is far below the tolerances),
* closed-form geometric series for expansions at infinity,
* planted roots for the root finder and the winding count.
"""

import numpy as np
import pytest

from whsymm import (
    CircleGrid,
    DegreeCapError,
    LaurentPoly,
    NotInvertibleOnCircleError,
    PoleOnGridError,
    RationalSymbol,
    SymbolDivisionError,
    UndersampledError,
    annulus_coeffs,
    eval_on_grid,
    poly_roots,
    project_high,
    project_low,
    rational_arith,
    winding_index,
)
from whsymm import symbols
from whsymm.symbols import (
    _chop_support,
    coeffs_at_infinity,
    inside_excess,
    outside_excess,
    separate_poles,
    split_by_circle,
    taylor_coeffs,
)

from conftest import random_symbol


def random_points(rng, count=32):
    """Evaluation points spread over the annulus 0.3 <= |z| <= 2.5."""
    radii = rng.uniform(0.3, 2.5, size=count)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)


def random_laurent(rng, max_width=5):
    width = int(rng.integers(1, max_width + 1))
    coeffs = rng.normal(size=width) + 1j * rng.normal(size=width)
    coeffs[-1] += 1.0  # keep the leading coefficient away from zero
    return LaurentPoly(int(rng.integers(-3, 4)), coeffs)


def laurent_coeffs_fft(s, lo, hi, n=2048):
    """Laurent coefficients of s for frequencies lo..hi via a dense FFT."""
    vals = eval_on_grid(s, CircleGrid(n))
    spectrum = np.fft.fft(vals) / n
    return np.array([spectrum[k % n] for k in range(lo, hi + 1)])


# ----------------------------------------------------------------------
# LaurentPoly
# ----------------------------------------------------------------------


class TestLaurentPoly:
    def test_trims_to_sharp_degrees(self):
        p = LaurentPoly(-2, [0, 0, 1, 2, 0])
        assert p.min_deg == 0
        assert p.max_deg == 1
        assert np.array_equal(p.coeffs, np.array([1.0 + 0j, 2.0 + 0j]))

    def test_zero_is_canonical(self):
        for z in (LaurentPoly.zero(), LaurentPoly(5, [0.0, 0.0]), LaurentPoly(-3, [])):
            assert z.is_zero
            assert z.min_deg == 0
            assert z.coeffs.size == 0
        assert LaurentPoly.zero() == LaurentPoly(7, [0.0])

    def test_const_and_monomial(self):
        c = LaurentPoly.const(2.5)
        assert c.min_deg == 0 and c.max_deg == 0
        m = LaurentPoly.monomial(-4, 3.0)
        pts = np.array([0.5 + 0.1j, 2.0 - 1.0j])
        assert np.allclose(m(pts), 3.0 * pts**-4)

    def test_arithmetic_matches_pointwise(self):
        rng = np.random.default_rng(2024_01)
        pts = random_points(rng)
        for _ in range(50):
            p, q = random_laurent(rng), random_laurent(rng)
            assert np.allclose((p + q)(pts), p(pts) + q(pts), atol=1e-10)
            assert np.allclose((p - q)(pts), p(pts) - q(pts), atol=1e-10)
            assert np.allclose((p * q)(pts), p(pts) * q(pts), atol=1e-9)
            assert np.allclose((-p)(pts), -p(pts))
            assert np.allclose(p.scale(2.0 - 1.0j)(pts), (2.0 - 1.0j) * p(pts))
            assert np.allclose(p.shift(3)(pts), pts**3 * p(pts), atol=1e-9)

    def test_add_cancellation_trims(self):
        p = LaurentPoly(-1, [1.0, 2.0, 3.0])
        q = LaurentPoly(1, [-3.0])
        r = p + q
        assert r.min_deg == -1 and r.max_deg == 0

    def test_coeff_reads_any_frequency(self):
        p = LaurentPoly(-2, [5.0, 0.0, 7.0])
        assert p.coeff(-2) == 5.0
        assert p.coeff(-1) == 0.0
        assert p.coeff(0) == 7.0
        assert p.coeff(100) == 0.0
        assert p.coeff(-100) == 0.0

    def test_from_roots_vanishes_at_roots(self):
        rng = np.random.default_rng(2024_02)
        for _ in range(20):
            roots = random_points(rng, count=int(rng.integers(1, 5)))
            lead = complex(rng.normal(), rng.normal()) + 1.0
            p = LaurentPoly.from_roots(roots, lead)
            assert p.min_deg == 0
            assert p.coeffs.size == roots.size + 1
            assert p.coeffs[-1] == lead
            assert np.max(np.abs(p(roots))) < 1e-8 * np.max(np.abs(p.coeffs))
        assert np.array_equal(LaurentPoly.from_roots([]).coeffs, [1.0 + 0j])

    def test_equality_and_allclose(self):
        p = LaurentPoly(-1, [1.0, 2.0])
        assert p == LaurentPoly(-1, [1.0, 2.0])
        assert p != LaurentPoly(0, [1.0, 2.0])
        assert p.allclose(LaurentPoly(-1, [1.0 + 1e-14, 2.0]))
        assert not p.allclose(LaurentPoly(-1, [1.0 + 1e-6, 2.0]))


# ----------------------------------------------------------------------
# RationalSymbol
# ----------------------------------------------------------------------


    def test_signed_zeros_hash_equal(self):
        one = LaurentPoly.const(1.0)
        for a, b in (
            ([complex(1, -0.0), 2], [complex(1, 0.0), 2]),
            ([1, complex(-0.0, 0.0), 2], [1, 0, 2]),
        ):
            p, q = LaurentPoly(0, a), LaurentPoly(0, b)
            assert p == q and hash(p) == hash(q) and q in {p}
            for x, y in (
                (RationalSymbol(p), RationalSymbol(q)),
                (RationalSymbol(one, p), RationalSymbol(one, q)),
            ):
                assert x == y and hash(x) == hash(y) and y in {x}


class TestRationalSymbol:
    def test_denominator_is_canonical(self):
        rng = np.random.default_rng(2024_03)
        pts = random_points(rng, count=16)
        for _ in range(40):
            num = random_laurent(rng)
            den = random_laurent(rng)
            s = RationalSymbol(num, den)
            assert s.den.min_deg == 0
            assert s.den.coeffs[0] != 0.0
            assert s.den.coeffs[-1] == 1.0
            assert np.allclose(s(pts), num(pts) / den(pts), atol=1e-9)

    def test_zero_symbol(self):
        z = RationalSymbol.zero()
        assert z.is_zero and z.is_const_den
        assert RationalSymbol(LaurentPoly.zero(), LaurentPoly(0, [3.0])).is_zero
        assert np.array_equal(z(np.array([1.0, 2.0])), [0.0, 0.0])

    def test_zero_denominator_rejected(self):
        with pytest.raises(SymbolDivisionError):
            RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.zero())

    def test_arithmetic_matches_pointwise(self):
        rng = np.random.default_rng(2024_04)
        pts = random_points(rng, count=16)
        for _ in range(40):
            x = random_symbol(rng)
            y = random_symbol(rng)
            fx, fy = x(pts), y(pts)
            assert np.allclose((x + y)(pts), fx + fy, atol=1e-8)
            assert np.allclose((x - y)(pts), fx - fy, atol=1e-8)
            assert np.allclose((x * y)(pts), fx * fy, atol=1e-8)
            if not y.is_zero:
                assert np.allclose((x / y)(pts), fx / fy, atol=1e-7)
            assert np.allclose(x.shift(-2)(pts), fx * pts**-2, atol=1e-8)
            assert np.allclose(x.scale(1j)(pts), 1j * fx)

    def test_scale_remembers_its_source(self):
        x = RationalSymbol(LaurentPoly(-1, [1.0, 2.0j]), LaurentPoly.from_roots([0.5]))
        assert x._base is None
        y = x.scale(2.0)
        assert y._base[0] is x and y._base[1] == 2.0
        # a chained scale folds into one factor on the first source
        z = y.scale(-1j)
        assert z._base[0] is x and z._base[1] == -2.0j
        assert z == RationalSymbol(LaurentPoly(-1, [-2.0j, 4.0]), x.den)
        assert x.scale(0.0)._base is None and (x + y)._base is None

    def test_rational_arith_dispatch(self):
        x = RationalSymbol.monomial(1)
        y = RationalSymbol.const(2.0)
        pts = np.array([0.7 + 0.1j])
        for op, ref in (
            ("add", pts + 2),
            ("sub", pts - 2),
            ("mul", 2 * pts),
            ("div", pts / 2),
        ):
            assert np.allclose(rational_arith(op, x, y)(pts), ref)
        with pytest.raises(ValueError):
            rational_arith("pow", x, y)

    def test_division_by_zero_symbol(self):
        with pytest.raises(SymbolDivisionError):
            RationalSymbol.const(1.0) / RationalSymbol.zero()

    def test_allclose_across_denominators(self):
        # t / (t - 2) written two ways
        a = RationalSymbol(LaurentPoly.monomial(1), LaurentPoly(0, [-2.0, 1.0]))
        b = RationalSymbol(
            LaurentPoly.monomial(1) * LaurentPoly(0, [1.0, 1.0]),
            LaurentPoly(0, [-2.0, 1.0]) * LaurentPoly(0, [1.0, 1.0]),
        )
        assert a.allclose(b)
        assert not a.allclose(b + RationalSymbol.const(1e-6))


# ----------------------------------------------------------------------
# CircleGrid and evaluation
# ----------------------------------------------------------------------


class TestGrid:
    def test_size_must_be_power_of_two_at_least_eight(self):
        for bad in (0, 4, 7, 12, 100):
            with pytest.raises(ValueError):
                CircleGrid(bad)
        g = CircleGrid(8)
        assert g.n == 8
        assert np.allclose(g.points**8, 1.0)

    def test_points_are_computed_once_per_size(self):
        for n in (8, 512, 1 << 14):
            g = CircleGrid(n)
            assert np.array_equal(g.points, np.exp(2j * np.pi * np.arange(n) / n))
            assert not g.points.flags.writeable
            assert CircleGrid(n).points is g.points
        with pytest.raises(ValueError):
            CircleGrid(8).points[0] = 0.0

    def test_eval_matches_direct_call(self):
        rng = np.random.default_rng(2024_05)
        g = CircleGrid(64)
        for _ in range(10):
            s = random_symbol(rng)
            assert np.allclose(eval_on_grid(s, g), s(g.points), atol=1e-12)

    def test_eval_accepts_plain_arrays(self):
        s = RationalSymbol.monomial(2)
        pts = np.array([0.5, 1.0j])
        assert np.allclose(eval_on_grid(s, pts), pts**2)

    def test_pole_on_grid_point_is_rejected(self):
        # pole exactly at t = 1, which every grid contains
        s = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly(0, [-1.0, 1.0]))
        with pytest.raises(PoleOnGridError):
            eval_on_grid(s, CircleGrid(16))


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------


class TestPolyRoots:
    def test_recovers_planted_simple_roots(self):
        rng = np.random.default_rng(2024_06)
        for _ in range(25):
            count = int(rng.integers(1, 6))
            # enforce pairwise separation so multiplicities stay 1
            roots = []
            while len(roots) < count:
                z = complex(rng.uniform(0.3, 2.0) * np.exp(2j * np.pi * rng.random()))
                if all(abs(z - w) > 0.05 for w in roots):
                    roots.append(z)
            p = LaurentPoly.from_roots(roots, 2.0 - 1.0j)
            found = poly_roots(p)
            assert sorted(m for _, m in found) == [1] * count
            got = sorted(found, key=lambda rm: (rm[0].real, rm[0].imag))
            want = sorted(roots, key=lambda z: (z.real, z.imag))
            for (g, _), w in zip(got, want):
                assert abs(g - w) < 1e-7

    def test_merges_root_clusters(self):
        # a numeric double root scatters by ~1e-7, so ask for clustering
        # at a width above that but far below the root separation
        r = 0.6 + 0.3j
        p = LaurentPoly.from_roots([r, r, 2.0], 1.0)
        found = poly_roots(p, cluster_tol=1e-5)
        assert sorted(m for _, m in found) == [1, 2]
        double = next(root for root, m in found if m == 2)
        assert abs(double - r) < 1e-6

    def test_ignores_power_of_t(self):
        p = LaurentPoly.from_roots([0.5], 1.0).shift(-3)
        assert poly_roots(p) == poly_roots(LaurentPoly.from_roots([0.5], 1.0))

    def test_constant_has_no_roots(self):
        assert poly_roots(LaurentPoly.const(4.0)) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(LaurentPoly.zero())

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            poly_roots(LaurentPoly(0, np.ones(66)))


# ----------------------------------------------------------------------
# Winding index
# ----------------------------------------------------------------------


def brute_turns(s, n=4096):
    """Independent argument-principle estimate: total phase in turns."""
    vals = s(np.exp(2j * np.pi * np.arange(n) / n))
    return float(np.sum(np.angle(np.roll(vals, -1) / vals)) / (2.0 * np.pi))


class TestWindingIndex:
    def test_matches_planted_root_count(self):
        rng = np.random.default_rng(2024_07)
        for _ in range(40):
            n_in = int(rng.integers(0, 3))
            n_out = int(rng.integers(0, 3))
            d_in = int(rng.integers(0, 2))
            d_out = int(rng.integers(0, 2))
            shift = int(rng.integers(-2, 3))
            mk = lambda r: complex(r * np.exp(2j * np.pi * rng.random()))
            num = LaurentPoly.from_roots(
                [mk(rng.uniform(0.2, 0.8)) for _ in range(n_in)]
                + [mk(rng.uniform(1.25, 3.0)) for _ in range(n_out)],
                1.5 - 0.5j,
            ).shift(shift)
            den = LaurentPoly.from_roots(
                [mk(rng.uniform(0.2, 0.8)) for _ in range(d_in)]
                + [mk(rng.uniform(1.25, 3.0)) for _ in range(d_out)],
                1.0,
            )
            s = RationalSymbol(num, den)
            want = n_in - d_in + shift
            assert winding_index(s) == want
            assert abs(brute_turns(s) - want) < 0.05

    def test_monomials(self):
        for k in range(-4, 5):
            assert winding_index(RationalSymbol.monomial(k, 3.0j)) == k

    def test_circle_zero_rejected(self):
        s = RationalSymbol.from_poly(LaurentPoly.from_roots([1.0j], 1.0))
        with pytest.raises(NotInvertibleOnCircleError):
            winding_index(s)

    def test_circle_pole_rejected(self):
        s = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([-1.0], 1.0))
        with pytest.raises(NotInvertibleOnCircleError):
            winding_index(s)

    def test_zero_symbol_rejected(self):
        with pytest.raises(NotInvertibleOnCircleError):
            winding_index(RationalSymbol.zero())

    def test_phase_sum_disagreement_is_undersampling(self, monkeypatch):
        # samples that wind five times around a symbol whose roots say one
        monkeypatch.setattr(symbols, "eval_on_grid", lambda s, grid: grid.points**5)
        with pytest.raises(UndersampledError, match="disagrees"):
            winding_index(RationalSymbol.monomial(1))

    def test_exact_zero_sample_is_declined(self, monkeypatch):
        def with_zero(s, grid):
            vals = grid.points.copy()
            vals[3] = 0.0
            return vals

        monkeypatch.setattr(symbols, "eval_on_grid", with_zero)
        with pytest.raises(UndersampledError, match="disagrees"):
            winding_index(RationalSymbol.monomial(1))

    def test_a_sudden_fall_is_not_certified(self):
        # one neighbour falls to 0.6 of its sample (|q - 1| = 0.4 passes
        # the forward test), and the loop climbs back in six small steps;
        # only the backward test |1/q - 1| = 2/3 sees the fall
        q = np.array([0.6] + [0.6 ** (-1 / 6)] * 6)
        assert symbols.phase_winding(q)[0] is None
        assert symbols.phase_winding(q ** 0.5) == (0, 0.0)

    def test_root_clusters_near_the_circle_are_right_or_declined(self):
        # the root finder scatters an m-fold root by about eps**(1/m), so
        # a cluster this close to the circle can be split across it; the
        # index is then either right or declined, never a wrong integer
        wrong = []
        for m in range(2, 7):
            for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                for side in (-1, 1):
                    for theta in (0.0, 0.8, 2.1, 4.4):
                        r = (1.0 + side * d) * np.exp(1j * theta)
                        s = RationalSymbol.from_poly(LaurentPoly.from_roots([r] * m))
                        try:
                            got = winding_index(s)
                        except (UndersampledError, NotInvertibleOnCircleError):
                            continue
                        if got != (m if side < 0 else 0):
                            wrong.append((m, d, side, theta, got))
        assert wrong == []


class TestRootSplit:
    def test_split_keeps_multiplicity_and_root_order(self):
        p = LaurentPoly.from_roots([2.0, 0.5j, 0.5j, -3.0, 0.25], 2.0).shift(-2)
        inside, outside = split_by_circle(p)
        order = [r for r, m in poly_roots(p) for _ in range(m)]
        assert inside == [r for r in order if abs(r) < 1]
        assert outside == [r for r in order if abs(r) > 1]
        assert len(inside) == 3 and len(outside) == 2

    def test_split_rejects_a_root_near_the_circle(self):
        with pytest.raises(NotInvertibleOnCircleError, match="root"):
            split_by_circle(LaurentPoly.from_roots([0.5, 1.0 + 1e-9]))

    def test_roots_are_found_once_per_polynomial(self, monkeypatch):
        calls = []
        real = symbols.poly_roots
        monkeypatch.setattr(symbols, "poly_roots", lambda p: calls.append(p) or real(p))
        den = LaurentPoly.from_roots([0.5, 2.0])
        entries = [RationalSymbol(LaurentPoly.const(c), den) for c in (1.0, 2.0, 3.0)]
        for e in entries:
            winding_index(e)
            separate_poles(e)
            assert outside_excess(e.den) == pytest.approx(1.0, abs=1e-7)
            assert inside_excess(e.den) == pytest.approx(0.5, abs=1e-7)
        # one call for the shared denominator, one per constant numerator
        assert calls.count(den) == 1 and len(calls) == 4


# ----------------------------------------------------------------------
# Series expansions
# ----------------------------------------------------------------------


class TestSeries:
    def test_taylor_matches_fft(self):
        rng = np.random.default_rng(2024_08)
        for _ in range(20):
            # analytic in the closed disk: poles outside only
            num = random_laurent(rng)
            num = num.shift(-num.min_deg) if num.min_deg < 0 else num
            den_roots = [
                complex(rng.uniform(1.3, 3.0) * np.exp(2j * np.pi * rng.random()))
                for _ in range(int(rng.integers(0, 3)))
            ]
            s = RationalSymbol(num, LaurentPoly.from_roots(den_roots, 1.0))
            got = taylor_coeffs(s, 12)
            want = laurent_coeffs_fft(s, 0, 11)
            assert np.allclose(got, want, atol=1e-10)

    def test_taylor_rejects_pole_at_origin(self):
        with pytest.raises(ValueError):
            taylor_coeffs(RationalSymbol.monomial(-1), 4)

    def test_infinity_coeffs_geometric_series(self):
        # c / (t - a) = sum_{k>=0} c a^k t^(-k-1), |a| < 1
        rng = np.random.default_rng(2024_09)
        for _ in range(10):
            a = complex(rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random()))
            b = complex(rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random()))
            ca = complex(rng.normal(), rng.normal())
            cb = complex(rng.normal(), rng.normal())
            s = RationalSymbol(
                LaurentPoly.const(ca), LaurentPoly.from_roots([a], 1.0)
            ) + RationalSymbol(LaurentPoly.const(cb), LaurentPoly.from_roots([b], 1.0))
            got = coeffs_at_infinity(s, 10)
            want = np.array([ca * a**k + cb * b**k for k in range(10)])
            assert np.allclose(got, want, atol=1e-12)

    def test_infinity_rejects_nonvanishing(self):
        with pytest.raises(ValueError):
            coeffs_at_infinity(RationalSymbol.const(1.0), 4)

    def test_annulus_coeffs_match_fft(self):
        rng = np.random.default_rng(2024_10)
        for _ in range(25):
            s = random_symbol(rng)
            if s.is_zero:
                continue
            got = annulus_coeffs(s, -8, 8)
            want = laurent_coeffs_fft(s, -8, 8)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) < 1e-10 * scale

    def test_annulus_empty_range(self):
        assert annulus_coeffs(RationalSymbol.const(1.0), 3, 2).size == 0


# ----------------------------------------------------------------------
# Pole separation and frequency projections
# ----------------------------------------------------------------------


def support_leak(s, lo=None, hi=None, n=2048):
    """Largest FFT coefficient of s outside the frequency window lo..hi,
    relative to the largest inside (0 when s vanishes identically)."""
    vals = eval_on_grid(s, CircleGrid(n))
    spectrum = np.abs(np.fft.fft(vals) / n)
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    inside = np.ones(n, dtype=bool)
    if lo is not None:
        inside &= freqs >= lo
    if hi is not None:
        inside &= freqs <= hi
    top = float(np.max(spectrum[inside])) if np.any(inside) else 0.0
    out = float(np.max(spectrum[~inside])) if np.any(~inside) else 0.0
    return out / max(top, 1e-300) if out else 0.0


class TestSplitting:
    def test_separate_poles_sum_and_support(self):
        rng = np.random.default_rng(2024_11)
        g = CircleGrid(256)
        for _ in range(30):
            s = random_symbol(rng)
            minus, plus = separate_poles(s)
            recon = np.abs(eval_on_grid(minus + plus, g) - eval_on_grid(s, g))
            scale = max(1.0, float(np.max(np.abs(eval_on_grid(s, g)))))
            assert float(np.max(recon)) < 1e-9 * scale
            if not minus.is_zero:
                assert support_leak(minus, hi=-1) < 1e-9
                # vanishes at infinity
                assert abs(minus(np.array([1e7]))[0]) < 1e-5
            if not plus.is_zero:
                assert support_leak(plus, lo=0) < 1e-9

    def test_separate_poles_laurent_polynomial(self):
        p = RationalSymbol.from_poly(LaurentPoly(-2, [1.0, 2.0, 3.0, 4.0]))
        minus, plus = separate_poles(p)
        assert minus == RationalSymbol.from_poly(LaurentPoly(-2, [1.0, 2.0]))
        assert plus == RationalSymbol.from_poly(LaurentPoly(0, [3.0, 4.0]))

    def test_separate_poles_zero(self):
        minus, plus = separate_poles(RationalSymbol.zero())
        assert minus.is_zero and plus.is_zero

    def test_separate_poles_circle_pole_rejected(self):
        s = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([1.0], 1.0))
        with pytest.raises(NotInvertibleOnCircleError):
            separate_poles(s)

    def test_projections_split_and_support(self):
        rng = np.random.default_rng(2024_12)
        g = CircleGrid(256)
        for _ in range(25):
            s = random_symbol(rng)
            if s.is_zero:
                continue
            sv = eval_on_grid(s, g)
            scale = max(1.0, float(np.max(np.abs(sv))))
            for k in (-3, -1, 0, 1, 3):
                low = project_low(s, k)
                high = project_high(s, k + 1)
                recon = eval_on_grid(low, g) + eval_on_grid(high, g)
                assert float(np.max(np.abs(recon - sv))) < 1e-8 * scale
                if not low.is_zero:
                    assert support_leak(low, hi=k) < 1e-8
                if not high.is_zero:
                    assert support_leak(high, lo=k + 1) < 1e-8

    def test_projection_idempotent(self):
        rng = np.random.default_rng(2024_13)
        for _ in range(10):
            s = random_symbol(rng)
            if s.is_zero:
                continue
            for k in (-2, 0, 2):
                low = project_low(s, k)
                assert project_low(low, k).allclose(low, tol=1e-9)
                high = project_high(s, k)
                assert project_high(high, k).allclose(high, tol=1e-9)

    def test_violated_support_bound_is_ill_posed(self):
        # a t^0 coefficient of 1 cannot be roundoff for content >= 1
        s = RationalSymbol(LaurentPoly(0, [1.0, 1.0]))
        with pytest.raises(NotInvertibleOnCircleError, match="support"):
            _chop_support(s, 1, None, 1.0)

    def test_projection_beyond_support_is_identity(self):
        p = RationalSymbol.from_poly(LaurentPoly(-1, [1.0, 2.0, 3.0]))
        assert project_low(p, 5).allclose(p)
        assert project_high(p, -4).allclose(p)
        assert project_low(p, -5).is_zero
        assert project_high(p, 6).is_zero
