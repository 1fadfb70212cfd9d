"""The factorization verifier and the sampled determinant-winding oracle.

The winding oracle is probed with matrices whose determinant zeros are
planted by construction, including the adversarial configurations a
sampled method can get wrong: high-multiplicity clusters just off the
circle.  For clusters the oracle cannot resolve below its grid cap the
required behavior is an exception, never a silently wrong integer.
Verifier checks are exercised with deliberate mutations of a correct
factorization, one designated failing check per mutation.
"""

import tracemalloc

import numpy as np
import pytest

from whsymm import (
    Check,
    CircleGrid,
    GroupSymbol,
    LaurentPoly,
    NotInvertibleOnCircleError,
    PoleOnGridError,
    RationalMatrix,
    RationalSymbol,
    UndersampledError,
    VerificationReport,
    assemble_matrix,
    build_group,
    det_index_oracle,
    factor_group_symbol,
    factor_triangular_2x2,
    unitarity_check,
    verify_matrix_factorization,
)
from whsymm import verify
from whsymm.blocks import MatrixFactorization
from whsymm.ratmat import GridEvaluator, diag_power_eval

DECLINE = (UndersampledError, NotInvertibleOnCircleError)

# fixed unitary so planted determinants live in dense 2x2 matrices
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def planted_det_matrix(roots, extra=None):
    """A dense 2x2 matrix whose determinant is prod (t - r) times the
    determinant of the benign second diagonal entry."""
    p = RationalSymbol.from_poly(LaurentPoly.from_roots(roots))
    other = extra if extra is not None else RationalSymbol.const(1.0)
    z = RationalSymbol.zero()
    m = RationalMatrix([[p, z], [z, other]])
    return m.const_mul_left(HADAMARD).const_mul_right(HADAMARD.T)


class TestCheckMechanics:
    def test_pass_is_inclusive_of_tolerance(self):
        assert Check("x", 1e-10, 1e-10).passed
        assert not Check("x", 1.0000001e-10, 1e-10).passed

    def test_render_contents(self):
        line = Check("recon", 0.125, 0.5, detail="why").render()
        assert "check=recon" in line
        assert "residual=0.125" in line
        assert "verdict=pass" in line
        assert "detail=why" in line
        assert "verdict=fail" in Check("recon", 2.0, 0.5).render()

    def test_report_aggregation(self):
        good = Check("a", 0.0, 1.0)
        bad = Check("b", 2.0, 1.0)
        ok = VerificationReport((good,), subject="s")
        assert ok.passed and bool(ok)
        mixed = VerificationReport((good, bad))
        assert not mixed.passed and not bool(mixed)
        text = mixed.to_text()
        assert text.count("check=") == 2
        assert text.endswith("overall=fail")
        assert ok.to_text().splitlines()[0] == "subject=s"

    def test_unitarity_check(self):
        assert unitarity_check(HADAMARD).passed
        assert not unitarity_check(1.01 * HADAMARD).passed
        assert unitarity_check(np.eye(3), name="f").checks[0].name == "f"

    def test_reconstruction_residual_over_chunks(self):
        ok = (np.ones(3), np.ones(3) + 1e-12)
        bad = (np.ones(3), np.array([1.0, 2.0, 1.0]))
        nan = (np.ones(3), np.array([1.0, np.nan, 1.0]))
        check = verify.reconstruction_check([ok, bad, ok], 1e-10)
        assert check.name == "reconstruction" and check.residual == 1.0
        # a NaN in any chunk, first or last, makes the residual NaN
        for chunks in ([nan, bad], [bad, nan]):
            check = verify.reconstruction_check(chunks, 1e-10)
            assert np.isnan(check.residual) and not check.passed


class TestDetIndexOracle:
    def test_planted_windings(self):
        mk = lambda r, ang: r * np.exp(1j * ang)
        cases = [
            ([], 0),
            ([mk(0.5, 1.0)], 1),
            ([mk(0.5, 1.0), mk(2.0, 2.0)], 1),
            ([mk(0.3, 0.5), mk(0.7, 2.5), mk(1.5, 4.0)], 2),
        ]
        for roots, want in cases:
            assert det_index_oracle(planted_det_matrix(roots)) == want

    def test_t_power_in_second_entry(self):
        m = planted_det_matrix([0.5], extra=RationalSymbol.monomial(-2, 3.0))
        assert det_index_oracle(m) == -1

    def test_double_cluster_one_thousandth_off_circle(self):
        # the canonical trap: a multiplicity-2 zero at distance 1e-3
        # hides a full phase turn inside one step of every coarse grid;
        # the magnitude certificate must force refinement until the
        # true count 2 emerges
        for ang in (0.0, 0.7, 2.1, 4.4):
            r = (1.0 - 1e-3) * np.exp(1j * ang)
            m = planted_det_matrix([r, r])
            assert det_index_oracle(m) == 2

    def test_triple_cluster_resolvable(self):
        r = (1.0 - 1e-2) * np.exp(0.9j)
        assert det_index_oracle(planted_det_matrix([r, r, r])) == 3

    def test_quadruple_cluster_resolvable(self):
        r = (1.0 - 1e-2) * np.exp(2.3j)
        assert det_index_oracle(planted_det_matrix([r] * 4)) == 4

    def test_straddling_pair(self):
        # one zero just inside, its reflection just outside: count 1
        m = planted_det_matrix([0.999, 1.0 / 0.999])
        assert det_index_oracle(m) == 1

    def test_unresolvable_clusters_decline_never_lie(self):
        evil = [
            [(1.0 - 1e-6) * np.exp(0.3j)] * 2,
            [(1.0 - 1e-7) * np.exp(1.3j)] * 2,
            [(1.0 - 1e-4) * np.exp(0.8j)] * 4,
            [(1.0 - 1e-3) * np.exp(2.8j)] * 4,
        ]
        for roots in evil:
            with pytest.raises(DECLINE):
                det_index_oracle(planted_det_matrix(roots))

    def test_zero_on_circle_rejected(self):
        with pytest.raises(NotInvertibleOnCircleError):
            det_index_oracle(planted_det_matrix([1.0j]))

    def test_accepts_grid_or_int(self):
        m = planted_det_matrix([0.5])
        assert det_index_oracle(m, 512) == 1
        assert det_index_oracle(m, CircleGrid(1024)) == 1

    def test_determinant_beyond_float_range(self):
        # |det| = c^4 |t - 0.5|^4 is 1e400 or 1e-400 here: the samples
        # must carry their modulus as a logarithm, not as a float
        z = RationalSymbol.zero()
        for c in (1e100, 1e-100):
            e = RationalSymbol.from_poly(LaurentPoly.from_roots([0.5], c))
            m = RationalMatrix([[e if i == j else z for j in range(4)] for i in range(4)])
            assert det_index_oracle(m) == 4

    def test_chunk_boundaries_are_invisible(self, monkeypatch):
        mats = [planted_det_matrix([r, r]) for r in (0.999, 0.999j)]
        want = [verify._det_winding(m, 512) for m in mats]
        # a few points per chunk, and chunks that do not divide the grid
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 3000)
        assert [verify._det_winding(m, 512) for m in mats] == want

    def test_pole_in_a_later_chunk(self, monkeypatch):
        # the denominator vanishes only at t = -1, halfway round the grid
        pole = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([-1.0]))
        m = RationalMatrix([[pole, RationalSymbol.zero()], [RationalSymbol.zero(), pole]])
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 1 << 12)
        step = verify._CHUNK_BYTES // GridEvaluator(m).bytes_per_point
        assert 0 < step < verify._WINDING_FLOOR // 2
        with pytest.raises(PoleOnGridError, match=r"grid point -1\+"):
            det_index_oracle(m)


def good_case():
    z = RationalSymbol.zero()
    lam1 = RationalSymbol.from_poly(LaurentPoly.from_roots([0.4, 1.8], 2.0))
    lam2 = RationalSymbol(
        LaurentPoly.from_roots([2.5j]), LaurentPoly.from_roots([0.3])
    )
    corner = RationalSymbol.from_poly(LaurentPoly(-1, [1.0, 0.5, 0.25]))
    target = RationalMatrix([[lam1, corner], [z, lam2]])
    return target, factor_triangular_2x2(target)


def order16_case():
    """A cyclic(16) target and its factorization.  The identity
    coefficient dominates, so every block stays well-posed."""
    rng = np.random.default_rng(7016)
    lead = RationalSymbol(LaurentPoly.from_roots([0.5, 3.0], 4.0), LaurentPoly.from_roots([0.2]))
    small = [
        RationalSymbol.from_poly(LaurentPoly(-1, 0.05 * rng.normal(size=3)))
        for _ in range(15)
    ]
    gs = GroupSymbol(build_group({"kind": "cyclic", "n": 16}), [lead] + small)
    return assemble_matrix(gs), factor_group_symbol(gs)


class TestVerifyMatrixFactorization:
    def test_correct_factorization_passes(self):
        target, fac = good_case()
        report = verify_matrix_factorization(target, fac)
        assert report.passed, report.to_text()
        names = [c.name for c in report.checks]
        assert names == [
            "reconstruction",
            "minus_entries_analytic",
            "plus_entries_analytic",
            "det_minus_invertible",
            "det_plus_invertible",
            "index_sum",
        ]

    def test_swapped_factors_fail_analyticity(self):
        target, fac = good_case()
        swapped = MatrixFactorization(minus=fac.plus, d=fac.d, plus=fac.minus)
        report = verify_matrix_factorization(target, swapped)
        failed = {c.name for c in report.checks if not c.passed}
        assert "minus_entries_analytic" in failed
        assert "plus_entries_analytic" in failed

    def test_perturbed_index_fails_reconstruction_and_sum(self):
        target, fac = good_case()
        bumped = MatrixFactorization(
            minus=fac.minus, d=(fac.d[0] + 1, fac.d[1]), plus=fac.plus
        )
        report = verify_matrix_factorization(target, bumped)
        failed = {c.name for c in report.checks if not c.passed}
        assert "reconstruction" in failed
        assert "index_sum" in failed

    def test_scaled_factor_fails_reconstruction_only_there(self):
        target, fac = good_case()
        off = MatrixFactorization(
            minus=fac.minus.const_mul_left(np.diag([2.0, 1.0])),
            d=fac.d,
            plus=fac.plus,
        )
        report = verify_matrix_factorization(target, off)
        byname = {c.name: c for c in report.checks}
        assert not byname["reconstruction"].passed
        assert byname["minus_entries_analytic"].passed
        assert byname["det_minus_invertible"].passed

    def test_pole_in_plus_factor_detected(self):
        target, fac = good_case()
        bad_entry = RationalSymbol(
            LaurentPoly.const(1.0), LaurentPoly.from_roots([0.5])
        )
        rows = [list(r) for r in fac.plus.rows]
        rows[0][1] = rows[0][1] + bad_entry
        report = verify_matrix_factorization(
            target, MatrixFactorization(fac.minus, fac.d, RationalMatrix(rows))
        )
        assert not {c.name: c for c in report.checks}["plus_entries_analytic"].passed

    def test_negative_power_in_plus_detected(self):
        target, fac = good_case()
        rows = [list(r) for r in fac.plus.rows]
        rows[0][0] = rows[0][0] + RationalSymbol.monomial(-1)
        report = verify_matrix_factorization(
            target, MatrixFactorization(fac.minus, fac.d, RationalMatrix(rows))
        )
        assert not {c.name: c for c in report.checks}["plus_entries_analytic"].passed

    def test_unbounded_minus_detected(self):
        target, fac = good_case()
        rows = [list(r) for r in fac.minus.rows]
        rows[0][0] = rows[0][0] + RationalSymbol.monomial(1, 1e-3)
        report = verify_matrix_factorization(
            target, MatrixFactorization(RationalMatrix(rows), fac.d, fac.plus)
        )
        assert not {c.name: c for c in report.checks}["minus_entries_analytic"].passed

    def test_minus_vanishing_outside_fails_det_check(self):
        # (t - 2)/(t - 0.3): entries analytic outside but the factor is
        # singular at t = 2, visible as winding -1 of its determinant
        z = RationalSymbol.zero()
        one = RationalSymbol.const(1.0)
        t2 = RationalSymbol(LaurentPoly.from_roots([2.0]), LaurentPoly.from_roots([0.3]))
        minus = RationalMatrix([[t2, z], [z, one]])
        target = RationalMatrix([[t2, z], [z, one]])  # equals minus * I * I
        fac = MatrixFactorization(minus, (0, 0), RationalMatrix.identity(2))
        report = verify_matrix_factorization(target, fac)
        byname = {c.name: c for c in report.checks}
        assert byname["minus_entries_analytic"].passed
        assert not byname["det_minus_invertible"].passed

    def test_reconstruction_matches_three_factor_einsum(self):
        target, fac = good_case()
        grid = CircleGrid(512)
        mvals, pvals = fac.minus.eval_grid(grid), fac.plus.eval_grid(grid)
        want = np.einsum(
            "nij,njk,nkl->nil", mvals, diag_power_eval(list(fac.d), grid.points), pvals
        )
        got = verify._reconstruct(mvals, fac.d, pvals, grid.points)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_det_detail_matches_dense_determinant(self):
        target, fac = good_case()
        report = verify_matrix_factorization(target, fac)
        byname = {c.name: c for c in report.checks}
        for name, m in (("det_minus_invertible", fac.minus), ("det_plus_invertible", fac.plus)):
            mods = np.abs(np.linalg.det(m.eval_grid(CircleGrid(verify._WINDING_FLOOR))))
            want = f"|det| within [{mods.min():.3g}, {mods.max():.3g}] on the circle"
            assert byname[name].detail == want

    def test_det_detail_beyond_float_range(self):
        # |det| = 1e400 |t - 2|^4 lies in [1e400, 81e400] on the circle
        z = RationalSymbol.zero()
        e = RationalSymbol.from_poly(LaurentPoly.from_roots([2.0], 1e100))
        m = RationalMatrix([[e if i == j else z for j in range(4)] for i in range(4)])
        check = verify._factor_invertibility(m, 512, "det_plus_invertible")
        assert check.passed
        assert check.detail == "|det| within [1e+400, 8.1e+401] on the circle"

    def test_memory_is_bounded_at_order_16(self):
        # A cyclic(16) factorization; its dense determinant samples on the
        # 2^14-point floor alone would take 67 MB.
        target, fac = order16_case()
        tracemalloc.start()
        try:
            report = verify_matrix_factorization(target, fac)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed, report.to_text()
        assert peak < 25e6

    def test_reconstruction_holds_no_whole_grid_array(self):
        # one (512, 16, 16) complex sample array takes 2.1 MB; the
        # reconstruction on the whole grid holds five of them at once
        target, fac = order16_case()
        tracemalloc.start()
        try:
            verify_matrix_factorization(target, fac)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_reconstruction_chunks_are_invisible(self, monkeypatch):
        target, fac = good_case()
        doubled = MatrixFactorization(fac.minus, fac.d, fac.plus.const_mul_right(2.0 * np.eye(2)))
        cases = [(target, fac), (target, doubled), order16_case()]
        want = [verify_matrix_factorization(t, f) for t, f in cases]
        grid = CircleGrid(512)
        for (t, f), report in zip(cases, want):
            # the residual is exactly that of the whole-grid samples
            whole = verify._reconstruct(f.minus.eval_grid(grid), f.d, f.plus.eval_grid(grid), grid.points)
            assert report.checks[0].residual == float(np.max(np.abs(whole - t.eval_grid(grid))))
        assert not want[1].checks[0].passed
        # a few points per chunk, and chunks that do not divide the grid
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 3000)
        assert [verify_matrix_factorization(t, f) for t, f in cases] == want

    def test_singular_target_reported_honestly(self):
        # target determinant vanishes on the circle: index_sum cannot be
        # audited and must fail with the reason in the detail
        z = RationalSymbol.zero()
        circle_zero = RationalSymbol.from_poly(LaurentPoly.from_roots([1.0]))
        target = RationalMatrix([[circle_zero, z], [z, RationalSymbol.const(1.0)]])
        fac = MatrixFactorization(
            RationalMatrix.identity(2), (0, 0), RationalMatrix.identity(2)
        )
        report = verify_matrix_factorization(target, fac)
        byname = {c.name: c for c in report.checks}
        assert not byname["index_sum"].passed
        assert byname["index_sum"].detail
