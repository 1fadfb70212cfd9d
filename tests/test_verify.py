"""The factorization verifier and the determinant-winding oracle: the
eigenvalue count and the sampled winding it falls back to.

The winding oracle is probed with matrices whose determinant zeros are
planted by construction, including the adversarial configurations both
methods can get wrong: high-multiplicity clusters just off the circle.
For clusters the oracle cannot resolve the required behavior is an
exception, never a silently wrong integer.
Verifier checks are exercised with deliberate mutations of a correct
factorization, one designated failing check per mutation.
"""

import time
import tracemalloc

import numpy as np
import pytest

from whsymm import (
    CATALOG,
    BlockDiagonal,
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
    assemble_center_matrix,
    assemble_matrix,
    block_diagonalize,
    build_group,
    center_factorize,
    det_index_oracle,
    factor_block,
    factor_group_symbol,
    factor_rational,
    factor_triangular_2x2,
    fourier_matrix,
    irreps_for,
    partial_indices,
    unitarity_check,
    verify_matrix_factorization,
)
from whsymm import verify
from whsymm.blocks import MatrixFactorization, assemble_full_factorization
from whsymm.documents import parse_factorization, serialize_factorization

from conftest import (
    diag_power_eval,
    dominant_cyclic_symbol,
    dominant_symbol,
    draw_group_symbol,
    planted_blocks,
    random_center_symbol,
    random_symbol,
)
from whsymm.ratmat import GridEvaluator

DECLINE = (UndersampledError, NotInvertibleOnCircleError)

# fixed unitary so planted determinants live in dense 2x2 matrices
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# "dense" is H D H^T without its record, one leaf counted from the
# eigenvalues of the whole matrix or from its LU samples; H D and D H^T
# keep their records, so det H is judged once and each entry of D is a
# 1 x 1 leaf of its own
SHAPES = ("dense", "columns", "rows")


def shaped(diag, shape):
    """diag(entries) as H D H^T, H D or D H^T with H a normalized
    Hadamard matrix of the same order (a power of two); the dense shape
    is a copy without the record of how it was built."""
    h = np.ones((1, 1))
    while h.shape[0] < len(diag):
        h = np.block([[h, h], [h, -h]]) / np.sqrt(2.0)
    m = RationalMatrix.diag(diag)
    if shape != "rows":
        m = m.const_mul_left(h)
    if shape != "columns":
        m = m.const_mul_right(h.T)
    assert m.pieces is not None
    return RationalMatrix(m.rows) if shape == "dense" else m


def planted_det_matrix(roots, extra=None, shape="dense"):
    """A 2x2 matrix whose determinant is prod (t - r) times the
    determinant of the benign second diagonal entry."""
    p = RationalSymbol.from_poly(LaurentPoly.from_roots(roots))
    other = extra if extra is not None else RationalSymbol.const(1.0)
    return shaped([p, other], shape)


def unscaled(m: RationalMatrix) -> RationalMatrix:
    """m with every entry a fresh symbol of its own coefficients, as a
    parsed document gives it: no scaled sources, so LU of the samples."""
    return RationalMatrix([[RationalSymbol(e.num, e.den) for e in row] for row in m.rows])


def test_diag_power_eval():
    pts = CircleGrid(8).points
    out = diag_power_eval([2, -1, 0], pts)
    assert out.shape == (8, 3, 3)
    assert np.allclose(out[:, 0, 0], pts**2)
    assert np.allclose(out[:, 1, 1], pts**-1)
    assert np.allclose(out[:, 2, 2], 1.0)
    off = out.copy()
    off[:, [0, 1, 2], [0, 1, 2]] = 0
    assert np.allclose(off, 0)


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
        # relative to the largest target modulus in any chunk, here 2
        assert check.name == "reconstruction" and check.residual == 0.5
        # absolute where the target vanishes on the whole grid
        zero = (np.full(3, 1e-12), np.zeros(3))
        assert verify.reconstruction_check([zero, zero], 1e-10).residual == 1e-12
        # a NaN in any chunk, first or last, makes the residual NaN
        for chunks in ([nan, bad], [bad, nan]):
            check = verify.reconstruction_check(chunks, 1e-10)
            assert np.isnan(check.residual) and not check.passed


def sweep_matrices():
    """Every matrix of the three near-circle sweeps: the root clusters of
    test_cluster_sweep_is_right_or_declined in each shape, the pole
    clusters of test_pole_clusters_are_right_or_declined, and the 1 x 1
    root clusters of test_symbols'
    test_root_clusters_near_the_circle_are_right_or_declined."""
    for m in range(1, 15):
        for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.03, 0.1, 0.3):
            for side in (-1, 1):
                for k in range(6):
                    r = (1.0 + side * d) * np.exp(1j * (0.3 + 2.0 * np.pi * k / 6))
                    for shape in SHAPES:
                        yield planted_det_matrix([r] * m, shape=shape)
    one, two = RationalSymbol.const(1.0), RationalSymbol.const(2.0)
    for m in range(1, 7):
        for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            for side in (-1, 1):
                for k in range(6):
                    r = (1.0 + side * d) * np.exp(1j * (0.3 + 2.0 * np.pi * k / 6))
                    pole = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([r] * m))
                    yield RationalMatrix([[pole, one], [one, two]])
    for m in range(2, 7):
        for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            for side in (-1, 1):
                for theta in (0.0, 0.8, 2.1, 4.4):
                    r = (1.0 + side * d) * np.exp(1j * theta)
                    yield RationalMatrix([[RationalSymbol.from_poly(LaurentPoly.from_roots([r] * m))]])


def count_inputs(m):
    """Every array det_index_oracle(m) gives the eigenvalue count: each
    leaf's cleared rows and each of its denominators, keyed by bytes."""
    out = {}
    for leaf, _ in verify._det_parts(m)[1]:
        cleared = verify._cleared_rows(leaf)
        dens = [e.den.coeffs[:, None, None] for row in leaf.rows for e in row if not e.is_zero]
        for p in ([] if cleared is None else [cleared[0]]) + dens:
            out[p.tobytes()] = p
    return out


class TestDetIndexOracle:
    def test_planted_windings(self):
        mk = lambda r, ang: r * np.exp(1j * ang)
        cases = [
            ([], 0),
            ([mk(0.5, 1.0)], 1),
            ([mk(0.5, 1.0), mk(2.0, 2.0)], 1),
            ([mk(0.3, 0.5), mk(0.7, 2.5), mk(1.5, 4.0)], 2),
        ]
        for shape in SHAPES:
            for roots, want in cases:
                assert det_index_oracle(planted_det_matrix(roots, shape=shape)) == want

    def test_t_power_in_second_entry(self):
        for shape in SHAPES:
            m = planted_det_matrix([0.5], extra=RationalSymbol.monomial(-2, 3.0), shape=shape)
            assert det_index_oracle(m) == -1

    def test_double_cluster_one_thousandth_off_circle(self):
        # the canonical trap: a multiplicity-2 zero at distance 1e-3
        # hides a full phase turn inside one step of every coarse grid;
        # the magnitude certificate must force refinement until the
        # true count 2 emerges
        for shape in SHAPES:
            for ang in (0.0, 0.7, 2.1, 4.4):
                r = (1.0 - 1e-3) * np.exp(1j * ang)
                m = planted_det_matrix([r, r], shape=shape)
                assert det_index_oracle(m) == 2

    def test_triple_cluster_resolvable(self):
        r = (1.0 - 1e-2) * np.exp(0.9j)
        for shape in SHAPES:
            assert det_index_oracle(planted_det_matrix([r, r, r], shape=shape)) == 3

    def test_quadruple_cluster_resolvable(self):
        r = (1.0 - 1e-2) * np.exp(2.3j)
        for shape in SHAPES:
            assert det_index_oracle(planted_det_matrix([r] * 4, shape=shape)) == 4

    def test_straddling_pair(self):
        # one zero just inside, its reflection just outside: count 1
        for shape in SHAPES:
            m = planted_det_matrix([0.999, 1.0 / 0.999], shape=shape)
            assert det_index_oracle(m) == 1

    def test_unresolvable_clusters_decline_never_lie(self):
        evil = [
            [(1.0 - 1e-6) * np.exp(0.3j)] * 2,
            [(1.0 - 1e-7) * np.exp(1.3j)] * 2,
            [(1.0 - 1e-4) * np.exp(0.8j)] * 4,
            [(1.0 - 1e-3) * np.exp(2.8j)] * 4,
        ]
        for shape in SHAPES:
            for roots in evil:
                with pytest.raises(DECLINE):
                    det_index_oracle(planted_det_matrix(roots, shape=shape))

    def test_cluster_sweep_is_right_or_declined(self):
        # m-fold zeros at distance d on either side of the circle.  The
        # eigenvalue count answers or declines on every shape, and is
        # right whenever it answers; det_index_oracle, which takes it for
        # the dense shape and falls back to samples, is right or declines
        distances = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.03, 0.1, 0.3)
        answered = set()
        for m in range(1, 15):
            for d in distances:
                for side in (-1, 1):
                    want = m if side < 0 else 0
                    for k in range(6):
                        r = (1.0 + side * d) * np.exp(1j * (0.3 + 2.0 * np.pi * k / 6))
                        for shape in SHAPES:
                            p, shift = verify._cleared_rows(planted_det_matrix([r] * m, shape=shape))
                            count = verify._disk_zero_count(p)
                            if count is not None:
                                assert shift + count == want, (m, d, side, k, shape)
                                answered.add((m, d))
                        try:
                            got = det_index_oracle(planted_det_matrix([r] * m))
                        except DECLINE:
                            continue
                        assert got == want, (m, d, side, k)
        # not vacuous: every simple zero, and every double one from 1e-4 on
        assert {(1, d) for d in distances} <= answered
        assert {(2, d) for d in distances if d >= 1e-4} <= answered

    def test_zero_on_circle_rejected(self):
        for shape in SHAPES:
            with pytest.raises(NotInvertibleOnCircleError):
                det_index_oracle(planted_det_matrix([1.0j], shape=shape))

    def test_pole_clusters_are_right_or_declined(self):
        # [[1/(t - r)^m, 1], [1, 2]]: det = (2 - (t - r)^m) / (t - r)^m,
        # whose zeros lie away from the circle while its m-fold pole
        # comes within d of it; the root finder scatters that pole across
        # the circle, so the poles must be counted with certified disks
        one, two = RationalSymbol.const(1.0), RationalSymbol.const(2.0)
        for m in range(1, 7):
            for d in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                for side in (-1, 1):
                    for k in range(6):
                        r = (1.0 + side * d) * np.exp(1j * (0.3 + 2.0 * np.pi * k / 6))
                        zeros = np.roots(np.polysub([2.0], np.poly([r] * m)))
                        want = int(np.sum(np.abs(zeros) < 1.0)) - (m if side < 0 else 0)
                        pole = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([r] * m))
                        try:
                            got = det_index_oracle(RationalMatrix([[pole, one], [one, two]]))
                        except DECLINE + (PoleOnGridError,):
                            continue
                        assert got == want, (m, d, side, k)

    def test_singular_dense_matrix_declines(self):
        # det m(t) vanishes identically, with no scaled sources: the
        # eigenvalue count finds a singular leading coefficient and the
        # sampled oracle declines
        s = [RationalSymbol.from_poly(LaurentPoly.from_roots([r])) for r in (0.5, 2.0, 0.3j)]
        c = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
        for m in (RationalMatrix.diag(s).const_mul_left(c), RationalMatrix.diag(s).const_mul_right(c)):
            m = unscaled(m)
            assert m.pieces is None
            assert verify._disk_zero_count(verify._cleared_rows(m)[0]) is None
            with pytest.raises(NotInvertibleOnCircleError, match="det nearly vanishes on the circle"):
                det_index_oracle(m)

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
            diag = [RationalSymbol.from_poly(LaurentPoly.from_roots([0.5 * 1j**k], c)) for k in range(4)]
            for shape in SHAPES:
                assert det_index_oracle(shaped(diag, shape)) == 4

    def test_chunk_boundaries_are_invisible(self, monkeypatch):
        mats = [planted_det_matrix([r, r], shape=s) for r in (0.999, 0.999j) for s in SHAPES]
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
        one = RationalSymbol.const(1.0)
        for m in [m] + [shaped([pole, one], shape) for shape in SHAPES]:
            with pytest.raises(PoleOnGridError, match=r"grid point -1\+"):
                det_index_oracle(m)

    def test_product_samples_match_dense_lu(self):
        # every kind of stitched factor against its copy without a
        # record: the same winding, the log|det| summed over its parts
        # against np.linalg.slogdet of the entries' samples, on and off
        # the circle, and the same |det| detail
        pts = np.concatenate([CircleGrid(1024).points, 1.3 * CircleGrid(64).points])
        for label, _, fac in stitched_cases():
            for m in (fac.minus, fac.plus):
                plain = RationalMatrix(m.rows)
                assert m.pieces is not None and plain.pieces is None
                assert det_index_oracle(m) == det_index_oracle(plain), label
                want = np.linalg.slogdet(m.eval_grid(pts)).logabsdet
                assert np.max(np.abs(verify._det_log_abs(m, pts) - want)) <= 1e-12, label
                got = verify._factor_invertibility(m, 512, "det")
                assert got == verify._factor_invertibility(plain, 512, "det"), label

    def test_column_scaled_matches_dense_path(self):
        # C diag(s) with a unitary C and with cond(C) about 1e9: the
        # winding and the |det| detail are those LU of the samples gives
        s = [
            RationalSymbol.from_poly(LaurentPoly.from_roots([0.5, 3.0])),
            RationalSymbol(LaurentPoly.from_roots([0.2j], 2.0), LaurentPoly.from_roots([2.5])),
            RationalSymbol.from_poly(LaurentPoly.from_roots([-0.4, 0.3 + 0.3j], 1e-3)),
        ]
        dft = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3.0)
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
        ill = q @ np.diag([1.0, 1e-4, 1e-9]) @ dft
        assert 1e8 < np.linalg.cond(ill) < 1e10
        for c in (dft, ill):
            m = RationalMatrix.diag(s).const_mul_left(c)
            assert m.pieces is not None
            assert unscaled(m).pieces is None
            got = verify._factor_invertibility(m, 512, "det")
            want = verify._factor_invertibility(unscaled(m), 512, "det")
            assert det_index_oracle(m) == det_index_oracle(unscaled(m)) == 4
            assert (got.residual, got.detail) == (want.residual, want.detail)

    def test_singular_scale_matrix_declines(self):
        # a rank-deficient C (exactly, and up to roundoff) and an
        # all-zero column: det m(t) vanishes identically
        s = [RationalSymbol.from_poly(LaurentPoly.from_roots([r])) for r in (0.5, 2.0, 0.3j)]
        u = np.random.default_rng(5).normal(size=(3, 2))
        cs = [np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]), u @ u.T]
        mats = [RationalMatrix.diag(s).const_mul_left(c) for c in cs]
        mats += [RationalMatrix.diag(s).const_mul_right(c) for c in cs]
        mats.append(RationalMatrix.diag([s[0], RationalSymbol.zero(), s[2]]).const_mul_left(np.ones((3, 3))))
        for m in mats:
            assert m.pieces is not None
            with pytest.raises(NotInvertibleOnCircleError, match="det nearly vanishes on the circle"):
                det_index_oracle(m)


    def test_stacked_counts_match_stacks_of_one(self, monkeypatch):
        # every polynomial the oracle counts for the leaves of every
        # catalog group and center factorization and for every case of
        # the three near-circle sweeps: counted in stacks of one (D, n),
        # whole and in chunks of a few, each count is the one its stack
        # of one gives, None included
        inputs = {}
        for _, target, fac in leaf_cases():
            for m in (target, fac.minus, fac.plus):
                inputs.update(count_inputs(m))
        for m in sweep_matrices():
            inputs.update(count_inputs(m))
        stacks = {}
        for p in inputs.values():
            stacks.setdefault(p.shape, []).append(p)
        want = {shape: [verify._disk_zero_count(p) for p in ps] for shape, ps in stacks.items()}
        for shape, ps in stacks.items():
            assert verify._disk_zero_count(np.stack(ps)) == want[shape], shape
        counts = [c for w in want.values() for c in w]
        assert None in counts and len(counts) - counts.count(None) > 900
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 1 << 12)
        for shape, ps in stacks.items():
            assert verify._disk_zero_count(np.stack(ps)) == want[shape], shape

        # good leaves stacked with a zero leaf, one whose determinant
        # vanishes identically (a singular leading coefficient) and
        # non-finite ones keep their counts, also when eig or inv fails
        # on the whole stack and the chunk is counted one leaf at a time
        good = [verify._cleared_rows(planted_det_matrix([r] * 3))[0] for r in (0.5, 2.0, 0.9j, -1.5)]
        singular = good[0].copy()
        singular[:, 1] = singular[:, 0]
        nan, inf = good[1].copy(), good[2].copy()
        nan[1, 0, 1], inf[3, 1, 1] = np.nan, np.inf
        stack = np.stack([good[0], np.zeros_like(good[0]), good[1], singular, good[2], nan, inf, good[3]])
        alone = [verify._disk_zero_count(p) for p in good]
        assert alone == [3, 0, 3, 0]
        mixed = [alone[0], None, alone[1], None, alone[2], None, None, alone[3]]
        assert verify._disk_zero_count(stack) == mixed
        for name in ("eig", "inv"):
            routine = getattr(np.linalg, name)

            def single(a, routine=routine):
                if a.ndim == 3 and a.shape[0] > 1:
                    raise np.linalg.LinAlgError("stacked call refused")
                return routine(a)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, name, single)
                assert verify._disk_zero_count(stack) == mixed


def planted_case(spec, seed, corner=None):
    """A target F* Lambda F built from planted_blocks, without a record,
    and its factorization stitched from theirs; a triangular block is
    factored as it stands, a lower one through the swap."""
    repset, blocks = planted_blocks(spec, seed, corner)
    bd, f = BlockDiagonal(repset, tuple(blocks)), fourier_matrix(repset)
    target = bd.expand().const_mul_left(f.matrix.conj().T).const_mul_right(f.matrix)
    fac = assemble_full_factorization(bd, [factor_block(b) for b in blocks], f)
    return RationalMatrix(target.rows), fac


def center_case(kind, seed):
    cs = random_center_symbol(build_group({"kind": kind}), np.random.default_rng(seed))
    return assemble_center_matrix(cs), center_factorize(cs).factorization


def stitched_cases():
    """(label, target, factorization) of every kind of stitched factor."""
    c2s3 = {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "s3"}]}
    return [
        ("cyclic16", *order16_case()),
        ("klein4", *planted_case({"kind": "klein4"}, 1)),
        ("s3", *planted_case({"kind": "s3"}, 2)),
        ("s3-triangular", *planted_case({"kind": "s3"}, 3, "upper")),
        ("s3-swapped", *planted_case({"kind": "s3"}, 4, "lower")),
        ("q8", *planted_case({"kind": "q8"}, 5)),
        ("a4", *planted_case({"kind": "a4"}, 6)),
        ("c2xs3", *planted_case(c2s3, 7, "lower")),
        ("q8-center", *center_case("q8", 8)),
        ("a4-center", *center_case("a4", 9)),
    ]


def leaf_cases():
    """(label, target, factorization) whose factors are all in leaf form:
    a drawn symbol of every abelian catalog group, planted diagonal
    blocks of every other one, and a center symbol of every one."""
    out = []
    for spec in CATALOG:
        g = build_group(spec)
        rng = np.random.default_rng(11)
        if all(deg == 1 for deg in irreps_for(g).degrees):
            gs, _ = draw_group_symbol(g, rng)
            out.append((g.name, assemble_matrix(gs), factor_group_symbol(gs)))
        else:
            out.append((g.name, *planted_case(spec, 11)))
        cs = random_center_symbol(g, rng)
        out.append((g.name + "-center", assemble_center_matrix(cs), center_factorize(cs).factorization))
    return out


def klein4_scaled(c):
    """klein4 with c (t - 0.3) and 2c on its first two elements, and its
    factorization."""
    z = RationalSymbol.zero()
    coeffs = [RationalSymbol.from_poly(LaurentPoly.from_roots([0.3], c)), RationalSymbol.const(2.0 * c), z, z]
    gs = GroupSymbol(build_group({"kind": "klein4"}), coeffs)
    return assemble_matrix(gs), factor_group_symbol(gs)


def doubled_plus(fac):
    """fac with its stitched plus Lambda+ F made Lambda+ (2 F), so still
    in leaf form."""
    lam_plus, f = fac.plus.pieces
    return MatrixFactorization(fac.minus, fac.d, lam_plus.const_mul_right(2.0 * f))


def record_free(fac):
    return MatrixFactorization(RationalMatrix(fac.minus.rows), fac.d, RationalMatrix(fac.plus.rows))


def good_case():
    z = RationalSymbol.zero()
    lam1 = RationalSymbol.from_poly(LaurentPoly.from_roots([0.4, 1.8], 2.0))
    lam2 = RationalSymbol(
        LaurentPoly.from_roots([2.5j]), LaurentPoly.from_roots([0.3])
    )
    corner = RationalSymbol.from_poly(LaurentPoly(-1, [1.0, 0.5, 0.25]))
    target = RationalMatrix([[lam1, corner], [z, lam2]])
    return target, factor_triangular_2x2(target)


def cyclic_case(n, seed):
    """A cyclic(n) target and its factorization, every block well-posed."""
    gs = dominant_cyclic_symbol(n, seed)
    return assemble_matrix(gs), factor_group_symbol(gs)


def order16_case():
    return cyclic_case(16, 7016)


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
        got = verify._reconstruct(mvals, verify._powers(grid.points, fac.d), pvals)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_distinct_powers_match_per_column_powers(self):
        pts = CircleGrid(512).points
        d = np.random.default_rng(7).integers(-3, 4, size=32)
        assert np.array_equal(verify._powers(pts, d), pts[:, None] ** d)

    def test_det_detail_matches_dense_determinant(self):
        target, fac = good_case()
        report = verify_matrix_factorization(target, fac)
        byname = {c.name: c for c in report.checks}
        for name, m in (("det_minus_invertible", fac.minus), ("det_plus_invertible", fac.plus)):
            mods = np.abs(np.linalg.det(m.eval_grid(CircleGrid(512))))
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
        t16, f16 = order16_case()
        # the first three reconstruct from the factors' entries, the last
        # two from the leaves of their records
        cases = [(target, fac), (target, doubled), (t16, record_free(f16)), (t16, f16), (t16, doubled_plus(f16))]
        want = [verify_matrix_factorization(t, f) for t, f in cases]
        grid = CircleGrid(512)
        for k, ((t, f), report) in enumerate(zip(cases, want)):
            forms = verify._leaf_form(f.minus, left=True), verify._leaf_form(f.plus, left=False)
            assert (None in forms) == (k < 3)
            powers = verify._powers(grid.points, f.d)
            if k < 3:
                whole = verify._reconstruct(f.minus.eval_grid(grid), powers, f.plus.eval_grid(grid))
            else:
                (c_minus, s_minus), (c_plus, s_plus) = forms
                s, n = RationalMatrix([s_minus + s_plus]).eval_grid(grid)[:, 0], len(f.d)
                whole = verify._reconstruct_leaves(c_minus, s[:, :n] * powers * s[:, n:], c_plus)
            # the residual is exactly that of the whole-grid samples,
            # relative to the target's largest modulus on the grid
            tvals = t.eval_grid(grid)
            assert report.checks[0].residual == float(np.max(np.abs(whole - tvals)) / np.max(np.abs(tvals)))
        assert [r.checks[0].passed for r in want] == [True, False, True, True, False]
        # a few points per chunk, and chunks that do not divide the grid
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 3000)
        assert [verify_matrix_factorization(t, f) for t, f in cases] == want

    def test_record_agrees_with_rows(self):
        # the leaves' samples times C are the factor's own samples, bit
        # for bit, for every kind of factor in leaf form
        pts = CircleGrid(512).points
        for label, _, fac in leaf_cases() + [("cyclic32", *cyclic_case(32, 7032))]:
            for m, left in ((fac.minus, True), (fac.plus, False)):
                c, leaves = verify._leaf_form(m, left)
                s = GridEvaluator(RationalMatrix([leaves]))(pts)[:, 0]
                got = s[:, None, :] * c if left else s[:, :, None] * c
                assert np.array_equal(got, GridEvaluator(m)(pts)), (label, left)

    def test_leaf_form_is_read_from_the_record(self):
        # triangular blocks, upper or swapped, and parsed documents keep
        # the entry path
        _, tri = planted_case({"kind": "s3"}, 3, "upper")
        _, swapped = planted_case({"kind": "s3"}, 4, "lower")
        _, fac = order16_case()
        parsed = parse_factorization(serialize_factorization(fac))
        for f in (tri, swapped, parsed, good_case()[1]):
            assert verify._leaf_form(f.minus, left=True) is None
            assert verify._leaf_form(f.plus, left=False) is None
        # the constant sits on the left of minus and on the right of plus
        assert verify._leaf_form(fac.minus, left=False) is None
        assert verify._leaf_form(fac.plus, left=True) is None
        c, leaves = verify._leaf_form(fac.minus, left=True)
        assert c is fac.minus.pieces[0] and len(leaves) == 16

    def test_record_free_copy_gets_the_same_verdicts(self):
        # verifying through the leaves and through the n^2 entries gives
        # the same checks; the reconstruction residuals, relative to the
        # target's largest modulus, agree within 1e-13
        for label, target, fac in leaf_cases():
            for f in (fac, doubled_plus(fac)):
                want = verify_matrix_factorization(target, f)
                got = verify_matrix_factorization(target, record_free(f))
                assert want.checks[1:] == got.checks[1:], label
                assert want.checks[0].passed == got.checks[0].passed == (f is fac), label
                assert abs(want.checks[0].residual - got.checks[0].residual) <= 1e-13, label

    def test_recorded_factors_build_no_entry_evaluator(self, monkeypatch):
        # a stitched cyclic(32) factorization is evaluated from its 2n
        # leaves; only the target is evaluated through its n^2 entries
        target, fac = cyclic_case(32, 7032)
        built = []
        monkeypatch.setattr(verify, "GridEvaluator", lambda m: built.append(m) or GridEvaluator(m))
        assert verify_matrix_factorization(target, fac).passed
        assert built and not any(m is fac.minus or m is fac.plus for m in built)
        assert [m for m in built if m.shape[0] * m.shape[1] > 2 * 32] == [target]

    def test_triangular_leaves_need_no_samples(self, monkeypatch):
        # a triangular 2 x 2 block factor is counted from its diagonal
        # entries; a gap corner (decreasing diagonal indices), whose
        # factors are full 2 x 2 products, is left out here
        calls = []
        monkeypatch.setattr(verify, "_det_winding", lambda m, n0: calls.append(m.shape) or 0)
        counted = 0
        for kind in ("s3", "q8"):
            for corner in ("upper", "lower"):
                for seed in range(12):
                    _, blocks = planted_blocks({"kind": kind}, seed, corner)
                    first, second = (0, 1) if corner == "upper" else (1, 0)
                    if any(
                        factor_rational(b[first, first]).index > factor_rational(b[second, second]).index
                        for b in blocks
                        if b.shape == (2, 2)
                    ):
                        continue
                    _, fac = planted_case({"kind": kind}, seed, corner)
                    for name, m in (("det_minus", fac.minus), ("det_plus", fac.plus)):
                        assert verify._factor_invertibility(m, 512, name).passed, (kind, corner, seed)
                    counted += 1
        assert calls == [] and counted >= 24

    def test_reconstruction_is_relative_to_the_target(self):
        # the absolute residual of a correct factorization grows with the
        # input's scale and that of a wrong one shrinks with it; both
        # through the leaves and through the entries
        for c in (1e-14, 1.0, 1e8):
            target, fac = klein4_scaled(c)
            for f, right in ((fac, True), (doubled_plus(fac), False)):
                for g in (f, record_free(f)):
                    report = verify_matrix_factorization(target, g)
                    assert report.passed == right, (c, right, report.to_text())
                    assert report.checks[0].passed == right

    def test_stitched_factor_plan_has_one_column_per_block(self):
        # F* diag(lambda_minus) has n^2 entries, each a scaled copy of one
        # of the n block factors: n sources, one zero column and the
        # distinct denominators
        _, fac = cyclic_case(32, 7032)
        for m in (fac.minus, fac.plus):
            dens = {e.den.coeffs.tobytes() for row in m.rows for e in row}
            assert GridEvaluator(m).horner.shape[1] == 32 + 1 + len(dens)

    def test_verifying_runs_no_dense_lu(self, monkeypatch):
        # the stitched factors come apart into det F and 1 x 1 blocks and
        # the target's index comes from eigenvalues, so no n x n sample
        # is LU-factored
        target, fac = order16_case()
        dense = np.linalg.slogdet
        calls = []

        def counting(a):
            if np.ndim(a) == 3:
                calls.append(np.shape(a)[1:])
            return dense(a)

        monkeypatch.setattr(np.linalg, "slogdet", counting)
        assert target.pieces is None
        assert det_index_oracle(target) == sum(fac.d)
        assert verify_matrix_factorization(target, fac).passed
        assert calls == []
        # the sampled oracle, which the eigenvalue count falls back to,
        # still sees the same winding
        assert verify._det_winding(target, 512) == sum(fac.d)
        assert set(calls) == {(16, 16)}

    def test_planted_nonabelian_cases_need_no_samples(self, monkeypatch):
        # every block of these planted s3, q8 and a4 factorizations, their
        # 2 x 2 triangular ones included, and every target are counted
        # from eigenvalues
        calls = []
        monkeypatch.setattr(verify, "_det_winding", lambda m, n0: calls.append(m.shape) or 0)
        for label, target, fac in stitched_cases():
            if label.startswith(("s3", "q8", "a4")):
                report = verify_matrix_factorization(target, fac)
                assert report.passed, (label, report.to_text())
        assert calls == []

    def test_entry_checks_run_once_per_source(self, monkeypatch):
        # the n^2 entries of a stitched cyclic(32) factor are scaled
        # copies of n sources, and the worst violation is the one the
        # plain entry loop finds
        _, fac = cyclic_case(32, 7032)
        plain = {
            name: max(fn(e) for row in m.rows for e in row)
            for name, fn, m in (
                ("minus_entries_analytic", verify._minus_entry_violation, fac.minus),
                ("plus_entries_analytic", verify._plus_entry_violation, fac.plus),
            )
        }
        calls = []
        for name in ("_minus_entry_violation", "_plus_entry_violation"):
            fn = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda e, fn=fn: calls.append(e) or fn(e))
        report = verify_matrix_factorization(assemble_matrix(dominant_cyclic_symbol(32, 7032)), fac)
        assert 0 < len(calls) <= 2 * 32
        for check in report.checks:
            if check.name in plain:
                assert check.residual == plain[check.name]

    def test_oracle_counts_each_denominator_once(self, monkeypatch):
        # the 1 x 1 leaves of a stitched factor share their denominators,
        # and every distinct array reaches the eigenvalue count once
        _, fac = cyclic_case(32, 7032)
        count = verify._disk_zero_count
        seen = []
        monkeypatch.setattr(verify, "_disk_zero_count", lambda p: seen.append(p.tobytes()) or count(p))
        for m in (fac.minus, fac.plus):
            seen.clear()
            det_index_oracle(m)
            assert len(seen) == len(set(seen))
        assert verify._rotation(6) is verify._rotation(6)
        assert not verify._rotation(6).flags.writeable

    def test_oracle_counts_leaves_in_stacks(self, monkeypatch):
        # the 2 x 32 leaves of a stitched cyclic(32) factorization: each
        # oracle call makes one eigenvalue count per (D, n) of its leaves'
        # cleared rows and one per distinct denominator, not one per leaf
        target, fac = cyclic_case(32, 7032)
        bound = {}
        for m in (target, fac.minus, fac.plus):
            leaves = [leaf for leaf, _ in verify._det_parts(m)[1]]
            shapes = {verify._cleared_rows(leaf)[0].shape for leaf in leaves}
            entries = [e for leaf in leaves for row in leaf.rows for e in row if not e.is_zero]
            bound[id(m)] = len(shapes) + len({e.den.coeffs.tobytes() for e in entries})
        assert len(verify._det_parts(fac.minus)[1]) == len(verify._det_parts(fac.plus)[1]) == 32
        oracle, count = verify.det_index_oracle, verify._disk_zero_count
        calls = []
        monkeypatch.setattr(verify, "det_index_oracle", lambda m, n=512: calls.append((m, [])) or oracle(m, n))
        monkeypatch.setattr(verify, "_disk_zero_count", lambda p: calls[-1][1].append(p.shape) or count(p))
        assert verify_matrix_factorization(target, fac).passed
        assert sorted(id(m) for m, _ in calls) == sorted(bound)
        for m, shapes in calls:
            assert len(shapes) <= bound[id(m)] < 32, shapes

    @pytest.mark.parametrize("n", [24, 32, 48, 64])
    def test_det_range_beyond_1e13_passes_index_sum(self, n):
        # |det| of this target varies by more than 1e13 over the circle,
        # and from order 48 on so does |det| of each stitched factor,
        # which sampled determinants read as "det nearly vanishes", yet
        # every zero lies 0.5 from the circle; factor and verify within 10 s
        t0 = time.perf_counter()
        target, fac = cyclic_case(n, 1)
        assert target.pieces is None
        report = verify_matrix_factorization(target, fac)
        assert report.passed, report.to_text()
        assert time.perf_counter() - t0 < 10.0

    def test_factor_and_verify_at_the_size_cap(self):
        # cyclic(256), the largest admitted order: the stitched factors
        # are read from their record, so factoring and verifying pass
        # within 15 s
        t0 = time.perf_counter()
        target, fac = cyclic_case(256, 1)
        report = verify_matrix_factorization(target, fac)
        assert report.passed, report.to_text()
        assert time.perf_counter() - t0 < 15.0

    def test_factor_and_verify_a_product_at_the_size_cap(self):
        # product(c16, c16), order 256: factoring and verifying pass
        # within 15 s
        t0 = time.perf_counter()
        gs = dominant_symbol({"kind": "product", "factors": [{"kind": "cyclic", "n": 16}] * 2}, 1)
        report = verify_matrix_factorization(assemble_matrix(gs), factor_group_symbol(gs))
        assert report.passed, report.to_text()
        assert time.perf_counter() - t0 < 15.0

    def test_index_accounting_at_the_size_cap(self):
        # cyclic(256), the largest admitted order: its Fourier matrix
        # validates, and the reduction's total index agrees with the
        # oracle on the 256 x 256 target, all within 10 s
        gs = dominant_cyclic_symbol(256, 1)
        t0 = time.perf_counter()
        total = partial_indices(block_diagonalize(gs)).total_index
        assert total == det_index_oracle(assemble_matrix(gs))
        assert time.perf_counter() - t0 < 10.0

    def test_parsed_factorization_gets_the_same_report(self):
        # a parsed document has no record, so every entry is evaluated
        # from its own coefficients and every factor is one leaf of its own
        s3, a4 = planted_case({"kind": "s3"}, 3, "upper"), planted_case({"kind": "a4"}, 6)
        for target, fac in (good_case(), order16_case(), s3, a4):
            parsed = parse_factorization(serialize_factorization(fac))
            assert parsed.minus.pieces is None and parsed.plus.pieces is None
            want = verify_matrix_factorization(target, fac)
            got = verify_matrix_factorization(target, parsed)
            assert want.passed
            for w, g in zip(want.checks, got.checks):
                assert (w.name, w.passed, w.detail) == (g.name, g.passed, g.detail)
            assert abs(got.checks[0].residual - want.checks[0].residual) <= 1e-13 * max(
                np.max(np.abs(target.eval_grid(CircleGrid(512)))), 1.0
            )

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
