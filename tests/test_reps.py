"""Representation sets, character tables, and Fourier matrices.

Oracles, all coded here against the raw data: the homomorphism law by
direct matrix multiplication over every element pair, unitarity by
R R^H = I, irreducibility by unit character norm, inequivalence by
vanishing character inner products, the two character orthogonality
relations, and unitarity of the Fourier matrix by F F^H = I.  Textbook
character values for S3, Q8, A4 are asserted directly.
"""

import hashlib

import numpy as np
import pytest

from whsymm import (
    CATALOG,
    Irrep,
    RepSet,
    UnsupportedGroupError,
    build_group,
    center_fourier,
    character_table,
    conjugacy_classes,
    fourier_matrix,
    irreps_for,
    validate_repset,
)
from whsymm import reps

TOL = 1e-12


def catalog_repsets():
    for spec in CATALOG:
        g = build_group(spec)
        yield g, irreps_for(g)


class TestIrrepLaws:
    def test_identity_unitarity_homomorphism(self):
        for g, rs in catalog_repsets():
            for r in rs.irreps:
                m = r.matrices
                assert np.max(np.abs(m[0] - np.eye(r.degree))) < TOL
                for x in range(g.order):
                    assert np.max(np.abs(m[x] @ m[x].conj().T - np.eye(r.degree))) < TOL
                    for y in range(g.order):
                        assert np.max(np.abs(m[x] @ m[y] - m[g.mul(x, y)])) < TOL

    def test_characters_have_unit_norm(self):
        # (1/|G|) sum_g |chi(g)|^2 == 1 exactly for an irreducible rep
        for g, rs in catalog_repsets():
            for r in rs.irreps:
                chi = np.einsum("gaa->g", r.matrices)
                norm = float(np.sum(np.abs(chi) ** 2)) / g.order
                assert abs(norm - 1.0) < TOL

    def test_irreps_pairwise_inequivalent(self):
        for g, rs in catalog_repsets():
            chis = [np.einsum("gaa->g", r.matrices) for r in rs.irreps]
            for a in range(len(chis)):
                for b in range(a + 1, len(chis)):
                    ip = np.sum(chis[a] * np.conj(chis[b])) / g.order
                    assert abs(ip) < TOL

    def test_completeness(self):
        for g, rs in catalog_repsets():
            assert sum(d * d for d in rs.degrees) == g.order
            assert len(rs.irreps) == conjugacy_classes(g).count

    def test_degree_lists(self):
        degrees = {}
        for g, rs in catalog_repsets():
            degrees[g.name] = tuple(sorted(rs.degrees))
        assert degrees["s3"] == (1, 1, 2)
        assert degrees["q8"] == (1, 1, 1, 1, 2)
        assert degrees["a4"] == (1, 1, 1, 3)
        assert degrees["klein4"] == (1, 1, 1, 1)
        assert degrees["product(cyclic(2),cyclic(3))"] == (1, 1, 1, 1, 1, 1)

    def test_catalog_sets_are_built_once(self, monkeypatch):
        # a second call, on a group built again from the same spec, takes
        # the validated set as it is, bound to that group; a fresh build
        # gives the same matrices, which no caller can write to
        specs = CATALOG + [{"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "s3"}]}]
        for spec in specs:
            irreps_for(build_group(spec))
        calls = []
        validate = reps.validate_repset
        monkeypatch.setattr(reps, "validate_repset", lambda g, rs: calls.append(g) or validate(g, rs))
        groups = [build_group(spec) for spec in specs]
        again = [irreps_for(g) for g in groups]
        assert calls == []
        assert all(rs.group is g for rs, g in zip(again, groups))
        monkeypatch.setattr(reps, "_CATALOG_IRREPS", {})
        fresh = [irreps_for(g) for g in groups]
        assert calls == groups
        for a, b in zip(again, fresh):
            assert a.degrees == b.degrees
            for x, y in zip(a.irreps, b.irreps):
                assert np.array_equal(x.matrices, y.matrices)
                assert not x.matrices.flags.writeable and not y.matrices.flags.writeable

    def test_product_irreps_equal_the_kron_loop(self):
        # one np.kron per pair of elements is the reference; the product
        # set must hold exactly those matrices, in that order
        specs = [
            {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "s3"}]},
            {"kind": "product", "factors": [{"kind": "q8"}, {"kind": "a4"}]},
            {"kind": "product", "factors": [{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 8}]},
        ]
        for spec in specs:
            g1, g2 = (build_group(f) for f in spec["factors"])
            want = [
                np.stack([np.kron(a, b) for a in ir1.matrices for b in ir2.matrices])
                for ir1 in irreps_for(g1).irreps
                for ir2 in irreps_for(g2).irreps
            ]
            got = reps._product_irreps(build_group(spec))
            assert len(got) == len(want)
            for irrep, mats in zip(got, want):
                assert irrep.degree == mats.shape[1]
                assert np.array_equal(irrep.matrices, mats)

    def test_frozen_q8_and_a4_data(self):
        # SHA-256 of the Cayley table and of the largest irrep's matrices,
        # recorded when they came from a hand-written sign table (q8) and
        # rotation generators (a4), so that no change of defining model
        # can move the frozen data; adding 0 clears signs of zero
        frozen = {
            "q8": (
                "9a2ee5146c11f4b9255cac57e2934defd3be210d226f88523c7463b0619ac392",
                "d7fa8f9bee49c8a4769adfa9ef65e5ae3b33b302f58d46532ad5c1328bab1f87",
            ),
            "a4": (
                "225c1bed2d1566f69bd36185552a0ff11eecc4df14754a9ddfa6ef3c0192932e",
                "3fba42aa0a88d8d2f15e0948856dac8d84ad755472f389582ff7778de1f26691",
            ),
        }
        def digest(arr):
            return hashlib.sha256((arr + 0).tobytes()).hexdigest()

        for kind, (table_sha, irrep_sha) in frozen.items():
            g = build_group({"kind": kind})
            top = irreps_for(g).irreps[-1]
            assert top.degree == {"q8": 2, "a4": 3}[kind]
            assert g.cayley.dtype == np.int64 and top.matrices.dtype == complex
            assert digest(g.cayley) == table_sha
            assert digest(top.matrices) == irrep_sha

    def test_unsupported_group_has_no_repset(self):
        g = build_group({"kind": "custom", "cayley": [[0, 1], [1, 0]]})
        with pytest.raises(UnsupportedGroupError):
            irreps_for(g)


class TestCharacterTable:
    def test_values_are_representative_traces(self):
        for g, rs in catalog_repsets():
            part = conjugacy_classes(g)
            ct = character_table(rs, part)
            for k, r in enumerate(rs.irreps):
                for j, rep in enumerate(part.representatives):
                    assert abs(ct.values[k, j] - np.trace(r.matrices[rep])) < TOL

    def test_row_orthogonality(self):
        # sum_j h_j chi_k(j) conj(chi_l(j)) = delta_kl |G|
        for g, rs in catalog_repsets():
            ct = character_table(rs)
            h = np.array(ct.partition.sizes, dtype=float)
            gram = (ct.values * h[None, :]) @ ct.values.conj().T
            assert np.max(np.abs(gram - g.order * np.eye(len(rs.irreps)))) < 1e-11

    def test_column_orthogonality(self):
        # sum_k chi_k(i) conj(chi_k(j)) = delta_ij |G| / h_i
        for g, rs in catalog_repsets():
            ct = character_table(rs)
            h = np.array(ct.partition.sizes, dtype=float)
            gram = ct.values.T @ ct.values.conj()
            want = np.diag(g.order / h)
            assert np.max(np.abs(gram - want)) < 1e-11

    def test_s3_table(self):
        g = build_group({"kind": "s3"})
        ct = character_table(irreps_for(g))
        # classes ordered: {e}, transpositions, 3-cycles
        assert ct.partition.sizes == (1, 3, 2)
        rows = {tuple(np.round(ct.values[k].real, 9)) for k in range(3)}
        assert rows == {(1, 1, 1), (1, -1, 1), (2, 0, -1)}

    def test_q8_table(self):
        g = build_group({"kind": "q8"})
        ct = character_table(irreps_for(g))
        assert ct.partition.sizes == (1, 1, 2, 2, 2)
        two_dim = next(
            ct.values[k] for k in range(5) if abs(ct.values[k, 0] - 2) < TOL
        )
        assert np.allclose(two_dim, [2, -2, 0, 0, 0], atol=TOL)

    def test_a4_table(self):
        g = build_group({"kind": "a4"})
        ct = character_table(irreps_for(g))
        assert ct.partition.sizes == (1, 3, 4, 4)
        three_dim = next(
            ct.values[k] for k in range(4) if abs(ct.values[k, 0] - 3) < TOL
        )
        assert np.allclose(three_dim, [3, -1, 0, 0], atol=1e-11)
        w = np.exp(2j * np.pi / 3)
        one_dims = sorted(
            (
                complex(np.round(ct.values[k, 2], 9))
                for k in range(4)
                if abs(ct.values[k, 0] - 1) < TOL
            ),
            key=lambda z: (z.real, z.imag),
        )
        assert np.allclose(
            one_dims, sorted([1, w, w**2], key=lambda z: (z.real, z.imag)), atol=1e-9
        )


class TestFourierMatrices:
    def test_group_fourier_is_unitary(self):
        for g, rs in catalog_repsets():
            f = fourier_matrix(rs)
            assert f.matrix.shape == (g.order, g.order)
            assert np.max(np.abs(f.matrix @ f.matrix.conj().T - np.eye(g.order))) < TOL

    @pytest.mark.parametrize("n", [192, 224, 256])
    def test_large_cyclic_orders_are_unitary(self, n):
        # characters exp(2 pi i (jk mod n) / n); powers of a rounded omega
        # up to (n - 1)^2 left residuals of 1.5e-12 to 1.9e-12 from n = 192
        g = build_group({"kind": "cyclic", "n": n})
        rs = irreps_for(g)
        report = validate_repset(g, rs)
        assert report.passed, report.to_text()
        f = fourier_matrix(rs)
        assert np.max(np.abs(f.matrix @ f.matrix.conj().T - np.eye(n))) < TOL

    def test_row_blocks_partition_the_rows(self):
        for g, rs in catalog_repsets():
            f = fourier_matrix(rs)
            covered = []
            for s, d in zip(f.row_blocks, f.degrees):
                assert s.stop - s.start == d * d
                covered.extend(range(s.start, s.stop))
            assert covered == list(range(g.order))

    def test_rows_are_scaled_matrix_elements(self):
        # row block k holds sqrt(d_k/n) * phi_ij(g), (i, j) column-major
        for g, rs in catalog_repsets():
            f = fourier_matrix(rs)
            for k, r in enumerate(rs.irreps):
                rows = f.matrix[f.row_blocks[k]]
                d = r.degree
                want = np.sqrt(d / g.order) * r.matrices.transpose(0, 2, 1).reshape(
                    g.order, d * d
                ).T
                assert np.max(np.abs(rows - want)) < TOL

    def test_incomplete_repset_rejected(self):
        g = build_group({"kind": "klein4"})
        rs = irreps_for(g)
        partial = RepSet(g, rs.irreps[:3])
        from whsymm.errors import RepValidationError

        with pytest.raises(RepValidationError):
            fourier_matrix(partial)

    def test_center_fourier_inverts(self):
        for g, rs in catalog_repsets():
            ct = character_table(rs)
            fc = center_fourier(ct)
            k = ct.partition.count
            assert np.max(np.abs(fc.matrix @ fc.inverse - np.eye(k))) < TOL
            assert np.max(np.abs(fc.inverse @ fc.matrix - np.eye(k))) < TOL

    def test_center_fourier_entries(self):
        g = build_group({"kind": "s3"})
        ct = character_table(irreps_for(g))
        fc = center_fourier(ct)
        h = np.array(ct.partition.sizes, dtype=float)
        n = g.order
        assert np.max(np.abs(fc.matrix - ct.values * h[None, :] / np.sqrt(n))) < TOL
        assert np.max(np.abs(fc.inverse - ct.values.conj().T / np.sqrt(n))) < TOL


class TestValidateRepset:
    def test_catalog_sets_pass(self):
        for g, rs in catalog_repsets():
            report = validate_repset(g, rs)
            assert report.passed, report.to_text()

    def test_catches_deunitarized_matrix(self):
        g = build_group({"kind": "s3"})
        rs = irreps_for(g)
        broken = []
        for r in rs.irreps:
            m = r.matrices.copy()
            if r.degree == 2:
                m[1] = 1.1 * m[1]
            broken.append(Irrep(r.degree, m))
        report = validate_repset(g, RepSet(g, tuple(broken)))
        failed = {c.name for c in report.checks if not c.passed}
        assert "unitarity" in failed

    def test_catches_broken_homomorphism(self):
        g = build_group({"kind": "s3"})
        rs = irreps_for(g)
        broken = []
        for r in rs.irreps:
            m = r.matrices.copy()
            if r.degree == 2:
                m[[1, 2]] = m[[2, 1]]
            broken.append(Irrep(r.degree, m))
        report = validate_repset(g, RepSet(g, tuple(broken)))
        failed = {c.name for c in report.checks if not c.passed}
        assert "homomorphism" in failed

    def test_catches_missing_irrep(self):
        g = build_group({"kind": "klein4"})
        rs = irreps_for(g)
        report = validate_repset(g, RepSet(g, rs.irreps[:3]))
        failed = {c.name for c in report.checks if not c.passed}
        assert "class_count" in failed and "degree_sum" in failed
