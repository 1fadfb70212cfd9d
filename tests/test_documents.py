"""JSON document formats: determinism, exact round-trips, parse errors.

The round-trip oracle is exact equality: floats are rendered with 17
significant digits, so parse(serialize(x)) must reproduce x bit for
bit.  Documents are also fed through the stdlib json parser to confirm
the deterministic writer emits valid JSON.
"""

import json

import numpy as np
import pytest

from whsymm import (
    Check,
    DocumentError,
    GroupSymbol,
    LaurentPoly,
    RationalMatrix,
    RationalSymbol,
    build_group,
    factor_triangular_2x2,
    irreps_for,
    partial_indices,
    block_diagonalize,
    VerificationReport,
    validate_repset,
    verify_matrix_factorization,
)
from whsymm.documents import (
    dumps,
    parse_center_symbol,
    parse_factorization,
    parse_group_symbol,
    parse_matrix,
    parse_poly,
    parse_repset,
    parse_symbol,
    serialize_center_symbol,
    serialize_factorization,
    serialize_group_symbol,
    serialize_index_report,
    serialize_matrix,
    serialize_poly,
    serialize_report,
    serialize_symbol,
)

from conftest import draw_group_symbol, random_center_symbol, random_symbol


class TestDumps:
    def test_emits_valid_json(self):
        doc = {"a": [1, 2.5, [0.1, -0.2]], "b": None, "c": True, "d": "x\"y\\z"}
        text = dumps(doc)
        assert json.loads(text) == doc

    def test_deterministic(self):
        doc = {"x": 1 / 3, "y": [np.float64(0.1), np.int64(7)]}
        assert dumps(doc) == dumps(doc)

    def test_floats_roundtrip_exactly(self):
        for x in (1 / 3, 0.1 + 0.2, 1e-300, -2.5e17, 123456789.123456789):
            assert json.loads(dumps({"v": x}))["v"] == x

    def test_integral_floats_render_short(self):
        assert dumps(2.0) == "2"
        assert dumps(-17.0) == "-17"

    def test_nonfinite_clamped(self):
        assert json.loads(dumps(float("inf"))) == 1e308
        assert json.loads(dumps(float("-inf"))) == -1e308

    def test_control_characters_escaped(self):
        doc = {"g\n": ["tab\there", "bell\x07", "\x00\x1f", "caf\u00e9 \"q\" \\"]}
        assert json.loads(dumps(doc)) == doc
        # strings without control characters keep their former bytes
        assert dumps("caf\u00e9 \"q\" \\") == '"caf\u00e9 \\"q\\" \\\\"'

    def test_nan_residual_reads_as_failure(self):
        report = VerificationReport((Check("reconstruction", float("nan"), 1e-10),))
        doc = json.loads(dumps(serialize_report(report)))
        check = doc["checks"][0]
        assert check["residual"] == 1e308
        assert check["verdict"] == "fail" and doc["overall"] == "fail"

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestPolySymbolRoundTrip:
    def test_poly_round_trip(self):
        rng = np.random.default_rng(8080_01)
        for _ in range(20):
            width = int(rng.integers(1, 6))
            coeffs = rng.normal(size=width) + 1j * rng.normal(size=width)
            coeffs[-1] += 1.0
            p = LaurentPoly(int(rng.integers(-3, 4)), coeffs)
            doc = json.loads(dumps(serialize_poly(p)))
            assert parse_poly(doc) == p

    def test_symbol_round_trip(self):
        rng = np.random.default_rng(8080_02)
        for _ in range(30):
            s = random_symbol(rng)
            doc = json.loads(dumps(serialize_symbol(s)))
            assert parse_symbol(doc) == s

    def test_den_omitted_iff_constant_one(self):
        plain = RationalSymbol.monomial(2, 1.5)
        assert "den" not in serialize_symbol(plain)
        frac = RationalSymbol(LaurentPoly.const(1.0), LaurentPoly.from_roots([0.5]))
        assert "den" in serialize_symbol(frac)

    def test_min_deg_defaults_to_zero(self):
        s = parse_symbol({"num": {"coeffs": [[1, 0], [2, 0]]}})
        assert s.num.min_deg == 0 and s.num.coeff(1) == 2.0

    def test_plain_numbers_accepted_as_reals(self):
        s = parse_symbol({"num": {"min_deg": 0, "coeffs": [3, [0, 1]]}})
        assert s.num.coeff(0) == 3.0 and s.num.coeff(1) == 1j

    def test_parse_errors_name_the_path(self):
        with pytest.raises(DocumentError, match="num"):
            parse_symbol({"den": {"coeffs": [[1, 0]]}})
        with pytest.raises(DocumentError, match="coeffs"):
            parse_poly({"min_deg": 0})
        with pytest.raises(DocumentError, match="min_deg"):
            parse_poly({"min_deg": 1.5, "coeffs": []})
        with pytest.raises(DocumentError, match=r"coeffs\[1\]"):
            parse_poly({"min_deg": 0, "coeffs": [[1, 0], "bad"]})
        with pytest.raises(DocumentError, match="zero"):
            parse_symbol({"num": {"coeffs": [[1, 0]]}, "den": {"coeffs": []}})


class TestGroupSymbolDocuments:
    def test_round_trip_drops_zero_coefficients(self):
        rng = np.random.default_rng(8080_03)
        g = build_group({"kind": "s3"})
        coeffs = [random_symbol(rng) for _ in range(5)] + [RationalSymbol.zero()]
        gs = GroupSymbol(g, coeffs)
        doc = json.loads(dumps(serialize_group_symbol(gs)))
        assert g.labels[5] not in doc["symbol"]
        back = parse_group_symbol(doc)
        assert back.group.name == "s3"
        for a, b in zip(gs.coeffs, back.coeffs):
            assert a == b

    def test_missing_labels_mean_zero(self):
        gs = parse_group_symbol(
            {"group": {"kind": "cyclic", "n": 3}, "symbol": {"g": {"num": {"coeffs": [[1, 0]]}}}}
        )
        assert gs.coeffs[0].is_zero and gs.coeffs[2].is_zero
        assert not gs.coeffs[1].is_zero

    def test_unknown_label_rejected(self):
        with pytest.raises(DocumentError, match="label"):
            parse_group_symbol(
                {"group": {"kind": "cyclic", "n": 2}, "symbol": {"h": {"num": {"coeffs": [[1, 0]]}}}}
            )

    def test_shape_errors(self):
        with pytest.raises(DocumentError):
            parse_group_symbol({"group": {"kind": "s3"}})
        with pytest.raises(DocumentError):
            parse_group_symbol({"group": {"kind": "s3"}, "symbol": [1, 2]})


class TestCenterSymbolDocuments:
    def test_round_trip(self):
        rng = np.random.default_rng(8080_04)
        for kind in ("s3", "q8"):
            g = build_group({"kind": kind})
            cs = random_center_symbol(g, rng)
            doc = json.loads(dumps(serialize_center_symbol(cs)))
            back = parse_center_symbol(doc)
            for a, b in zip(cs.coeffs, back.coeffs):
                assert a == b

    def test_class_count_enforced(self):
        with pytest.raises(DocumentError, match="3"):
            parse_center_symbol(
                {"group": {"kind": "s3"}, "class_coeffs": [{"num": {"coeffs": [[1, 0]]}}]}
            )


class TestRepsetDocuments:
    def serialize_repset(self, rs):
        g = rs.group
        return [
            {
                "degree": r.degree,
                "matrices": {
                    g.labels[x]: [
                        [[float(z.real), float(z.imag)] for z in row]
                        for row in r.matrices[x]
                    ]
                    for x in range(g.order)
                },
            }
            for r in rs.irreps
        ]

    def test_catalog_set_round_trips_and_validates(self):
        g = build_group({"kind": "s3"})
        rs = irreps_for(g)
        doc = json.loads(dumps(self.serialize_repset(rs)))
        back = parse_repset(doc, g)
        assert back.degrees == rs.degrees
        for a, b in zip(rs.irreps, back.irreps):
            assert np.array_equal(a.matrices, b.matrices)
        assert validate_repset(g, back).passed

    def test_errors(self):
        g = build_group({"kind": "cyclic", "n": 2})
        with pytest.raises(DocumentError):
            parse_repset([], g)
        with pytest.raises(DocumentError, match="degree"):
            parse_repset([{"degree": 0, "matrices": {}}], g)
        with pytest.raises(DocumentError, match="label"):
            parse_repset([{"degree": 1, "matrices": {"e": [[1]]}}], g)
        full = {"e": [[1]], "g": [[1]]}
        with pytest.raises(DocumentError, match="rows"):
            parse_repset([{"degree": 1, "matrices": {"e": [[1], [2]], "g": [[1]]}}], g)
        assert parse_repset([{"degree": 1, "matrices": full}], g).degrees == (1,)


class TestMatrixFactorizationDocuments:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(8080_05)
        m = RationalMatrix([[random_symbol(rng) for _ in range(2)] for _ in range(3)])
        doc = json.loads(dumps(serialize_matrix(m)))
        back = parse_matrix(doc)
        assert back.shape == (3, 2)
        for i in range(3):
            for j in range(2):
                assert back[i, j] == m[i, j]

    def test_factorization_round_trip_still_verifies(self):
        z = RationalSymbol.zero()
        block = RationalMatrix(
            [
                [RationalSymbol.from_poly(LaurentPoly.from_roots([0.5, 2.0])),
                 RationalSymbol.const(1.0)],
                [z, RationalSymbol.monomial(-1, 3.0)],
            ]
        )
        fac = factor_triangular_2x2(block)
        doc = json.loads(dumps(serialize_factorization(fac)))
        back = parse_factorization(doc)
        assert back.d == fac.d
        assert verify_matrix_factorization(block, back).passed

    def test_factorization_errors(self):
        with pytest.raises(DocumentError):
            parse_factorization({"minus": [], "d": [0]})
        with pytest.raises(DocumentError, match="integers"):
            parse_factorization({"minus": [], "d": [0.5], "plus": []})
        one = {"num": {"coeffs": [[1, 0]]}}
        with pytest.raises(DocumentError, match="shape"):
            parse_factorization({"minus": [[one]], "d": [0, 1], "plus": [[one]]})
        with pytest.raises(DocumentError):
            parse_matrix([])
        with pytest.raises(DocumentError):
            parse_matrix("nope")


class TestReportDocuments:
    def test_verification_report_document(self):
        z = RationalSymbol.zero()
        block = RationalMatrix(
            [[RationalSymbol.monomial(1), z], [z, RationalSymbol.const(2.0)]]
        )
        from whsymm import factor_block

        fac = factor_block(block)
        report = verify_matrix_factorization(block, fac)
        doc = json.loads(dumps(serialize_report(report)))
        assert doc["overall"] == "pass"
        assert {c["name"] for c in doc["checks"]} >= {"reconstruction", "index_sum"}
        assert all(c["verdict"] == "pass" for c in doc["checks"])

    def test_index_report_document(self):
        rng = np.random.default_rng(8080_06)
        g = build_group({"kind": "s3"})
        gs, bd = draw_group_symbol(g, rng)
        doc = json.loads(dumps(serialize_index_report(partial_indices(bd))))
        assert doc["group"] == "s3" and doc["order"] == 6
        assert doc["explicit_count"] == 2
        assert [e["position"] for e in doc["explicit"]] == [1, 2]
        assert doc["blocks"][2]["degree"] == 2
        assert "indices" not in doc["blocks"][2]
        assert doc["blocks"][0]["indices"] == [doc["explicit"][0]["value"]]
        assert doc["total_index"] == sum(
            e["value"] for e in doc["explicit"]
        ) + 2 * doc["blocks"][2]["det_index"]
