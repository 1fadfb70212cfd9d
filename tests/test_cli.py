"""Command-line interface: modes, exit codes, determinism, output routing.

Each invocation runs in-process through main(argv); stdout carries the
JSON result document, stderr the human-readable report.  Exit codes:
0 pass, 1 verification failure, 2 document problem, 3 ill-posed input,
4 unsupported group, 5 partial factorization (index report emitted).
"""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import whsymm
from whsymm import build_group, factor_triangular_2x2
from whsymm.cli import main
from whsymm.documents import (
    dumps,
    serialize_factorization,
    serialize_group_symbol,
    serialize_center_symbol,
    serialize_matrix,
)

from conftest import dominant_cyclic_symbol, draw_group_symbol, random_center_symbol


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_stdout(text):
    return json.loads(text)


SCALAR = '{"num": {"min_deg": -1, "coeffs": [[0.5, 0], [1, 0], [0, 0], [2, 0.5]]}}'


def klein4_job_symbol():
    rng = np.random.default_rng(9090_01)
    gs, _ = draw_group_symbol(build_group({"kind": "klein4"}), rng)
    return serialize_group_symbol(gs)


def s3_symbol_doc():
    rng = np.random.default_rng(9090_02)
    gs, _ = draw_group_symbol(build_group({"kind": "s3"}), rng)
    return serialize_group_symbol(gs)


class TestCatalog:
    def test_lists_all_groups_in_order(self):
        code, out, err = run(["catalog"])
        assert code == 0
        doc = parse_stdout(out)
        names = [g["name"] for g in doc["groups"]]
        assert names == [
            "cyclic(2)", "cyclic(3)", "cyclic(4)", "klein4",
            "product(cyclic(2),cyclic(3))", "s3", "q8", "a4",
        ]
        assert all("degrees" in g and "class_sizes" in g for g in doc["groups"])
        assert "s3" in err

    def test_detailed_entry(self):
        code, out, err = run(["catalog", "--group", "s3"])
        assert code == 0
        doc = parse_stdout(out)
        assert doc["name"] == "s3"
        assert doc["labels"][0] == "e"
        assert len(doc["character_table"]) == 3
        assert "chi_1" in err and "class representatives" in err

    def test_unknown_group_kind_is_unsupported(self):
        code, out, err = run(["catalog", "--group", "dihedral7"])
        assert code == 4
        assert "error" in err


class TestReduce:
    def test_reduce_klein4(self):
        doc = klein4_job_symbol()
        code, out, err = run(
            ["reduce", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        )
        assert code == 0
        res = parse_stdout(out)
        assert res["degrees"] == [1, 1, 1, 1]
        assert len(res["blocks"]) == 4
        assert res["report"]["overall"] == "pass"
        assert "block reduction" in err

    def test_reduce_s3_block_shapes(self):
        doc = s3_symbol_doc()
        code, out, _ = run(
            ["reduce", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        )
        assert code == 0
        res = parse_stdout(out)
        assert res["degrees"] == [1, 1, 2]
        assert len(res["blocks"][2]) == 2 and len(res["blocks"][2][0]) == 2


    def test_reduce_streams_the_grid(self, monkeypatch):
        # cyclic(32): one (512, 32, 32) complex sample array takes 8.4 MB,
        # and the whole-grid reduction held four of them
        from whsymm import verify

        doc = serialize_group_symbol(dominant_cyclic_symbol(32, 9090_32))
        argv = ["reduce", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        tracemalloc.start()
        try:
            want = run(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert want[0] == 0
        assert peak < 8e6
        # a few points per chunk, and chunks that do not divide the grid
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 300_000)
        assert run(argv) == want

    def test_control_character_label_stays_valid_json(self):
        labels = ["e", "g\n"]
        reps = [
            {"degree": 1, "matrices": {"e": [[1]], "g\n": [[1]]}},
            {"degree": 1, "matrices": {"e": [[1]], "g\n": [[-1]]}},
        ]
        code, out, _ = run(
            ["reduce",
             "--group", json.dumps({"kind": "custom", "cayley": [[0, 1], [1, 0]], "labels": labels}),
             "--symbol", json.dumps({"e": {"num": {"coeffs": [[2, 0]]}},
                                     "g\n": {"num": {"min_deg": 1, "coeffs": [[0.5, 0]]}}}),
             "--reps", json.dumps(reps)]
        )
        assert code == 0
        assert parse_stdout(out)["group"]["labels"] == labels


class TestIndices:
    def test_indices_document(self):
        doc = s3_symbol_doc()
        code, out, err = run(
            ["indices", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        )
        assert code == 0
        res = parse_stdout(out)
        assert res["group"] == "s3" and res["explicit_count"] == 2
        assert len(res["blocks"]) == 3
        assert "rho_1 = " in err


class TestFactorizeScalar:
    def test_exact_engine(self):
        code, out, err = run(["factorize", "--scalar", SCALAR])
        assert code == 0
        res = parse_stdout(out)
        assert res["engine"] == "exact"
        assert {"minus", "index", "plus", "report"} <= set(res)
        assert res["report"]["overall"] == "pass"

    def test_grid_engine(self):
        code, out, _ = run(
            ["factorize", "--scalar", SCALAR, "--engine", "grid", "--grid", "256"]
        )
        assert code == 0
        res = parse_stdout(out)
        assert res["engine"] == "grid" and res["n"] == 256
        assert len(res["minus_samples"]) == 256
        assert isinstance(res["index"], int)

    def test_determinism_byte_identical(self):
        first = run(["factorize", "--scalar", SCALAR])
        second = run(["factorize", "--scalar", SCALAR])
        assert first == second

    def test_engines_agree_on_index(self):
        _, out_e, _ = run(["factorize", "--scalar", SCALAR])
        _, out_g, _ = run(["factorize", "--scalar", SCALAR, "--engine", "grid"])
        assert parse_stdout(out_e)["index"] == parse_stdout(out_g)["index"]

    def test_circle_zero_is_ill_posed(self):
        bad = '{"num": {"min_deg": 0, "coeffs": [[-1, 0], [1, 0]]}}'  # t - 1
        code, out, err = run(["factorize", "--scalar", bad])
        assert code == 3
        assert out == "" and "error" in err

    def test_root_cluster_at_the_circle_is_declined(self):
        # (t - 0.9999 e^{0.8i})^4 has index 4; the root finder scatters
        # the cluster across the circle and counts 2
        coeffs = np.poly([0.9999 * np.exp(0.8j)] * 4)[::-1]
        doc = json.dumps({"num": {"min_deg": 0, "coeffs": [[c.real, c.imag] for c in coeffs]}})
        code, out, err = run(["factorize", "--scalar", doc])
        assert code == 3
        assert out == "" and "disagrees" in err


class TestFactorizeMatrix:
    def test_abelian_full_factorization(self):
        doc = klein4_job_symbol()
        code, out, _ = run(
            ["factorize", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        )
        assert code == 0
        res = parse_stdout(out)
        assert {"minus", "d", "plus", "report"} <= set(res)
        assert len(res["d"]) == 4
        assert res["report"]["overall"] == "pass"

    def test_generic_s3_partial_emits_index_report(self):
        doc = s3_symbol_doc()
        code, out, err = run(
            ["factorize", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        )
        assert code == 5
        assert "outside the factorization catalog" in err
        res = parse_stdout(out)
        assert res["group"] == "s3" and "total_index" in res

    def test_grid_engine_rejected_for_matrix_jobs(self):
        doc = klein4_job_symbol()
        code, _, err = run(
            ["factorize", "--group", dumps(doc["group"]),
             "--symbol", dumps(doc["symbol"]), "--engine", "grid"]
        )
        assert code == 2
        assert "grid" in err

    def test_custom_group_is_unsupported(self):
        code, _, err = run(
            ["factorize", "--group", '{"kind": "custom", "cayley": [[0, 1], [1, 0]]}',
             "--symbol", '{"g0": {"num": {"coeffs": [[1, 0]]}}}']
        )
        assert code == 4

    def test_ill_posed_block(self):
        # c2 blocks are a(e) +- a(g); t + 1 vanishes on the circle
        code, _, err = run(
            ["factorize", "--group", '{"kind": "cyclic", "n": 2}',
             "--symbol",
             '{"e": {"num": {"min_deg": 1, "coeffs": [[1, 0]]}}, '
             '"g": {"num": {"coeffs": [[1, 0]]}}}']
        )
        assert code == 3
        assert "invertible" in err


    def test_undersampled_block_is_named(self):
        # a(e) = t - 0.99999 and zeros elsewhere: every klein4 block has a
        # zero 1e-5 inside the circle, too close for the sampling cap
        sym = '{"e": {"num": {"min_deg": 0, "coeffs": [[-0.99999, 0], [1, 0]]}}}'
        for mode, block in (("indices", "block 1 (scalar)"), ("factorize", "block 1")):
            code, out, err = run([mode, "--group", '{"kind": "klein4"}', "--symbol", sym])
            assert code == 3 and out == ""
            assert err.startswith(f"error: {block} has no resolved winding: "), err


class TestCenterFactorize:
    def test_s3_center(self):
        rng = np.random.default_rng(9090_03)
        g = build_group({"kind": "s3"})
        for _ in range(20):
            cs = random_center_symbol(g, rng)
            doc = serialize_center_symbol(cs)
            code, out, err = run(
                ["center-factorize", "--group", dumps(doc["group"]),
                 "--class-coeffs", dumps(doc["class_coeffs"])]
            )
            if code == 3:
                continue  # ill-conditioned draw; redrawn
            assert code == 0
            res = parse_stdout(out)
            assert len(res["eigenvalues"]) == 3 and len(res["d"]) == 3
            assert res["report"]["overall"] == "pass"
            return
        pytest.fail("no factorable center draw in 20 attempts")

    def test_ill_posed_center(self):
        code, _, err = run(
            ["center-factorize", "--group", '{"kind": "cyclic", "n": 2}',
             "--class-coeffs",
             '[{"num": {"min_deg": 1, "coeffs": [[1, 0]]}}, {"num": {"coeffs": [[1, 0]]}}]']
        )
        assert code == 3
        assert "class" in err


class TestVerify:
    def factorization_fixture(self):
        from whsymm import LaurentPoly, RationalMatrix, RationalSymbol

        z = RationalSymbol.zero()
        block = RationalMatrix(
            [
                [RationalSymbol.from_poly(LaurentPoly.from_roots([0.5, 2.0])),
                 RationalSymbol.const(1.0)],
                [z, RationalSymbol.monomial(-1, 3.0)],
            ]
        )
        return block, factor_triangular_2x2(block)

    def test_valid_factorization_passes(self):
        block, fac = self.factorization_fixture()
        code, out, err = run(
            ["verify", "--target", dumps(serialize_matrix(block)),
             "--factorization", dumps(serialize_factorization(fac))]
        )
        assert code == 0
        assert parse_stdout(out)["overall"] == "pass"
        assert "overall=pass" in err

    def test_broken_factorization_fails(self):
        block, fac = self.factorization_fixture()
        doc = serialize_factorization(fac)
        doc["d"] = [doc["d"][0] + 1, doc["d"][1]]
        code, out, err = run(
            ["verify", "--target", dumps(serialize_matrix(block)),
             "--factorization", dumps(doc)]
        )
        assert code == 1
        res = parse_stdout(out)
        assert res["overall"] == "fail"
        failing = {c["name"] for c in res["checks"] if c["verdict"] == "fail"}
        assert "reconstruction" in failing

    def test_group_symbol_target(self):
        doc = klein4_job_symbol()
        code, out, _ = run(
            ["factorize", "--group", dumps(doc["group"]), "--symbol", dumps(doc["symbol"])]
        )
        assert code == 0
        fac_doc = parse_stdout(out)
        code2, out2, _ = run(
            ["verify", "--target", dumps(doc),
             "--factorization",
             dumps({"minus": fac_doc["minus"], "d": fac_doc["d"], "plus": fac_doc["plus"]})]
        )
        assert code2 == 0
        assert parse_stdout(out2)["overall"] == "pass"

    def test_bad_target_shape(self):
        _, fac = self.factorization_fixture()
        code, _, err = run(
            ["verify", "--target", '{"oops": 1}',
             "--factorization", dumps(serialize_factorization(fac))]
        )
        assert code == 2


class TestRoundtrip:
    def test_roundtrip_mode(self):
        code, out, err = run(["roundtrip", "--group", "q8", "--seed", "3", "--count", "5"])
        assert code == 0
        res = parse_stdout(out)
        assert res["count"] == 5 and res["seed"] == 3
        assert res["max_residual"] <= 1e-10
        assert res["report"]["overall"] == "pass"

    def test_roundtrip_deterministic_per_seed(self):
        a = run(["roundtrip", "--group", "s3", "--seed", "7"])
        b = run(["roundtrip", "--group", "s3", "--seed", "7"])
        assert a == b


class TestExitCodes:
    # the table in the whsymm.cli docstring
    DOCUMENTED = {
        "WhsymmError": 1,
        "DocumentError": 2,
        "GroupConstructionError": 2,
        "RepValidationError": 2,
        "IllPosedSymbolError": 3,
        "NotInvertibleOnCircleError": 3,
        "PoleOnGridError": 3,
        "UndersampledError": 3,
        "SymbolDivisionError": 3,
        "DegreeCapError": 3,
        "UnsupportedGroupError": 4,
        "PartialFactorizationError": 5,
    }

    def test_every_error_class_carries_its_documented_code(self):
        from whsymm import errors

        classes = {
            name: cls for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.WhsymmError)
        }
        assert set(classes) == set(self.DOCUMENTED)
        for name, code in self.DOCUMENTED.items():
            assert classes[name].exit_code == code, name


class TestJobsAndRouting:
    def test_job_document(self, tmp_path):
        doc = klein4_job_symbol()
        job = {"mode": "indices", "group": doc["group"], "symbol": doc["symbol"]}
        path = tmp_path / "job.json"
        path.write_text(dumps(job))
        code, out, _ = run(["--job", str(path)])
        assert code == 0
        assert parse_stdout(out)["group"] == "klein4"

    def test_flags_override_job_fields(self):
        job = dumps({"mode": "roundtrip", "group": {"kind": "s3"}, "seed": 1, "count": 2})
        code, out, _ = run(["roundtrip", "--job", job, "--seed", "9"])
        assert code == 0
        assert parse_stdout(out)["seed"] == 9

    def test_out_file_redirects_stdout(self, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(["catalog", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["groups"]

    def test_missing_required_field(self):
        code, _, err = run(["indices", "--group", "s3"])
        assert code == 2
        assert "symbol" in err

    def test_invalid_json(self):
        code, _, err = run(["indices", "--group", "{not json", "--symbol", "{}"])
        assert code == 2

    def test_bad_grid_size(self):
        code, _, err = run(["factorize", "--scalar", SCALAR, "--grid", "100"])
        assert code == 2
        assert "grid" in err

    def test_bad_mode_in_job(self):
        code, _, err = run(["--job", '{"mode": "conquer"}'])
        assert code == 2
        assert "mode" in err

    def test_no_mode_at_all(self):
        code, _, err = run(["--job", "{}"])
        assert code == 2

    def test_module_entry_point(self):
        # the child imports the same package as this process, also when
        # only pytest's own pythonpath setting found it
        src = os.path.dirname(os.path.dirname(whsymm.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "whsymm", "catalog"],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["groups"][0]["name"] == "cyclic(2)"
