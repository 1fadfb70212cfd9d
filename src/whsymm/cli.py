"""Batch command-line front end.

One job per invocation.  The job is given either as a JSON job document
(``--job``) or as a subcommand plus flag shorthands; flags override job
fields.  The result document goes to stdout (or ``--out``), the
human-readable report text to stderr.

Exit status: 0 all verifications passed; 1 a verification failed (or an
unexpected error); 2 input document problem; 3 mathematically ill-posed
input (a block or class is not invertible on the circle, or the grid
cannot resolve it); 4 unsupported group; 5 factorization incomplete
(index report still emitted).  Each error class in ``whsymm.errors``
carries its code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import documents as docs
from .blocks import (
    GroupSymbol,
    assemble_matrix,
    block_diagonalize,
    block_structure,
    factor_group_symbol,
    partial_indices,
    symbol_from_blocks,
)
from .center import assemble_center_matrix, center_factorize
from .errors import DocumentError, PartialFactorizationError, RepValidationError, WhsymmError
from .groups import CATALOG, build_group, commutator_subgroup, conjugacy_classes
from .ratmat import GridEvaluator, RationalMatrix
from .reps import character_table, fourier_matrix, irreps_for, validate_repset
from .scalar import factor_grid, factor_rational, verify_scalar
from .symbols import CircleGrid, LaurentPoly, RationalSymbol, eval_on_grid
from .verify import (
    RECON_TOL,
    UNITARY_TOL,
    Check,
    VerificationReport,
    point_chunks,
    reconstruction_check,
    unitarity_check,
    verify_matrix_factorization,
)

MODES = (
    "reduce",
    "indices",
    "factorize",
    "center-factorize",
    "verify",
    "catalog",
    "roundtrip",
)

_DEFAULTS = {
    "grid": 512,
    "tol_recon": RECON_TOL,
    "tol_unitary": UNITARY_TOL,
    "engine": "exact",
    "seed": 0,
    "count": 20,
}


# ---------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------


def _load_json_text(text: str, what: str):
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what}: invalid JSON ({exc})") from exc


def _json_arg(value, what: str):
    """A flag value is inline JSON, a path to a JSON file, or (for group
    specs) a bare catalog name."""
    import os

    if value is None or not isinstance(value, str):
        return value
    v = value.strip()
    if v.startswith("{") or v.startswith("["):
        return _load_json_text(v, what)
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return _load_json_text(fh.read(), what)
    if v.replace("_", "").isalnum():
        return {"kind": v}  # shorthand: --group s3
    raise DocumentError(f"{what}: not inline JSON and no such file: {value!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whsymm",
        description="Wiener-Hopf factorization of matrix functions with "
        "finite-group symmetry.",
    )
    parser.add_argument("--job", help="JSON job document (inline or path)")
    sub = parser.add_subparsers(dest="mode")
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--job")
        p.add_argument("--out")
        p.add_argument("--grid", type=int)
        p.add_argument("--tol-recon", dest="tol_recon", type=float)
        p.add_argument("--tol-unitary", dest="tol_unitary", type=float)
        if mode in ("reduce", "indices", "factorize", "roundtrip", "catalog",
                    "center-factorize"):
            p.add_argument("--group")
        if mode in ("reduce", "indices", "factorize"):
            p.add_argument("--symbol")
        if mode in ("reduce", "indices", "factorize", "roundtrip"):
            p.add_argument("--reps")
        if mode == "factorize":
            p.add_argument("--scalar")
            p.add_argument("--engine", choices=("exact", "grid"))
        if mode == "center-factorize":
            p.add_argument("--class-coeffs", dest="class_coeffs")
        if mode == "verify":
            p.add_argument("--target")
            p.add_argument("--factorization")
        if mode == "roundtrip":
            p.add_argument("--seed", type=int)
            p.add_argument("--count", type=int)
    return parser


_PAYLOAD_KEYS = (
    "group",
    "symbol",
    "scalar",
    "class_coeffs",
    "reps",
    "target",
    "factorization",
)


def _build_job(args: argparse.Namespace) -> dict:
    job: dict = {}
    raw = getattr(args, "job", None)
    if raw is not None:
        loaded = _json_arg(raw, "--job")
        if not isinstance(loaded, dict):
            raise DocumentError("--job: job document must be a JSON object")
        job.update(loaded)
    if args.mode:
        job["mode"] = args.mode
    for key in _PAYLOAD_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            job[key] = _json_arg(val, f"--{key.replace('_', '-')}")
    for key in ("grid", "tol_recon", "tol_unitary", "engine", "seed", "count", "out"):
        val = getattr(args, key, None)
        if val is not None:
            job[key] = val
    for key, default in _DEFAULTS.items():
        job.setdefault(key, default)

    mode = job.get("mode")
    if mode not in MODES:
        raise DocumentError(
            f"job: mode must be one of {', '.join(MODES)}; got {mode!r}"
        )
    n = job["grid"]
    if not isinstance(n, int) or n < 8 or n & (n - 1):
        raise DocumentError(f"grid size must be a power of two >= 8, got {n!r}")
    if job["engine"] not in ("exact", "grid"):
        raise DocumentError(f"engine must be 'exact' or 'grid', got {job['engine']!r}")
    return job


def _require(job: dict, key: str):
    if key not in job:
        raise DocumentError(f"mode {job['mode']!r} requires {key.replace('_', '-')!r}")
    return job[key]


def _group_symbol(job: dict) -> GroupSymbol:
    return docs.parse_group_symbol(
        {"group": _require(job, "group"), "symbol": _require(job, "symbol")}
    )


def _repset_for(job: dict, group):
    if "reps" in job and job["reps"] is not None:
        repset = docs.parse_repset(job["reps"], group)
        report = validate_repset(group, repset)
        if not report.passed:
            raise RepValidationError(
                "supplied representation set failed validation:\n" + report.to_text()
            )
        return repset
    return irreps_for(group)


# ---------------------------------------------------------------------
# mode handlers: each returns (document | None, stderr text, exit status)
# ---------------------------------------------------------------------


def _reduction_chunks(gs: GroupSymbol, bd, f: np.ndarray, pts: np.ndarray):
    """(F* L F, A) samples over pts, for the assembled matrix A and the
    expanded block-diagonal L, in chunks as the verifier streams them."""
    ta, tl = GridEvaluator(assemble_matrix(gs)), GridEvaluator(bd.expand())
    fh = f.conj().T
    # both evaluations, then the two products, the difference and its modulus
    for p in point_chunks(pts, ta.bytes_per_point + tl.bytes_per_point + 64 * f.size):
        avals = ta(p)
        yield fh @ tl(p) @ f, avals


def _run_reduce(job: dict):
    gs = _group_symbol(job)
    repset = _repset_for(job, gs.group)
    bd = block_diagonalize(gs, repset)
    fm = fourier_matrix(repset)

    chunks = _reduction_chunks(gs, bd, fm.matrix, CircleGrid(job["grid"]).points)
    checks = (
        reconstruction_check(chunks, job["tol_recon"]),
    ) + unitarity_check(fm.matrix, job["tol_unitary"], "fourier_unitary").checks
    report = VerificationReport(checks, subject="block reduction")

    doc = {
        "group": gs.group.spec,
        "degrees": list(bd.degrees),
        "blocks": [docs.serialize_matrix(b) for b in bd.blocks],
        "report": docs.serialize_report(report),
    }
    text = block_structure(gs.group, repset).describe() + "\n" + report.to_text()
    return doc, text, 0 if report.passed else 1


def _run_indices(job: dict):
    gs = _group_symbol(job)
    bd = block_diagonalize(gs, _repset_for(job, gs.group))
    report = partial_indices(bd)
    return docs.serialize_index_report(report), report.describe(), 0


def _verified(doc: dict, report: VerificationReport):
    """The result document with its report last, or the report alone
    when a check failed."""
    if not report.passed:
        return {"report": docs.serialize_report(report)}, report.to_text(), 1
    doc["report"] = docs.serialize_report(report)
    return doc, report.to_text(), 0


def _run_factorize_scalar(job: dict):
    s = docs.parse_symbol(job["scalar"], "scalar")
    if job["engine"] == "grid":
        grid = CircleGrid(job["grid"])
        samples = eval_on_grid(s, grid)
        minus, rho, plus = factor_grid(samples)
        recon = minus * grid.points**rho * plus
        report = VerificationReport(
            (reconstruction_check([(recon, samples)], job["tol_recon"]),),
            subject="scalar factorization (grid engine)",
        )
        doc = {
            "engine": "grid",
            "n": grid.n,
            "index": int(rho),
            "minus_samples": [docs._pair(z) for z in minus],
            "plus_samples": [docs._pair(z) for z in plus],
        }
        return _verified(doc, report)

    fac = factor_rational(s)
    report = verify_scalar(s, fac, recon_tol=job["tol_recon"], grid_n=job["grid"])
    doc = {
        "engine": "exact",
        "minus": docs.serialize_symbol(fac.minus),
        "index": int(fac.index),
        "plus": docs.serialize_symbol(fac.plus),
    }
    return _verified(doc, report)


def _run_factorize(job: dict):
    if "scalar" in job and job["scalar"] is not None:
        return _run_factorize_scalar(job)
    if job["engine"] == "grid":
        raise DocumentError("engine 'grid' applies only to --scalar jobs")
    gs = _group_symbol(job)
    fac = factor_group_symbol(gs, _repset_for(job, gs.group))
    report = verify_matrix_factorization(
        assemble_matrix(gs), fac, recon_tol=job["tol_recon"], grid_n=job["grid"]
    )
    return _verified(docs.serialize_factorization(fac), report)


def _run_center_factorize(job: dict):
    cs = docs.parse_center_symbol(
        {"group": _require(job, "group"), "class_coeffs": _require(job, "class_coeffs")}
    )
    cf = center_factorize(cs)
    report = verify_matrix_factorization(
        assemble_center_matrix(cs),
        cf.factorization,
        recon_tol=job["tol_recon"],
        grid_n=job["grid"],
    )
    doc = docs.serialize_factorization(cf.factorization)
    doc["eigenvalues"] = [docs.serialize_symbol(s) for s in cf.eigenvalues]
    return _verified(doc, report)


def _run_verify(job: dict):
    raw = _require(job, "target")
    if isinstance(raw, list):
        target = docs.parse_matrix(raw, "target")
    elif isinstance(raw, dict) and "class_coeffs" in raw:
        target = assemble_center_matrix(docs.parse_center_symbol(raw, "target"))
    elif isinstance(raw, dict) and "symbol" in raw:
        target = assemble_matrix(docs.parse_group_symbol(raw, "target"))
    else:
        raise DocumentError(
            "target: expected a matrix (list of rows), a group-symbol "
            "document, or a center-symbol document"
        )
    fac = docs.parse_factorization(_require(job, "factorization"))
    report = verify_matrix_factorization(
        target, fac, recon_tol=job["tol_recon"], grid_n=job["grid"]
    )
    return docs.serialize_report(report), report.to_text(), 0 if report.passed else 1


def _fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if abs(im) < 1e-12:
        return f"{re:g}"
    if abs(re) < 1e-12:
        return f"{im:g}i"
    return f"{re:g}{im:+g}i"


def _catalog_entry(spec: dict, detailed: bool) -> tuple[dict, str]:
    group = build_group(spec)
    part = conjugacy_classes(group)
    repset = irreps_for(group)
    ct = character_table(repset, part)
    comm = commutator_subgroup(group)
    entry = {
        "name": group.name,
        "spec": group.spec,
        "order": group.order,
        "degrees": list(repset.degrees),
        "class_sizes": list(part.sizes),
        "explicit_index_count": comm.index,
    }
    lines = [
        f"{group.name}: order={group.order} degrees={list(repset.degrees)} "
        f"class_sizes={list(part.sizes)} explicit_indices={comm.index}"
    ]
    if detailed:
        entry["labels"] = list(group.labels)
        entry["classes"] = [
            [group.labels[g] for g in cls] for cls in part.classes
        ]
        entry["character_table"] = [
            [docs._pair(z) for z in row] for row in ct.values
        ]
        reps_row = "  ".join(group.labels[r] for r in part.representatives)
        lines.append(f"  class representatives: {reps_row}")
        for k, row in enumerate(ct.values):
            cells = "  ".join(_fmt_complex(z) for z in row)
            lines.append(f"  chi_{k + 1}: {cells}")
    return entry, "\n".join(lines)


def _run_catalog(job: dict):
    if "group" in job and job["group"] is not None:
        spec = job["group"]
        if isinstance(spec, str):
            spec = {"kind": spec}
        entry, text = _catalog_entry(spec, detailed=True)
        return entry, text, 0
    entries, lines = [], []
    for spec in CATALOG:
        entry, text = _catalog_entry(spec, detailed=False)
        entries.append(entry)
        lines.append(text)
    return {"groups": entries}, "\n".join(lines), 0


def _random_poly(rng: np.random.Generator) -> RationalSymbol:
    min_deg = int(rng.integers(-2, 1))
    width = int(rng.integers(1, 4))
    coeffs = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    return RationalSymbol(LaurentPoly(min_deg, coeffs))


def _run_roundtrip(job: dict):
    group = build_group(_require(job, "group"))
    repset = _repset_for(job, group)
    rng = np.random.default_rng(job["seed"])
    grid = CircleGrid(min(job["grid"], 64))
    worst = 0.0
    for _ in range(job["count"]):
        blocks = [
            RationalMatrix([[_random_poly(rng) for _ in range(d)] for _ in range(d)])
            for d in repset.degrees
        ]
        gs = symbol_from_blocks(blocks, repset)
        back = block_diagonalize(gs, repset)
        for orig, got in zip(blocks, back.blocks):
            worst = max(
                worst,
                float(np.max(np.abs(got.eval_grid(grid) - orig.eval_grid(grid)))),
            )
    report = VerificationReport(
        (Check("roundtrip_residual", worst, job["tol_recon"]),),
        subject=f"inverse-transform roundtrip ({group.name})",
    )
    doc = {
        "group": group.spec,
        "count": job["count"],
        "seed": job["seed"],
        "max_residual": worst,
        "report": docs.serialize_report(report),
    }
    return doc, report.to_text(), 0 if report.passed else 1


_HANDLERS = {
    "reduce": _run_reduce,
    "indices": _run_indices,
    "factorize": _run_factorize,
    "center-factorize": _run_center_factorize,
    "verify": _run_verify,
    "catalog": _run_catalog,
    "roundtrip": _run_roundtrip,
}


# ---------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------


def _emit(doc, text: str, out: str | None) -> None:
    if text:
        print(text, file=sys.stderr)
    if doc is None:
        return
    payload = docs.dumps(doc) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        job = _build_job(args)
        doc, text, status = _HANDLERS[job["mode"]](job)
    except WhsymmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PartialFactorizationError) and exc.index_report is not None:
            print(exc.index_report.describe(), file=sys.stderr)
            _emit(docs.serialize_index_report(exc.index_report), "", getattr(args, "out", None))
        return exc.exit_code
    _emit(doc, text, job.get("out"))
    return status


if __name__ == "__main__":
    sys.exit(main())
