"""External document formats.

All interchange is JSON.  Complex scalars travel as [re, im] pairs;
Laurent polynomials as {"min_deg": m, "coeffs": [[re, im], ...]} with
coeffs[k] the coefficient of t**(min_deg + k); a rational symbol as
{"num": poly, "den": poly} where an omitted "den" means the constant 1.
A group-symbol document maps element labels to symbols (missing labels
are the zero symbol); a center-symbol document lists one coefficient
per conjugacy class in class order.

Serialization is deterministic: fixed key order, floats rendered with
17 significant digits (round-trip exact), so identical inputs produce
byte-identical documents.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .blocks import GroupSymbol, IndexReport, MatrixFactorization
from .center import CenterSymbol
from .errors import DocumentError
from .groups import FiniteGroup, build_group, conjugacy_classes
from .ratmat import RationalMatrix
from .reps import Irrep, RepSet
from .symbols import LaurentPoly, RationalSymbol
from .verify import VerificationReport

# ---------------------------------------------------------------------
# deterministic JSON writer
# ---------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        # reports can carry infinite or NaN residuals; clamp to a sentinel
        # any JSON parser accepts, NaN to +1e308 so it never reads as a pass
        return "-1e308" if x < 0 else "1e308"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return format(x, ".17g")


def dumps(obj) -> str:
    """Render JSON with deterministic float formatting."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            _write(str(k), out)
            out.append(": ")
            _write(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _write(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------
# scalars and polynomials
# ---------------------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _parse_complex(obj, where: str) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if (
        isinstance(obj, list)
        and len(obj) == 2
        and all(isinstance(x, (int, float)) for x in obj)
    ):
        return complex(obj[0], obj[1])
    raise DocumentError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def serialize_poly(p: LaurentPoly) -> dict:
    return {"min_deg": int(p.min_deg), "coeffs": [_pair(c) for c in p.coeffs]}


def parse_poly(obj, where: str = "polynomial") -> LaurentPoly:
    if not isinstance(obj, dict):
        raise DocumentError(f"{where}: expected an object, got {type(obj).__name__}")
    if "coeffs" not in obj:
        raise DocumentError(f"{where}: missing 'coeffs'")
    min_deg = obj.get("min_deg", 0)
    if not isinstance(min_deg, int):
        raise DocumentError(f"{where}: 'min_deg' must be an integer")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise DocumentError(f"{where}: 'coeffs' must be a list")
    return LaurentPoly(
        min_deg, [_parse_complex(c, f"{where}.coeffs[{k}]") for k, c in enumerate(coeffs)]
    )


def serialize_symbol(s: RationalSymbol) -> dict:
    doc = {"num": serialize_poly(s.num)}
    if not s.is_const_den:
        doc["den"] = serialize_poly(s.den)
    return doc


def parse_symbol(obj, where: str = "symbol") -> RationalSymbol:
    if not isinstance(obj, dict) or "num" not in obj:
        raise DocumentError(f"{where}: expected an object with a 'num' field")
    num = parse_poly(obj["num"], f"{where}.num")
    if "den" in obj:
        den = parse_poly(obj["den"], f"{where}.den")
        if den.is_zero:
            raise DocumentError(f"{where}: denominator is identically zero")
        return RationalSymbol(num, den)
    return RationalSymbol(num)


# ---------------------------------------------------------------------
# symbols over groups
# ---------------------------------------------------------------------


def parse_group_symbol(obj, where: str = "group symbol") -> GroupSymbol:
    if not isinstance(obj, dict) or "group" not in obj or "symbol" not in obj:
        raise DocumentError(f"{where}: expected an object with 'group' and 'symbol'")
    group = build_group(obj["group"])
    mapping = obj["symbol"]
    if not isinstance(mapping, dict):
        raise DocumentError(f"{where}: 'symbol' must map element labels to symbols")
    coeffs = [RationalSymbol.zero()] * group.order
    for label, sym in mapping.items():
        if label not in group.label_index:
            raise DocumentError(
                f"{where}: unknown element label {label!r} for group {group.name}"
            )
        coeffs[group.label_index[label]] = parse_symbol(sym, f"{where}.symbol[{label}]")
    return GroupSymbol(group, tuple(coeffs))


def serialize_group_symbol(gs: GroupSymbol) -> dict:
    return {
        "group": gs.group.spec,
        "symbol": {
            gs.group.labels[i]: serialize_symbol(c)
            for i, c in enumerate(gs.coeffs)
            if not c.is_zero
        },
    }


def parse_center_symbol(obj, where: str = "center symbol") -> CenterSymbol:
    if not isinstance(obj, dict) or "group" not in obj or "class_coeffs" not in obj:
        raise DocumentError(f"{where}: expected an object with 'group' and 'class_coeffs'")
    group = build_group(obj["group"])
    part = conjugacy_classes(group)
    coeffs = obj["class_coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != part.count:
        raise DocumentError(
            f"{where}: 'class_coeffs' must list exactly {part.count} symbols "
            f"(one per conjugacy class of {group.name})"
        )
    return CenterSymbol(
        group,
        tuple(
            parse_symbol(c, f"{where}.class_coeffs[{j}]") for j, c in enumerate(coeffs)
        ),
    )


def serialize_center_symbol(cs: CenterSymbol) -> dict:
    return {
        "group": cs.group.spec,
        "class_coeffs": [serialize_symbol(c) for c in cs.coeffs],
    }


def parse_repset(obj, group: FiniteGroup, where: str = "representation set") -> RepSet:
    if not isinstance(obj, list) or not obj:
        raise DocumentError(f"{where}: expected a nonempty list of representations")
    irreps = []
    for k, rep in enumerate(obj):
        if not isinstance(rep, dict) or "degree" not in rep or "matrices" not in rep:
            raise DocumentError(f"{where}[{k}]: expected 'degree' and 'matrices'")
        deg = rep["degree"]
        if not isinstance(deg, int) or deg < 1:
            raise DocumentError(f"{where}[{k}]: degree must be a positive integer")
        mats = rep["matrices"]
        if not isinstance(mats, dict) or set(mats) != set(group.labels):
            raise DocumentError(
                f"{where}[{k}]: 'matrices' must give one matrix per element label"
            )
        stack = np.zeros((group.order, deg, deg), dtype=complex)
        for label, rows in mats.items():
            g = group.label_index[label]
            if not isinstance(rows, list) or len(rows) != deg:
                raise DocumentError(f"{where}[{k}].matrices[{label}]: need {deg} rows")
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != deg:
                    raise DocumentError(
                        f"{where}[{k}].matrices[{label}]: need {deg} entries per row"
                    )
                for j, z in enumerate(row):
                    stack[g, i, j] = _parse_complex(
                        z, f"{where}[{k}].matrices[{label}][{i}][{j}]"
                    )
        irreps.append(Irrep(deg, stack))
    return RepSet(group, tuple(irreps))


# ---------------------------------------------------------------------
# matrices, factorizations, reports
# ---------------------------------------------------------------------


def serialize_matrix(m: RationalMatrix) -> list:
    return [[serialize_symbol(e) for e in row] for row in m.rows]


def parse_matrix(obj, where: str = "matrix") -> RationalMatrix:
    if not isinstance(obj, list) or not obj:
        raise DocumentError(f"{where}: expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise DocumentError(f"{where}[{i}]: expected a list")
        rows.append([parse_symbol(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)])
    try:
        return RationalMatrix(rows)
    except (ValueError, TypeError) as exc:
        raise DocumentError(f"{where}: {exc}") from exc


def serialize_factorization(f: MatrixFactorization) -> dict:
    return {
        "minus": serialize_matrix(f.minus),
        "d": [int(k) for k in f.d],
        "plus": serialize_matrix(f.plus),
    }


def parse_factorization(obj, where: str = "factorization") -> MatrixFactorization:
    if not isinstance(obj, dict) or not {"minus", "d", "plus"} <= set(obj):
        raise DocumentError(f"{where}: expected 'minus', 'd' and 'plus' fields")
    d = obj["d"]
    if not isinstance(d, list) or not all(isinstance(k, int) for k in d):
        raise DocumentError(f"{where}: 'd' must be a list of integers")
    minus = parse_matrix(obj["minus"], f"{where}.minus")
    plus = parse_matrix(obj["plus"], f"{where}.plus")
    n = len(d)
    if minus.shape != (n, n) or plus.shape != (n, n):
        raise DocumentError(f"{where}: factor shapes must match the length of 'd'")
    return MatrixFactorization(minus, tuple(d), plus)


def serialize_report(r: VerificationReport) -> dict:
    return {
        "subject": r.subject,
        "checks": [
            {
                "name": c.name,
                "residual": float(c.residual),
                "tolerance": float(c.tolerance),
                "verdict": "pass" if c.passed else "fail",
                **({"detail": c.detail} if c.detail else {}),
            }
            for c in r.checks
        ],
        "overall": "pass" if r.passed else "fail",
    }


def serialize_index_report(r: IndexReport) -> dict:
    return {
        "group": r.group_name,
        "order": r.order,
        "total_index": r.total_index,
        "explicit_count": r.explicit_count,
        "explicit": [{"position": p, "value": v} for p, v in r.explicit],
        "relations": list(r.relations),
        "blocks": [
            {
                "block": b.block + 1,
                "degree": b.degree,
                "det_index": b.det_index,
                **({"indices": list(b.indices)} if b.indices is not None else {}),
                "positions": list(b.positions),
            }
            for b in r.blocks
        ],
    }
