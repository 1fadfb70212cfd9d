"""Independent output checker, written with numpy only.

Every check rebuilds what it needs from the job's plain-data inputs and
from refmath; none calls into whsymm.  Each function returns a list of
problems, empty when the output is right.

- Reconstruction A = A_minus diag(t**d) A_plus at points on the circle
  that are not on any power-of-two grid, relative to max|A| there.
- Factor-entry poles from np.roots: none on |t| >= 1 (infinity
  included) for A_minus, none on |t| <= 1 (zero included) for A_plus.
- Partial indices against the planted ones, and the total against a
  winding of det A taken with np.unwrap on a refined circle grid.
"""

from __future__ import annotations

import json

import numpy as np

from refmath import Sym

RECON_RTOL = 1e-9
_OFF_GRID = np.exp(2j * np.pi * (np.arange(48) + 1.0 / np.pi) / 48)


# ---------------------------------------------------------------------
# reading outputs
# ---------------------------------------------------------------------


def sym_from_program(rs) -> Sym:
    """Plain coefficients of a whsymm RationalSymbol (attributes only)."""
    if rs.num.coeffs.size == 0:
        return Sym(0, [0.0])
    return Sym(rs.num.min_deg - rs.den.min_deg, rs.num.coeffs, rs.den.coeffs)


def rows_from_program(m) -> list[list[Sym]]:
    return [[sym_from_program(e) for e in row] for row in m.rows]


def _poly_from_doc(doc) -> tuple[int, np.ndarray]:
    coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]], dtype=complex)
    return int(doc.get("min_deg", 0)), coeffs if coeffs.size else np.zeros(1, dtype=complex)


def sym_from_doc(doc) -> Sym:
    k, num = _poly_from_doc(doc["num"])
    if "den" not in doc:
        return Sym(k, num)
    kd, den = _poly_from_doc(doc["den"])
    return Sym(k - kd, num, den)


def rows_from_doc(doc) -> list[list[Sym]]:
    return [[sym_from_doc(e) for e in row] for row in doc]


def sym_doc(s: Sym) -> dict:
    """The whsymm JSON form of a symbol."""
    out = {"num": {"min_deg": s.shift, "coeffs": [[z.real, z.imag] for z in s.num]}}
    if s.den.size > 1 or s.den[0] != 1:
        out["den"] = {"min_deg": 0, "coeffs": [[z.real, z.imag] for z in s.den]}
    return out


def eval_rows(rows: list[list[Sym]], t: np.ndarray) -> np.ndarray:
    out = np.empty((t.size, len(rows), len(rows[0])), dtype=complex)
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            out[:, i, j] = s(t)
    return out


# ---------------------------------------------------------------------
# primitive checks
# ---------------------------------------------------------------------


def _trim(c: np.ndarray) -> np.ndarray:
    nz = np.flatnonzero(c)
    return c[: nz[-1] + 1] if nz.size else c[:1] * 0


def _roots(c: np.ndarray) -> np.ndarray:
    c = _trim(c)
    return np.roots(c[::-1]) if c.size > 1 else np.zeros(0, dtype=complex)


def _order_at_zero(s: Sym) -> int:
    return s.shift + int(np.flatnonzero(s.num)[0]) - int(np.flatnonzero(s.den)[0])


def _degree_at_infinity(s: Sym) -> int:
    return s.shift + _trim(s.num).size - _trim(s.den).size


def pole_problems(rows: list[list[Sym]], side: str, cache: dict) -> list[str]:
    """side 'minus': no pole on |t| >= 1 or at infinity; 'plus': none on
    |t| <= 1.  ``cache`` holds denominator roots keyed by coefficients."""
    out = []
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            if s.is_zero:
                continue
            key = s.den.tobytes()
            if key not in cache:
                cache[key] = np.abs(_roots(s.den))
            radii = cache[key]
            if side == "minus":
                bad = radii[radii >= 1.0]
                if bad.size or _degree_at_infinity(s) > 0:
                    out.append(f"minus[{i}][{j}] has a pole on |t| >= 1")
            else:
                bad = radii[radii <= 1.0]
                if bad.size or _order_at_zero(s) < 0:
                    out.append(f"plus[{i}][{j}] has a pole on |t| <= 1")
    return out[:3]


def det_winding(sample, start: int = 1024, cap: int = 1 << 16) -> int:
    """Winding number of det A around 0, with ``sample(t)`` giving the
    (N, n, n) samples; the grid doubles until every unwrapped phase step
    is below half a radian."""
    n = start
    while True:
        t = np.exp(2j * np.pi * np.arange(n) / n)
        dets = np.linalg.det(sample(t))
        if not np.all(np.isfinite(dets)) or np.any(dets == 0):
            raise ValueError("det A vanishes or overflows on the circle")
        phase = np.unwrap(np.angle(np.append(dets, dets[0])))
        if np.max(np.abs(np.diff(phase))) < 0.5 or n >= cap:
            return int(round((phase[-1] - phase[0]) / (2 * np.pi)))
        n *= 2


def recon_problem(target: np.ndarray, minus, d, plus) -> list[str]:
    """target, minus and plus are samples at _OFF_GRID."""
    scale = _OFF_GRID[:, None] ** np.asarray(d)[None, :]
    recon = (minus * scale[:, None, :]) @ plus
    top = float(np.max(np.abs(target)))
    err = float(np.max(np.abs(recon - target))) / top
    if not err <= RECON_RTOL:
        return [f"relative reconstruction error {err:.3g} > {RECON_RTOL:g}"]
    return []


# ---------------------------------------------------------------------
# job-level checks
# ---------------------------------------------------------------------


def factorization(sample, minus_rows, d, plus_rows, expected, total: int) -> list[str]:
    """Check minus * diag(t**d) * plus against the target A.

    ``sample(t)`` evaluates A; ``expected`` lists, per block copy in
    order, the planted partial indices of that copy; ``total`` is the
    planted total index.
    """
    n = len(d)
    if len(minus_rows) != n or len(plus_rows) != n:
        return [f"factor shapes do not match len(d) = {n}"]
    problems = recon_problem(
        sample(_OFF_GRID), eval_rows(minus_rows, _OFF_GRID), d, eval_rows(plus_rows, _OFF_GRID)
    )
    cache: dict = {}
    problems += pole_problems(minus_rows, "minus", cache)
    problems += pole_problems(plus_rows, "plus", cache)
    pos = 0
    for k, want in enumerate(expected):
        got = tuple(sorted(d[pos : pos + len(want)]))
        if got != tuple(sorted(want)):
            problems.append(f"block copy {k + 1}: indices {got}, planted {tuple(sorted(want))}")
        pos += len(want)
    if sum(d) != total:
        problems.append(f"total index {sum(d)}, planted {total}")
    wind = det_winding(sample)
    if wind != total:
        problems.append(f"winding of det A is {wind}, planted total {total}")
    return problems


def scalar(s: Sym, minus: Sym, index: int, plus: Sym, planted: int) -> list[str]:
    return factorization(
        lambda t: s(t)[:, None, None], [[minus]], [index], [[plus]], [(planted,)], planted
    )


def index_report(sample, explicit: dict, det_indices: list, total: int, got) -> list[str]:
    """``got`` has total_index, explicit {position: value} and per-block
    det indices, read from the program's index report."""
    problems = []
    if got["explicit"] != explicit:
        problems.append(f"explicit indices {got['explicit']}, planted {explicit}")
    if got["det"] != det_indices:
        problems.append(f"block det indices {got['det']}, planted {det_indices}")
    if got["total"] != total:
        problems.append(f"total index {got['total']}, planted {total}")
    wind = det_winding(sample)
    if wind != total:
        problems.append(f"winding of det A is {wind}, planted total {total}")
    return problems


def blocks_match(got_rows: list, planted_rows: list) -> list[str]:
    """Reduced blocks against the planted ones, at off-grid points."""
    problems = []
    for k, (got, want) in enumerate(zip(got_rows, planted_rows)):
        a, b = eval_rows(got, _OFF_GRID), eval_rows(want, _OFF_GRID)
        err = float(np.max(np.abs(a - b))) / float(np.max(np.abs(b)))
        if not err <= RECON_RTOL:
            problems.append(f"block {k + 1} differs from the planted block by {err:.3g}")
    if len(got_rows) != len(planted_rows):
        problems.append(f"{len(got_rows)} blocks, planted {len(planted_rows)}")
    return problems


def parse_stdout(text: str):
    """(document, problems): stdout must be one JSON document."""
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]
